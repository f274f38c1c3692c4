"""Trace infrastructure: model, DUMPI parsing, caching, synthesis."""

from repro.traces.cache import load_cached, store_cache
from repro.traces.dumpi import (
    TraceParseError,
    format_rank_trace,
    parse_rank_file,
    parse_rank_text,
    write_rank_file,
)
from repro.traces.model import OpGroup, OpKind, RankTrace, Trace, TraceOp
from repro.traces.reader import load_trace, rank_file_name, save_trace

__all__ = [
    "OpGroup",
    "OpKind",
    "RankTrace",
    "Trace",
    "TraceOp",
    "TraceParseError",
    "format_rank_trace",
    "load_cached",
    "load_trace",
    "parse_rank_file",
    "parse_rank_text",
    "rank_file_name",
    "save_trace",
    "store_cache",
    "write_rank_file",
]
