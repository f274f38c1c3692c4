"""Trace infrastructure: model, DUMPI parsing, caching, synthesis."""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cache": "load_cached store_cache",
    "dumpi": "TraceParseError format_rank_trace parse_rank_file parse_rank_text write_rank_file",
    "model": "OpGroup OpKind RankTrace Trace TraceOp",
    "reader": "load_trace rank_file_name save_trace",
})
