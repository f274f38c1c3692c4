"""Trace directory loading: dispatch, per-rank parsing, caching.

A trace directory holds one dumpi2ascii text file per rank
(``dumpi-<rank>.txt``) plus an optional ``meta.txt`` naming the
application. The paper's analyzer parses "in parallel in a per-rank
fashion" (§V-A.a); here parsing is serial, rank by rank. On a 2-core
machine a per-rank process pool measured 1.06x at best (a 27-rank,
68 k-op LULESH trace) and 0.55x at 8 ranks, and the binary cache
already makes a second load cheap.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.traces.cache import load_cached, store_cache
from repro.traces.dumpi import parse_rank_file, write_rank_file
from repro.traces.model import Trace

__all__ = ["load_trace", "save_trace", "rank_file_name"]

_RANK_FILE_RE = re.compile(r"^dumpi-(\d+)\.txt$")


def rank_file_name(rank: int) -> str:
    return f"dumpi-{rank}.txt"


def _discover_rank_files(trace_dir: Path) -> list[tuple[int, Path]]:
    found = []
    for path in trace_dir.iterdir():
        match = _RANK_FILE_RE.match(path.name)
        if match is not None:
            found.append((int(match.group(1)), path))
    found.sort()
    if not found:
        raise FileNotFoundError(f"no dumpi-<rank>.txt files in {trace_dir}")
    expected = list(range(len(found)))
    if [rank for rank, _ in found] != expected:
        raise ValueError(
            f"trace {trace_dir} has non-contiguous ranks: {[r for r, _ in found]}"
        )
    return found


def load_trace(trace_dir: Path | str, *, use_cache: bool = True) -> Trace:
    """Load a trace directory, honouring the binary cache."""
    trace_dir = Path(trace_dir)
    if use_cache:
        cached = load_cached(trace_dir)
        if cached is not None:
            return cached
    files = _discover_rank_files(trace_dir)
    name = trace_dir.name
    meta = trace_dir / "meta.txt"
    if meta.exists():
        for line in meta.read_text().splitlines():
            key, _, value = line.partition("=")
            if key.strip() == "name":
                name = value.strip()
    ranks = [parse_rank_file(path, rank) for rank, path in files]
    trace = Trace(name=name, nprocs=len(ranks), ranks=ranks)
    if use_cache:
        store_cache(trace_dir, trace)
    return trace


def save_trace(trace: Trace, trace_dir: Path | str) -> Path:
    """Write a trace out as a dumpi2ascii-style directory."""
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / "meta.txt").write_text(f"name={trace.name}\nnprocs={trace.nprocs}\n")
    for rank_trace in trace.ranks:
        write_rank_file(trace_dir / rank_file_name(rank_trace.rank), rank_trace)
    return trace_dir
