"""Bin-count recommendation.

Fig. 7 shows diminishing returns as bins grow while the §III-E memory
model charges 20 B per bin per table. This utility closes the loop:
given a trace (or its sweep), find the smallest bin count whose mean
experienced queue depth meets a target, and report the DPA memory it
costs — the sizing decision an MPI implementation would make at
communicator creation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyzer.processing import PreparedTrace, analyze, prepare
from repro.analyzer.statistics import AppAnalysis
from repro.dpa.memory import MemoryModel
from repro.traces.model import Trace

__all__ = ["Recommendation", "recommend_bins"]

#: Candidate bin counts (powers of two, the artifact's sweep domain).
_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True, slots=True)
class Recommendation:
    """The sizing decision for one application trace."""

    bins: int
    mean_depth: float
    max_depth: int
    target_depth: float
    #: DPA bytes for the bin tables at this count (per §III-E).
    bin_table_bytes: int
    #: True when even the largest candidate missed the target.
    saturated: bool
    #: The full sweep behind the decision (bins -> analysis).
    sweep: dict[int, AppAnalysis]

    def meets_target(self) -> bool:
        return self.mean_depth <= self.target_depth


def recommend_bins(
    trace: Trace | PreparedTrace,
    *,
    target_depth: float = 1.0,
    max_receives: int = 8192,
    candidates: tuple[int, ...] = _CANDIDATES,
) -> Recommendation:
    """Smallest bin count meeting ``target_depth`` mean queue depth.

    The search is monotone in expectation but measured, not assumed:
    every candidate is analyzed until one meets the target (depths are
    not strictly monotone sample-to-sample because hashing moves keys
    between bins as the count changes).
    """
    if target_depth < 0:
        raise ValueError(f"target depth must be non-negative, got {target_depth}")
    if not candidates:
        raise ValueError("candidate list must not be empty")
    prepared = prepare(trace)
    sweep: dict[int, AppAnalysis] = {}
    chosen: AppAnalysis | None = None
    for bins in sorted(candidates):
        analysis = analyze(prepared, bins)
        sweep[bins] = analysis
        if analysis.depth.mean_depth <= target_depth:
            chosen = analysis
            break
    saturated = chosen is None
    if chosen is None:
        chosen = sweep[max(sweep)]
    memory = MemoryModel(bins=chosen.bins, max_receives=max_receives)
    return Recommendation(
        bins=chosen.bins,
        mean_depth=chosen.depth.mean_depth,
        max_depth=chosen.depth.max_depth,
        target_depth=target_depth,
        bin_table_bytes=memory.bin_table_bytes(),
        saturated=saturated,
        sweep=sweep,
    )
