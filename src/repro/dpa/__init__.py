"""Simulated Data Path Accelerator substrate.

* :class:`DpaMachine` — the optimistic matcher coupled to a cycle
  model with BlueField-3 geometry (16 cores / 256 threads)
* :class:`DpaCostModel` / :class:`HostCostModel` / :class:`WireModel`
  — the calibrated per-operation budgets behind every reported rate
* :class:`MemoryModel` — the §III-E footprint arithmetic
* :class:`StridedPoller` — the §IV-A completion-queue discipline
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "completion": "StridedPoller",
    "costs": "DpaCostModel HostCostModel WireModel",
    "machine": "BF3_CORES BF3_THREADS DpaMachine DpaRunReport",
    "memory": "BYTES_PER_BIN INDEX_TABLES MemoryModel",
    "pipeline": "OffloadedEndpoint",
})
