"""The assembled offloaded endpoint: one object, the whole §IV stack.

:class:`OffloadedEndpoint` wires together a queue pair, the
eager/rendezvous protocol receiver, the optimistic matching engine,
and the DPA cycle accounting. It is what a deployment would hand an
MPI library: post receives, call :meth:`progress`, read completed
deliveries — with per-message accelerator-cycle costs and a live
memory-footprint check on the side.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import ReceiveRequest
from repro.dpa.costs import DpaCostModel
from repro.dpa.machine import BF3_CORES
from repro.dpa.memory import MemoryModel
from repro.rdma.protocol import Delivery, RdmaReceiver
from repro.rdma.qp import QueuePair
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy
from repro.recovery.recoverer import RecoveringMatcher

__all__ = ["OffloadedEndpoint"]


class OffloadedEndpoint:
    """Receiver-side offload pipeline with cycle accounting."""

    def __init__(
        self,
        qp: QueuePair,
        config: EngineConfig | None = None,
        *,
        cores: int = BF3_CORES,
        cost_model: DpaCostModel | None = None,
        keep_history: bool = False,
        history_limit: int | None = None,
        core_faults: CoreFaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        """``keep_history`` retains per-block stats on the engine
        (bounded by ``history_limit`` when given); off by default so a
        long-lived endpoint cannot grow memory with traffic. Cycle
        accounting is exact either way — blocks are costed before any
        truncation.

        ``core_faults`` swaps the bare engine for a
        :class:`repro.recovery.recoverer.RecoveringMatcher` under a
        seeded core-fault schedule: blocks replay after rollback on
        surviving cores and matching escalates to host takeover past
        ``recovery.quarantine_threshold``. The carried stats object
        records only *successful* blocks, so cycle accounting stays
        exact across rollbacks and engine generations."""
        self.config = config if config is not None else EngineConfig()
        self.memory = MemoryModel(self.config.bins, self.config.max_receives)
        if self.memory.requires_fallback():
            raise ValueError(
                f"configuration needs {self.memory.total_bytes() / 1024:.0f} KiB, "
                f"beyond DPA L3 ({self.memory.l3_bytes / 1024:.0f} KiB); "
                "create the communicator in software instead (§III-E)"
            )
        # History retention is managed here, after costing, so the
        # engine itself stays unbounded (a limit applied inside absorb
        # could trim blocks before they were costed).
        self._recoverer: RecoveringMatcher | None = None
        if core_faults is not None:
            self._recoverer = RecoveringMatcher(
                self.config,
                cores=cores,
                core_plan=core_faults,
                recovery=recovery,
                keep_history=True,
            )
        self.matcher: RecoveringMatcher | OptimisticMatcher = (
            self._recoverer or OptimisticMatcher(self.config, keep_history=True)
        )
        self.receiver = RdmaReceiver(qp, self.matcher)
        self.costs = cost_model if cost_model is not None else DpaCostModel()
        self.cores = cores
        self.dpa_cycles = 0.0
        self._blocks_costed = 0
        self._keep_history = keep_history
        self._history_limit = history_limit

    @property
    def engine(self) -> OptimisticMatcher:
        """The current engine generation (changes across rollbacks)."""
        return self.matcher if self._recoverer is None else self._recoverer.engine

    @property
    def recovery_stats(self):
        """Recovery accounting, or None without ``core_faults``."""
        return None if self._recoverer is None else self._recoverer.recovery_stats

    # -- MPI-facing surface --------------------------------------------

    def post_receive(self, request: ReceiveRequest) -> None:
        self.receiver.post_receive(request)
        self._account_new_blocks()

    def progress(self) -> int:
        moved = self.receiver.progress()
        self._account_new_blocks()
        return moved

    @property
    def completed(self) -> list[Delivery]:
        return self.receiver.completed

    @property
    def unexpected_count(self) -> int:
        return self.matcher.unexpected_count

    # -- accounting ------------------------------------------------------

    def _account_new_blocks(self) -> None:
        # The stats object is carried across engine generations, so
        # this history is cumulative even under rollback/recovery.
        history = self.matcher.stats.block_history
        alive = self.cores
        if self._recoverer is not None:
            alive = max(1, self.cores - self._recoverer.quarantine.count)
        while self._blocks_costed < len(history):
            block = history[self._blocks_costed]
            self.dpa_cycles += self.costs.block_cycles(block, alive)
            self._blocks_costed += 1
        if not self._keep_history:
            history.clear()
            self._blocks_costed = 0
        elif self._history_limit is not None and len(history) > self._history_limit:
            drop = len(history) - self._history_limit
            del history[:drop]
            self._blocks_costed -= drop

    @property
    def dpa_seconds(self) -> float:
        return self.costs.cycles_to_seconds(self.dpa_cycles)

    def cycles_per_message(self) -> float:
        messages = self.matcher.stats.messages
        return self.dpa_cycles / messages if messages else 0.0
