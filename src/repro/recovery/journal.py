"""Block-boundary checkpoints of the matching data structures.

The optimistic engine is run-to-completion per block (§IV), which
gives a natural journal epoch: *between* blocks the engine holds no
in-flight thread state — just the posted-receive indexes, the
unexpected store, and the decision counter. A checkpoint taken there
is tiny (the live working set, not the history), and a mid-block core
fault rolls back by discarding the half-mutated engine and rebuilding
a fresh one from the checkpoint.

Rollback is sound because an aborted block leaks nothing observable:

* no events — ``process_block`` raised before returning outcomes;
* no stats — ``ctx.stats`` is absorbed only in the block epilogue,
  which the fault preempted;
* no decision stamps — ``decisions.next()`` is called only in the
  epilogue and in (serialized, never-concurrent) host commands.

The partially-written booking bitmaps and consumed descriptors die
with the discarded engine object; the replacement re-labels receives
and arrivals preserving relative order (``import_state``'s contract),
so C1/C2 audits hold across any number of rollbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EngineConfig
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.stats import EngineStats
from repro.core.threadsim import SchedulePolicy
from repro.util.counters import MonotonicCounter

__all__ = ["BlockCheckpoint", "checkpoint_engine", "host_takeover", "restore_engine"]


@dataclass(slots=True)
class BlockCheckpoint:
    """Live matching state at one block boundary."""

    #: Posted receives as ``(post_label, request)`` in posting order.
    receives: list[tuple[int, ReceiveRequest]] = field(default_factory=list)
    #: Unexpected messages in arrival order.
    unexpected: list[MessageEnvelope] = field(default_factory=list)
    #: Decision stamps handed out so far (restores stay monotone).
    decisions: int = 0


def host_takeover(engine: OptimisticMatcher):
    """A host :class:`repro.matching.list_matcher.ListMatcher` seeded
    with ``engine``'s live working set, decision stamps kept monotone.

    The one migration primitive every escalation path shares (through
    :meth:`repro.recovery.supervisor.Supervisor.take_over`): the
    descriptor-table spill, the core-quarantine takeover and the
    budget takeover. ``engine`` must be settled (between blocks).
    """
    # Imported here, not at module top: repro.matching's package init
    # pulls in FallbackMatcher, which reaches this module through the
    # supervisor — a top-level import would cycle.
    from repro.matching.list_matcher import ListMatcher

    host = ListMatcher()
    receives, unexpected = engine.export_state()
    host.seed_state(receives, unexpected)
    host.decisions = MonotonicCounter(engine.decisions.peek())
    return host


def checkpoint_engine(engine: OptimisticMatcher) -> BlockCheckpoint:
    """Snapshot ``engine`` at a block boundary (no pending messages)."""
    if engine.pending_messages:
        raise ValueError("checkpoint requires a settled engine (no pending messages)")
    receives, unexpected = engine.export_state()
    return BlockCheckpoint(
        receives=receives,
        unexpected=unexpected,
        decisions=engine.decisions.peek(),
    )


def restore_engine(
    checkpoint: BlockCheckpoint,
    config: EngineConfig,
    *,
    engine_cls: type[OptimisticMatcher] = OptimisticMatcher,
    policy: SchedulePolicy | None = None,
    comm: int = 0,
    stats: EngineStats | None = None,
    observer=None,
    fault_injector=None,
    keep_history: bool = True,
    history_limit: int | None = None,
    pressure=None,
    recorder=None,
) -> OptimisticMatcher:
    """Build a fresh engine holding exactly the checkpointed state —
    the one place an engine generation is constructed, for rollback,
    re-offload and rank restart alike.

    ``stats``, when given, is installed as the new engine's stats
    object, so cumulative counters survive rollbacks and migrations
    (``keep_history``/``history_limit`` only shape a *fresh* stats
    object). ``fault_injector`` is re-attached so the fault schedule
    continues across the replay (the injector's own block counter
    advances per *attempt*, keeping the schedule deterministic).
    ``pressure`` (a memory meter) is installed *before* the import so
    the adopted state is re-charged by the import hooks; ``recorder``
    (a flight recorder) rides along on every generation.
    """
    fresh = engine_cls(
        config,
        policy=policy,
        comm=comm,
        keep_history=keep_history,
        history_limit=history_limit,
        observer=observer,
    )
    if stats is not None:
        fresh.stats = stats
    fresh.decisions = MonotonicCounter(checkpoint.decisions)
    fresh.fault_injector = fault_injector
    fresh.set_pressure(pressure)
    fresh.set_recorder(recorder)
    fresh.import_state(checkpoint.receives, checkpoint.unexpected)
    return fresh
