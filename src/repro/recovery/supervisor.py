"""The degradation ladder's mechanism, written once.

The paper has one degradation rule — "if the number of posted receives
exceeds this capacity, the application must fall back to software tag
matching" (§III-B, budgeted by §III-E) — and the repo adopted sPIN's
contract for it: exhaustion spills to the host *temporarily*, then
returns. :class:`Supervisor` owns everything that rule needs, for all
four front-ends (:class:`repro.matching.fallback.FallbackMatcher`,
:class:`repro.recovery.recoverer.RecoveringMatcher`,
:class:`repro.pressure.controller.PressuredPipeline`,
:class:`repro.dpa.machine.DpaMachine`):

* the live engine **generation** and, while degraded, the host
  :class:`ListMatcher` that adopted its working set;
* what every generation carries — one ``stats`` object, the decision
  counter, the core-fault injector, the memory meter (installed
  *before* ``import_state`` so the returning set is re-charged), the
  flight recorder, observer and history settings;
* :meth:`take_over` / :meth:`reoffload` — the two migrations, with
  their counters, meter release and recorder events;
* :meth:`run_guarded` — checkpoint, attempt, quarantine, rollback,
  replay-or-take-over for one batch under the fault injector;
* the host-parked store of evicted unexpected messages
  (:meth:`evict_oldest`, :meth:`search_parked`, :meth:`recall`).

What it does *not* own is policy: when to take over, when to come
back, admission, and pricing stay with the front-ends, which decide
and then call in, or charge around the call. Nothing here branches on
which front-end is calling.

Replay determinism: the engine is oracle-equivalent under *any* thread
interleaving (the C1/C2 property tests) and rollback restores posted/
unexpected state with relative order intact, so a replayed block — or
a host-matched one — yields the pairings of a fault-free run. A
:class:`DeadlockError` with *no* armed fault is a genuine engine
liveness bug and is re-raised, never silently "recovered".
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent, MatchKind
from repro.core.stats import EngineStats
from repro.core.threadsim import DeadlockError, SchedulePolicy
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.recovery.faults import (
    CoreFault,
    CoreFaultInjector,
    CoreFaultKind,
    CoreFaultPlan,
)
from repro.recovery.journal import (
    BlockCheckpoint,
    checkpoint_engine,
    host_takeover,
    restore_engine,
)
from repro.recovery.quarantine import CoreQuarantine, RecoveryPolicy

if TYPE_CHECKING:  # repro.matching's package init imports this module
    from repro.matching.list_matcher import ListMatcher

__all__ = ["GuardedRun", "RecoveryStats", "Supervisor"]


@dataclass(slots=True)
class RecoveryStats:
    """Cumulative recovery accounting (obs-pullable, JSON-literal)."""

    #: Faults that manifested (one per aborted block attempt).
    core_fail_stops: int = 0
    core_hangs: int = 0
    core_bit_flips: int = 0
    #: Block attempts aborted and rolled back to their checkpoint.
    block_rollbacks: int = 0
    #: Replay attempts started after a rollback.
    blocks_replayed: int = 0
    #: Messages re-run by those replays.
    replay_messages: int = 0
    #: Blocks that completed after at least one rollback.
    blocks_recovered: int = 0
    #: Quarantine events (cores can be quarantined repeatedly).
    cores_quarantined: int = 0
    #: Cores returned from quarantine.
    core_repairs: int = 0
    #: Escalations to the host list matcher.
    host_takeovers: int = 0
    #: Migrations back onto a fresh engine after a takeover.
    reoffloads: int = 0


@dataclass(frozen=True, slots=True)
class GuardedRun:
    """Outcome of :meth:`Supervisor.run_guarded`, for the caller to price."""

    #: The surviving attempt's events; ``None`` when the batch was not
    #: run because matching escalated to the host instead (the caller
    #: delivers the batch there).
    events: list[MatchEvent] | None
    #: Block attempts started (aborted ones included).
    attempts: int
    #: Aborted attempts that sat out the hang watchdog's timeout.
    hangs: int


class Supervisor:
    """Owns the live engine generation and, while degraded, the host."""

    def __init__(
        self,
        config: EngineConfig,
        *,
        engine_cls: type[OptimisticMatcher] = OptimisticMatcher,
        policy: SchedulePolicy | None = None,
        comm: int = 0,
        observer=None,
        keep_history: bool = False,
        history_limit: int | None = None,
        meter=None,
        recorder: FlightRecorder = NULL_RECORDER,
        core_plan: CoreFaultPlan | None = None,
        cores: int = 0,
        recovery: RecoveryPolicy | None = None,
        instant: Callable[[str, dict], None] | None = None,
    ) -> None:
        """``core_plan`` arms the fault injector and the quarantine set
        over ``cores`` cores (without it :meth:`run_guarded` is not
        available). ``instant(name, args)`` is told of every fault,
        quarantine and repair as it happens — the front-end's tracer
        hook, stamped on the front-end's own clock."""
        self.config = config
        self.meter = meter
        self.recorder = recorder
        self.recovery_policy = recovery if recovery is not None else RecoveryPolicy()
        self.recovery_stats = RecoveryStats()
        self.quarantine: CoreQuarantine | None = None
        self.injector: CoreFaultInjector | None = None
        if core_plan is not None:
            self.quarantine = CoreQuarantine(
                cores, repair_epochs=self.recovery_policy.repair_epochs
            )
            self.injector = CoreFaultInjector(
                core_plan, active_cores=self.quarantine.active_cores
            )
        self._instant = instant
        self._build = dict(
            engine_cls=engine_cls,
            policy=policy,
            comm=comm,
            observer=observer,
            keep_history=keep_history,
            history_limit=history_limit,
        )
        #: One stats object carried across every engine generation.
        self.stats: EngineStats | None = None
        #: The live generation (stale while ``host`` is set).
        self.engine = self._generation(BlockCheckpoint())
        self.stats = self.engine.stats
        #: Non-None while degraded: the host matcher owning the set.
        self.host: ListMatcher | None = None
        #: Events resolved out of band (host deliveries, settles before
        #: a migration), surfaced by the front-end's next drain.
        self.events: list[MatchEvent] = []
        #: Messages awaiting a guarded block (batches must be known
        #: before the engine sees them, for rollback and replay).
        self.staged: deque[MessageEnvelope] = deque()
        #: Host-parked evictees, strictly ascending arrival order.
        self.parked: deque[MessageEnvelope] = deque()
        #: Block-equivalents processed; drives quarantine repairs.
        self.epoch = 0
        self._host_msgs = 0

    # -- generations -----------------------------------------------------

    def _generation(self, checkpoint: BlockCheckpoint) -> OptimisticMatcher:
        """A fresh engine holding ``checkpoint``, wired like every other
        generation of this supervisor."""
        return restore_engine(
            checkpoint,
            self.config,
            stats=self.stats,
            fault_injector=self.injector,
            pressure=self.meter,
            recorder=self.recorder if self.recorder.enabled else None,
            **self._build,
        )

    def set_recorder(self, recorder: FlightRecorder) -> None:
        """Install the flight recorder on this and every later generation."""
        self.recorder = recorder
        self.engine.set_recorder(recorder if recorder.enabled else None)

    def drain_events(self) -> list[MatchEvent]:
        events, self.events = self.events, []
        return events

    @property
    def posted_count(self) -> int:
        if self.host is not None:
            return self.host.posted_count
        return self.engine.posted_receives

    @property
    def unexpected_count(self) -> int:
        """Resident unexpected messages (parked ones not included)."""
        if self.host is not None:
            return self.host.unexpected_count
        return self.engine.unexpected_count

    def queue_depths(self) -> dict[str, float]:
        """Timeline gauges of whichever matcher owns the working set."""
        if self.host is None:
            return self.engine.queue_depths()
        return {
            "prq": float(self.host.posted_count),
            "umq": float(self.host.unexpected_count),
            "pending": 0.0,
            "prq_max_bin": 0.0,
            "umq_max_bin": 0.0,
        }

    # -- engine -> host --------------------------------------------------

    def take_over(self, reason: str, **detail) -> None:
        """The host list matcher adopts the working set. The engine
        must be settled (between blocks, nothing pending), so its
        export *is* the last consistent checkpoint."""
        self.host = host_takeover(self.engine)
        self.stats.fallback_spills += 1
        if self.meter is not None:
            # The working set now lives in host memory: its descriptor
            # and UMQ-header charges leave the accelerator wholesale.
            self.meter.stats.takeovers += 1
            self.meter.release_all("descriptors")
            self.meter.release_all("unexpected")
        if self.recorder.enabled:
            self.recorder.event("takeover", reason=reason, **detail)

    def host_deliver(self, msg: MessageEnvelope) -> MatchEvent:
        """Match one message on the host (serial: resolves at once)."""
        event = self.host.incoming_message(msg)
        self.stats.degraded_matches += 1
        # Host traffic still advances repair time, one epoch per
        # block-equivalent of messages.
        self._host_msgs += 1
        if self._host_msgs % self.config.block_threads == 0:
            self.advance_epoch()
        return event

    # -- host -> engine --------------------------------------------------

    def reoffload(self, **detail) -> None:
        """Migrate the host's working set back onto a fresh engine:
        the degraded episode is over."""
        receives, unexpected = self.host.export_state()
        self.engine = self._generation(
            BlockCheckpoint(receives, unexpected, self.host.decisions.peek())
        )
        self.host = None
        self.stats.fallback_recoveries += 1
        if self.meter is not None:
            self.meter.stats.reoffloads += 1
        if self.injector is not None:
            self.recovery_stats.reoffloads += 1
        if self.recorder.enabled:
            self.recorder.event("reoffload", **detail)

    # -- guarded blocks --------------------------------------------------

    def guarded_batches(self) -> Iterator[list[MessageEnvelope]]:
        """Block-width batches off the staged queue, for as long as
        matching stays offloaded."""
        width = self.config.block_threads
        while self.staged and self.host is None:
            yield [
                self.staged.popleft() for _ in range(min(width, len(self.staged)))
            ]

    def run_guarded(self, batch: list[MessageEnvelope]) -> GuardedRun:
        """One batch, to completion: checkpoint -> attempt -> (fault?
        quarantine + rollback, then replay or take over)."""
        rs = self.recovery_stats
        policy = self.recovery_policy
        recorder = self.recorder
        attempts = hangs = 0
        while True:
            self.advance_epoch()
            checkpoint = checkpoint_engine(self.engine)
            # Speculation fence: an aborted attempt's stamps are
            # rewound so only the surviving attempt shapes the
            # waterfall; the rollback survives as an annotation.
            marks = (
                [(msg.mid, recorder.mark(msg.mid)) for msg in batch]
                if recorder.enabled
                else ()
            )
            for msg in batch:
                self.engine.submit_message(msg)
            attempts += 1
            try:
                events = self.engine.process_block()
            except (CoreFault, DeadlockError):
                fault = self.injector.take_armed()
                if fault is None:
                    # Not ours: a genuine liveness/protocol bug must
                    # surface, not be papered over by a replay.
                    raise
                self._note_fault(fault)
                if fault.kind is CoreFaultKind.HANG:
                    hangs += 1
                self.engine = self._generation(checkpoint)
                rs.block_rollbacks += 1
                for mid, mark in marks:
                    recorder.rewind(mid, mark)
                    recorder.note(
                        mid,
                        "rollback",
                        ("epoch", self.epoch, "attempt", attempts, "fault", fault.kind.value),
                    )
                if (
                    self.quarantine.count > policy.quarantine_threshold
                    or attempts >= policy.max_replays_per_block
                ):
                    rs.host_takeovers += 1
                    self.take_over("core-faults", dead=self.quarantine.count)
                    return GuardedRun(None, attempts, hangs)
                rs.blocks_replayed += 1
                rs.replay_messages += len(batch)
                continue
            if attempts > 1:
                rs.blocks_recovered += 1
            return GuardedRun(events, attempts, hangs)

    def _note_fault(self, fault) -> None:
        rs = self.recovery_stats
        if fault.kind is CoreFaultKind.FAIL_STOP:
            rs.core_fail_stops += 1
        elif fault.kind is CoreFaultKind.HANG:
            rs.core_hangs += 1
        else:
            rs.core_bit_flips += 1
        self._tell(f"fault:{fault.kind.value}", core=fault.core, thread=fault.thread)
        # Bit-flips are transient (the core itself is healthy);
        # fail-stop and hang take the core out of service.
        if fault.kind is not CoreFaultKind.BIT_FLIP:
            self.quarantine.quarantine(fault.core, self.epoch)
            rs.cores_quarantined += 1
            self._tell("quarantine", core=fault.core, dead=self.quarantine.count)

    def advance_epoch(self) -> None:
        self.epoch += 1
        if self.quarantine is None:
            return
        repaired = self.quarantine.repair_due(self.epoch)
        if repaired:
            self.recovery_stats.core_repairs += len(repaired)
            self._tell("repair", cores=repaired, dead=self.quarantine.count)

    def _tell(self, name: str, **args) -> None:
        if self._instant is not None:
            self._instant(name, args)

    # -- the parked store ------------------------------------------------

    def evict_oldest(self, detail: tuple | None = None) -> MessageEnvelope | None:
        """Park the engine's oldest unexpected message on the host.
        Eviction always takes the oldest resident entry, so everything
        parked is strictly older than everything still resident.
        ``detail`` is the ledger ``parked`` stamp's flat detail."""
        envelope = self.engine.evict_oldest_unexpected()
        if envelope is None:
            return None
        self.parked.append(envelope)
        self.meter.stats.evictions += 1
        if self.recorder.enabled:
            self.recorder.stamp(envelope.mid, "parked", detail)
        return envelope

    def search_parked(self, request: ReceiveRequest) -> MessageEnvelope | None:
        """Oldest parked envelope matching ``request``. Callers search
        here *before* the resident store — C2 across the eviction
        boundary."""
        for envelope in self.parked:
            if request.matches(envelope):
                return envelope
        return None

    def recall(self, request: ReceiveRequest, envelope: MessageEnvelope) -> MatchEvent:
        """Drain a parked evictee into a matching post."""
        self.parked.remove(envelope)
        self.meter.stats.recalls += 1
        if self.recorder.enabled:
            self.recorder.note(envelope.mid, "recall")
        self.stats.receives_posted += 1
        self.stats.receives_matched_from_unexpected += 1
        owner = self.engine if self.host is None else self.host
        return MatchEvent(
            kind=MatchKind.UNEXPECTED_DRAIN,
            message=envelope,
            receive=request,
            receive_post_label=None,
            decision_order=owner.decisions.next(),
        )
