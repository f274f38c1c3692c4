"""The recovering matcher: block replay, quarantine, host takeover.

:class:`RecoveringMatcher` drives an optimistic engine through the
pipeline matcher interface (``post_receive`` / ``submit_message`` /
``process_all`` — what :class:`repro.rdma.protocol.RdmaReceiver`
expects) while surviving seeded core faults. It is the core-fault
front-end of the degradation ladder; the mechanism — staging, the
checkpoint/replay loop, quarantine, the two migrations — is
:class:`repro.recovery.supervisor.Supervisor`'s:

1. Incoming messages stage at the supervisor; each block's batch is
   therefore known *before* the engine sees it.
2. Every block runs guarded (:meth:`Supervisor.run_guarded`): a core
   fault rolls the block back and replays it on the surviving cores.
3. When quarantined cores exceed ``RecoveryPolicy.quarantine_threshold``
   (or one batch exhausts ``max_replays_per_block``), matching
   escalates to a host :class:`ListMatcher` takeover. *This class's
   policy* is the way back: once cores repair and the host working set
   drains below ``reoffload_fraction`` of the table, state migrates
   back onto a fresh engine and offloaded matching resumes.

``tests/recovery`` asserts the pairings equal a fault-free run's,
bit for bit.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.descriptor import DescriptorTableFull
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent
from repro.core.threadsim import SchedulePolicy
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy
from repro.recovery.supervisor import Supervisor

__all__ = ["RecoveringMatcher"]

#: Default core count (BlueField-3 DPA geometry, §II-C).
DEFAULT_CORES = 16


class RecoveringMatcher:
    """Optimistic engine wrapped in the core-fault recovery loop."""

    name = "optimistic+recovery"

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        policy: SchedulePolicy | None = None,
        comm: int = 0,
        cores: int = DEFAULT_CORES,
        core_plan: CoreFaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        engine_cls: type[OptimisticMatcher] = OptimisticMatcher,
        observer=None,
        keep_history: bool = False,
        history_limit: int | None = None,
        tracer: SpanTracer = NULL_TRACER,
        clock=None,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        """``engine_cls`` selects the engine generation class (the
        mutant lanes of the core-fault soak pass deliberately broken
        subclasses here). ``clock`` supplies timestamps for recovery
        trace spans (defaults to the epoch counter)."""
        self.config = config if config is not None else EngineConfig()
        self.core_plan = core_plan if core_plan is not None else CoreFaultPlan.clean()
        self._tracer = tracer
        self._track = tracer.track("recovery", "cores") if tracer.enabled else None
        self._ladder = Supervisor(
            self.config,
            engine_cls=engine_cls,
            policy=policy,
            comm=comm,
            observer=observer,
            keep_history=keep_history,
            history_limit=history_limit,
            recorder=recorder,
            core_plan=self.core_plan,
            cores=cores,
            recovery=recovery,
            instant=self._instant if tracer.enabled else None,
        )
        self.recovery_policy = self._ladder.recovery_policy
        self.quarantine = self._ladder.quarantine
        self.injector = self._ladder.injector
        #: One stats object carried across every engine generation.
        self.stats = self._ladder.stats
        self.recovery_stats = self._ladder.recovery_stats
        self._now = clock if clock is not None else (lambda: float(self._ladder.epoch))
        self._replay_hist = None

    def _instant(self, name: str, args: dict) -> None:
        self._tracer.instant(self._track, name, self._now(), args=args)

    # -- observability --------------------------------------------------

    def register_metrics(self, registry, *, prefix: str = "recovery") -> None:
        """Expose recovery accounting in a metrics registry: pulled
        counters, live quarantine/degraded gauges, and a histogram of
        replay attempts per recovered block."""
        registry.register_stats(prefix, self.recovery_stats)
        registry.gauge(
            f"{prefix}.quarantined", "cores currently quarantined"
        ).set_function(lambda: float(self.quarantine.count))
        registry.gauge(
            f"{prefix}.quarantined_peak", "most cores ever dead at once"
        ).set_function(lambda: float(self.quarantine.peak))
        registry.gauge(
            f"{prefix}.degraded", "1 while matching is taken over by the host"
        ).set_function(lambda: 1.0 if self.degraded else 0.0)
        self._replay_hist = registry.histogram(
            f"{prefix}.replay_attempts",
            "block attempts needed per recovered block",
            buckets=(1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0),
        )

    @property
    def engine(self) -> OptimisticMatcher:
        """The current engine generation (changes across rollbacks)."""
        return self._ladder.engine

    @property
    def degraded(self) -> bool:
        """Whether matching is currently taken over by the host."""
        return self._ladder.host is not None

    @property
    def posted_count(self) -> int:
        return self._ladder.posted_count

    @property
    def unexpected_count(self) -> int:
        return self._ladder.unexpected_count

    @property
    def pending_messages(self) -> int:
        return len(self._ladder.staged)

    def queue_depths(self) -> dict[str, float]:
        return self._ladder.queue_depths()

    # -- pipeline matcher interface -------------------------------------

    def post_receive(self, request: ReceiveRequest) -> MatchEvent | None:
        self._maybe_reoffload()
        ladder = self._ladder
        if ladder.host is None:
            try:
                return ladder.engine.post_receive(request)
            except DescriptorTableFull:
                # Resource pressure escalates through the same takeover
                # path as core loss (PR 1's spill contract).
                self.recovery_stats.host_takeovers += 1
                ladder.take_over("core-faults", dead=self.quarantine.count)
                self._trace_takeover()
        return ladder.host.post_receive(request)

    def submit_message(self, msg: MessageEnvelope) -> None:
        """Stage a message; batches form at ``process_all`` time so a
        faulted block's batch is known for rollback and replay."""
        self._ladder.staged.append(msg)

    def process_all(self) -> list[MatchEvent]:
        ladder = self._ladder
        events = ladder.drain_events()
        self._maybe_reoffload()
        for batch in ladder.guarded_batches():
            events.extend(self._run_block(batch))
        while ladder.staged:
            self._host_deliver(ladder.staged.popleft())
        events.extend(ladder.drain_events())
        return events

    def _run_block(self, batch: list[MessageEnvelope]) -> list[MatchEvent]:
        run = self._ladder.run_guarded(batch)
        if run.events is None:
            # Quarantine exceeded the threshold (or the batch would not
            # stop faulting): the batch is matched on the host instead.
            self._trace_takeover()
            for msg in batch:
                self._host_deliver(msg)
            return []
        if run.attempts > 1:
            if self._replay_hist is not None:
                self._replay_hist.observe(float(run.attempts))
            if self._track is not None:
                self._instant(
                    "replayed", {"attempts": run.attempts, "messages": len(batch)}
                )
        return run.events

    def _host_deliver(self, msg: MessageEnvelope) -> None:
        self._ladder.events.append(self._ladder.host_deliver(msg))

    def _trace_takeover(self) -> None:
        if self._track is not None:
            self._tracer.begin(
                self._track,
                "takeover",
                self._now(),
                args={
                    "dead": self.quarantine.count,
                    "posted": self._ladder.host.posted_count,
                },
            )

    def _maybe_reoffload(self) -> None:
        """Migrate back once cores repaired and the host set drained."""
        host = self._ladder.host
        if host is None:
            return
        if self.quarantine.count > self.recovery_policy.quarantine_threshold:
            return
        limit = int(
            self.config.max_receives * self.recovery_policy.reoffload_fraction
        )
        if host.posted_count > limit:
            return
        self._ladder.reoffload(reason="core-faults")
        if self._track is not None:
            self._tracer.instant(self._track, "reoffload", self._now())
            self._tracer.end(self._track, self._now())
