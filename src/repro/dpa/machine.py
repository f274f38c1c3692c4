"""The Data Path Accelerator machine model (§II-C, §IV).

The BF3 DPA is "equipped with 16 cores supporting 256 threads, with
tasks executed in a run-to-completion fashion". The machine model
couples an :class:`repro.core.engine.OptimisticMatcher` with the cycle
model: every processed block is charged elapsed DPA time under the
work/span law for the configured core count, and a running clock
accumulates across blocks.

The model also accounts *host* cycles separately — the headline claim
of the paper is that offloading frees the host CPU entirely, so the
host column for the DPA configuration is just the per-message protocol
overhead, never matching work — *unless* the machine degrades.

Degraded mode (``degrade_to_host``, on by default): when the posted
working set outgrows the descriptor table (§III-B's capacity limit),
the machine no longer raises. The live state spills to a host
:class:`repro.matching.list_matcher.ListMatcher`, further traffic is
matched on the host (charged at :class:`repro.dpa.costs.HostCostModel`
rates into ``report.host_matching_cycles``), and once the host PRQ
drains below half the table capacity the state migrates back onto a
fresh engine and offloaded matching resumes. Spills, recoveries, and
host-matched messages are counted on the engine's
:class:`repro.core.stats.EngineStats`, which is carried across engine
generations so counters stay cumulative.

The migrations, the guarded-block replay loop and the parked store are
the shared mechanism of :class:`repro.recovery.supervisor.Supervisor`;
this class decides *when* (table full, no block room in the budget,
host PRQ drained and budget fits) and *prices* what happened: block
cycles over the cores still alive, wasted-attempt and hang-timeout
cycles, eviction/recall cycles, and host matching cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import EngineConfig
from repro.core.descriptor import DescriptorTableFull
from repro.core.engine import OptimisticMatcher
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent, MatchKind
from repro.core.threadsim import SchedulePolicy
from repro.dpa.costs import DpaCostModel, HostCostModel
from repro.dpa.memory import MemoryModel
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy
from repro.recovery.supervisor import Supervisor

__all__ = ["DpaMachine", "DpaRunReport"]

#: BlueField-3 DPA geometry (§II-C).
BF3_CORES = 16
BF3_THREADS = 256


@dataclass(slots=True)
class DpaRunReport:
    """Accumulated accounting of a DPA machine run."""

    blocks: int = 0
    messages: int = 0
    dpa_cycles: float = 0.0
    dpa_seconds: float = 0.0
    #: Host cycles spent on matching: 0 while fully offloaded; nonzero
    #: only for operations handled in degraded (spilled-to-host) mode.
    host_matching_cycles: float = 0.0
    #: Messages matched on the host during degraded episodes.
    host_messages: int = 0
    #: Blocks that needed at least one replay after a core fault, and
    #: the DPA cycles those wasted attempts (plus hang-watchdog
    #: timeouts) burned — charged into ``dpa_cycles`` too.
    replayed_blocks: int = 0
    replay_cycles: float = 0.0
    per_block_cycles: list[float] = field(default_factory=list)

    def mean_cycles_per_message(self) -> float:
        return self.dpa_cycles / self.messages if self.messages else 0.0


class DpaMachine:
    """A simulated on-NIC accelerator running the optimistic matcher."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        cores: int = BF3_CORES,
        cost_model: DpaCostModel | None = None,
        policy: SchedulePolicy | None = None,
        keep_history: bool = False,
        history_limit: int | None = None,
        degrade_to_host: bool = True,
        host_costs: HostCostModel | None = None,
        tracer: SpanTracer = NULL_TRACER,
        core_faults: CoreFaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        enforce_budget: bool = False,
        budget: "PressureBudget | None" = None,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        """``keep_history`` retains per-block history and cycle
        breakdowns; off by default so long runs stay memory-bounded.
        ``history_limit`` caps the retained history when it is on.
        ``tracer`` receives block and spill->recovery spans stamped on
        the DPA cycle clock.

        ``core_faults`` (optional) arms a seeded
        :class:`repro.recovery.faults.CoreFaultInjector` inside the
        engine: deliveries then stage at the machine and every block
        runs guarded — checkpointed at its boundary, quarantining the
        faulted core and replaying on survivors when a fault strikes,
        escalating to the host spill path past
        ``recovery.quarantine_threshold`` dead cores. The cycle model
        charges each aborted attempt (and the hang-watchdog timeout
        per hang) as wasted DPA cycles, and blocks are costed over the
        *surviving* core count.

        ``enforce_budget`` arms §III-E enforcement: a
        :class:`repro.pressure.budget.PressureMeter` sized from this
        machine's :class:`MemoryModel` (or the explicit ``budget``)
        charges the bin tables statically and every live descriptor /
        unexpected entry dynamically. Under pressure, posting evicts
        the coldest unexpected entries to a host parked store (charged
        ``eviction_cycles`` apiece) and recalls them on a matching
        post (``recall_cycles``); spill/recovery migrations release
        and re-charge the accounts wholesale, and recovery is gated on
        the budget fitting the returning working set."""
        self.config = config if config is not None else EngineConfig()
        if self.config.block_threads > BF3_THREADS:
            raise ValueError(
                f"block width {self.config.block_threads} exceeds the DPA's "
                f"{BF3_THREADS} hardware threads"
            )
        self.cores = cores
        self.costs = cost_model if cost_model is not None else DpaCostModel()
        self.host_costs = host_costs if host_costs is not None else HostCostModel()
        self._keep_history = keep_history
        self._history_limit = history_limit
        self.report = DpaRunReport()
        self.memory = MemoryModel(self.config.bins, self.config.max_receives)
        if recorder.enabled:
            recorder.set_clock(self.now_us)
        self.recorder = recorder
        self._tracer = tracer
        self._blocks_track = tracer.track("dpa", "blocks") if tracer.enabled else None
        self._degraded_track = (
            tracer.track("dpa", "degraded") if tracer.enabled else None
        )
        self._recovery_track = (
            tracer.track("dpa", "recovery")
            if tracer.enabled and core_faults is not None
            else None
        )
        self._degrade_to_host = degrade_to_host
        #: Migrate back once the host PRQ fits this many receives.
        self._recover_threshold = self.config.max_receives // 2
        self._replay_hist = None
        # -- §III-E budget enforcement (repro.pressure) -----------------
        self.pressure: "PressureMeter | None" = None
        if enforce_budget or budget is not None:
            if core_faults is not None:
                raise ValueError(
                    "enforce_budget and core_faults are mutually exclusive: "
                    "guarded-block checkpoint/replay does not carry the "
                    "pressure ledger across rollbacks"
                )
            from repro.pressure.budget import PressureBudget, PressureMeter

            if budget is None:
                budget = PressureBudget.from_memory_model(self.memory)
            self.pressure = PressureMeter(budget)
            self.pressure.charge_bins(self.config.bins)
        # The engine always records block stats (the cycle model needs
        # each block's thread steps to cost it); when history retention
        # is off, _cost_new_blocks truncates right after costing, so the
        # history never outlives one drain. With ``core_faults``,
        # deliveries stage at the supervisor and blocks run guarded.
        self._ladder = Supervisor(
            self.config,
            policy=policy,
            keep_history=True,
            history_limit=history_limit,
            meter=self.pressure,
            recorder=recorder,
            core_plan=core_faults,
            cores=cores,
            recovery=recovery,
            instant=self._recovery_instant if self._recovery_track is not None else None,
        )
        self.recovery_policy = self._ladder.recovery_policy
        self.recovery_stats = self._ladder.recovery_stats
        self.quarantine = self._ladder.quarantine

    def _recovery_instant(self, name: str, args: dict) -> None:
        self._tracer.instant(self._recovery_track, name, self.now_us(), args=args)

    @property
    def engine(self) -> OptimisticMatcher:
        """The current engine generation (its ``stats`` are carried)."""
        return self._ladder.engine

    @property
    def degraded(self) -> bool:
        """Whether matching is currently spilled to the host."""
        return self._ladder.host is not None

    def now_us(self) -> float:
        """The machine's simulated clock: elapsed DPA microseconds."""
        return self.costs.cycles_to_seconds(self.report.dpa_cycles) * 1e6

    def register_metrics(self, registry: MetricsRegistry, *, prefix: str = "dpa") -> None:
        """Expose this machine's accounting in a metrics registry.

        Both the run report and the engine stats are *pulled* at
        snapshot time; the stats object is carried across spill and
        recovery, so counters stay cumulative over engine generations.
        """
        registry.register_stats(f"{prefix}.report", self.report)
        registry.register_stats(f"{prefix}.engine", self.engine.stats)
        registry.gauge(
            f"{prefix}.degraded", "1 while matching is spilled to the host"
        ).set_function(lambda: 1.0 if self.degraded else 0.0)
        if self.pressure is not None:
            from repro.obs.hooks import register_pressure_metrics

            register_pressure_metrics(
                registry, self.pressure, prefix=f"{prefix}.pressure"
            )
            registry.gauge(
                f"{prefix}.parked", "unexpected entries evicted to host"
            ).set_function(lambda: float(len(self._ladder.parked)))
        if self.quarantine is not None:
            registry.register_stats(f"{prefix}.recovery", self.recovery_stats)
            registry.gauge(
                f"{prefix}.quarantined", "cores currently quarantined"
            ).set_function(lambda: float(self.quarantine.count))
            self._replay_hist = registry.histogram(
                f"{prefix}.replay_cycles",
                "wasted DPA cycles per replayed-block episode",
                buckets=(256.0, 1024.0, 4096.0, 16384.0, 65536.0),
            )

    def post_receive(self, request: ReceiveRequest) -> MatchEvent | None:
        """Host -> DPA receive-post command (QP write, §III-E).

        With ``degrade_to_host`` (the default), descriptor-table
        exhaustion spills the working set to a host list matcher
        instead of raising; the post is then handled there. With
        ``enforce_budget``, budget pressure first evicts cold
        unexpected entries to the host parked store; a post matching a
        parked entry recalls it (both charged DPA cycles).
        """
        self._maybe_recover()
        ladder = self._ladder
        if self.recorder.enabled:
            self.recorder.open_receive(
                request.handle, source=request.source, tag=request.tag
            )
        if self.pressure is not None:
            # Evict *before* searching: a just-parked entry is still
            # found below (parked precedes resident).
            while (
                ladder.host is None
                and self.pressure.under_pressure
                and self.engine.unexpected_count
            ):
                self._evict("pressure")
            parked = ladder.search_parked(request)
            if parked is not None:
                # Charged first: the ledger's recall note is stamped on
                # the cycle clock.
                self.report.dpa_cycles += self.costs.recall_cycles
                return self._record_match(ladder.recall(request, parked))
        if ladder.host is None:
            try:
                return self._record_match(self.engine.post_receive(request))
            except DescriptorTableFull:
                if not self._degrade_to_host:
                    raise
                self._spill()
        return self._record_match(self._host_post(request))

    def deliver(self, msg: MessageEnvelope) -> None:
        """A message lands in a bounce buffer; its completion entry
        will trigger a DPA thread (or, while degraded, a host match)."""
        self._maybe_recover()
        if self.recorder.enabled:
            if msg.mid < 0:
                # The machine is the earliest layer that sees this
                # message: it opens the record itself (bench/direct
                # drivers); protocol-driven flows arrive with a mid.
                msg = replace(
                    msg,
                    mid=self.recorder.open(
                        source=msg.source, tag=msg.tag, size=msg.size
                    ),
                )
            self.recorder.stamp(msg.mid, "cq")
        if self._ladder.host is not None:
            self._host_deliver(msg)
        elif self.quarantine is not None:
            # Guarded mode: batches form at the supervisor so a faulted
            # block's messages are known for replay.
            self._ladder.staged.append(msg)
        else:
            self.engine.submit_message(msg)

    def run(self) -> list[MatchEvent]:
        """Process all pending messages, charging DPA time per block.

        Events produced on the host during degraded episodes are
        returned here too, interleaved before the current backlog, so
        callers see one stream regardless of where matching ran.
        """
        events = self._ladder.drain_events()
        events.extend(self._drain_engine())
        # A mid-drain takeover routed the remaining backlog to the
        # host; surface those events in this run, not the next.
        events.extend(self._ladder.drain_events())
        self.report.dpa_seconds = self.costs.cycles_to_seconds(self.report.dpa_cycles)
        return events

    def _record_match(self, event: MatchEvent | None) -> MatchEvent | None:
        """Stamp resolution + completion for a resolved match. The
        machine is the last layer in direct-drive runs (bench, fleet);
        the engine's own ``matched`` stamp dedupes against this one."""
        if event is None or not self.recorder.enabled:
            return event
        if event.kind is not MatchKind.STORED_UNEXPECTED and event.receive is not None:
            mid = event.message.mid
            self.recorder.stamp(mid, "matched")
            self.recorder.complete(mid, event.receive.handle)
        return event

    # -- draining and costing -------------------------------------------

    def _drain_engine(self) -> list[MatchEvent]:
        """Run the engine until idle, charging DPA time per block."""
        events: list[MatchEvent] = []
        ladder = self._ladder
        if self.quarantine is not None:
            for batch in ladder.guarded_batches():
                events.extend(self._guarded_block(batch))
            while ladder.staged:
                self._host_deliver(ladder.staged.popleft())
            return events
        while self.engine.pending_messages:
            if self.pressure is not None and not self._reserve_block_room():
                # Even a fully-evicted unexpected store leaves no room
                # for the next block's stores: the budget cannot hold
                # this working set. The host adopts it (§III-E), and
                # the remaining message backlog with it.
                backlog = self.engine.take_pending()
                ladder.take_over("budget")
                self._begin_degraded("takeover", budget=True)
                for msg in backlog:
                    self._host_deliver(msg)
                break
            start = len(self.engine.stats.block_history)
            block_events = self.engine.process_block()
            self._cost_new_blocks(start)
            # Completion is stamped *after* costing so the ledger sees
            # the block's end-of-span clock.
            for event in block_events:
                self._record_match(event)
            events.extend(block_events)
        return events

    def _cost_new_blocks(self, start: int) -> float:
        """Charge DPA time for ``block_history[start:]``; returns the
        cycles charged. Blocks run on the cores currently alive — a
        thinned quarantine set stretches each block's span."""
        charged = 0.0
        alive = self.cores if self.quarantine is None else max(
            1, self.cores - self.quarantine.count
        )
        for block in self.engine.stats.block_history[start:]:
            cycles = self.costs.block_cycles(block, alive)
            charged += cycles
            started_us = self.now_us()
            self.report.blocks += 1
            self.report.messages += block.messages
            self.report.dpa_cycles += cycles
            if self._keep_history:
                self.report.per_block_cycles.append(cycles)
                if (
                    self._history_limit is not None
                    and len(self.report.per_block_cycles) > self._history_limit
                ):
                    del self.report.per_block_cycles[
                        : len(self.report.per_block_cycles) - self._history_limit
                    ]
            if self._blocks_track is not None:
                self._tracer.complete(
                    self._blocks_track,
                    "block",
                    started_us,
                    self.now_us() - started_us,
                    args={
                        "messages": block.messages,
                        "conflicts": block.conflicts,
                        "fast": block.fast_path,
                        "slow": block.slow_path,
                        "cycles": cycles,
                        "cores": alive,
                    },
                )
                if block.slow_path:
                    self._tracer.instant(
                        self._blocks_track,
                        "slow_path",
                        self.now_us(),
                        args={"count": block.slow_path},
                    )
        if not self._keep_history:
            # History was only needed to cost the new blocks.
            del self.engine.stats.block_history[start:]
        return charged

    def _guarded_block(self, batch: list[MessageEnvelope]) -> list[MatchEvent]:
        """One staged batch to completion under the fault injector,
        then cost the surviving attempt and what the aborted ones
        wasted."""
        start = len(self.engine.stats.block_history)
        run = self._ladder.run_guarded(batch)
        if run.events is None:
            # Too many dead cores (or an unkillable batch): the batch
            # is matched on the host instead.
            self._begin_degraded("takeover", takeover=True, dead=self.quarantine.count)
            for msg in batch:
                self._host_deliver(msg)
            return []
        block_cycles = self._cost_new_blocks(start)
        if run.attempts > 1:
            # Each aborted attempt burned about one block's work on
            # the then-alive cores; hangs additionally sat out the
            # stall watchdog's timeout before detection.
            wasted = (
                (run.attempts - 1) * block_cycles
                + run.hangs * self.recovery_policy.hang_timeout_cycles
            )
            self.report.dpa_cycles += wasted
            self.report.replay_cycles += wasted
            self.report.replayed_blocks += 1
            if self._replay_hist is not None:
                self._replay_hist.observe(wasted)
            if self._recovery_track is not None:
                self._recovery_instant(
                    "replayed", {"attempts": run.attempts, "wasted_cycles": wasted}
                )
        for event in run.events:
            self._record_match(event)
        return run.events

    # -- §III-E budget enforcement (repro.pressure) ---------------------

    def _evict(self, cause: str) -> None:
        """Park the oldest unexpected entry on the host. Charged first:
        the ledger's ``parked`` stamp is on the cycle clock."""
        self.report.dpa_cycles += self.costs.eviction_cycles
        self._ladder.evict_oldest(("cause", cause))

    def _reserve_block_room(self) -> bool:
        """Make headroom for the next block's worst case (every message
        stores unexpected), evicting cold entries as needed. Returns
        whether the block can run within budget."""
        from repro.pressure.budget import UNEXPECTED_HEADER_BYTES

        width = min(self.engine.pending_messages, self.config.block_threads)
        need = UNEXPECTED_HEADER_BYTES * width
        while self.pressure.headroom() < need and self.engine.unexpected_count:
            self._evict("block-room")
        return self.pressure.headroom() >= need

    # -- degraded mode --------------------------------------------------

    def _begin_degraded(self, mark: str, **args) -> None:
        if self._degraded_track is not None:
            self._tracer.begin(
                self._degraded_track, "degraded", self.now_us(), args=args
            )
            self._tracer.instant(self._degraded_track, mark, self.now_us())

    def _spill(self) -> None:
        """Descriptor table full: migrate the working set to the host."""
        # Settle buffered messages first so the exported state is the
        # engine's final word; their events still surface via run().
        self._ladder.events.extend(self._drain_engine())
        if self._ladder.host is not None:
            # A core takeover during the drain already migrated.
            return
        self._ladder.take_over("descriptor-spill")
        self._begin_degraded("spill", spill=self.engine.stats.fallback_spills)

    def _maybe_recover(self) -> None:
        """Migrate back to the accelerator once the host set drained
        (and, in core-fault mode, once enough cores repaired)."""
        host = self._ladder.host
        if host is None or host.posted_count > self._recover_threshold:
            return
        if (
            self.quarantine is not None
            and self.quarantine.count > self.recovery_policy.quarantine_threshold
        ):
            return  # the accelerator is still not trustworthy
        if self.pressure is not None and not self._budget_fits_recovery():
            return  # the budget cannot absorb the returning set yet
        self._ladder.reoffload()
        if self._degraded_track is not None:
            self._tracer.instant(self._degraded_track, "recovery", self.now_us())
            self._tracer.end(self._degraded_track, self.now_us())

    def _budget_fits_recovery(self) -> bool:
        if self.pressure.under_pressure:  # pragma: no cover - spilled set
            return False
        from repro.core.descriptor import DESCRIPTOR_BYTES
        from repro.pressure.budget import UNEXPECTED_HEADER_BYTES

        host = self._ladder.host
        need = (
            host.posted_count * DESCRIPTOR_BYTES
            + host.unexpected_count * UNEXPECTED_HEADER_BYTES
        )
        return self.pressure.would_fit(need)

    def _host_post(self, request: ReceiveRequest) -> MatchEvent | None:
        host = self._ladder.host
        before = host.costs.walked
        event = host.post_receive(request)
        walked = host.costs.walked - before
        self.report.host_matching_cycles += (
            self.host_costs.per_post_overhead + walked * self.host_costs.chain_walk
        )
        return event

    def _host_deliver(self, msg: MessageEnvelope) -> None:
        ladder = self._ladder
        before = ladder.host.costs.walked
        event = ladder.host_deliver(msg)
        walked = ladder.host.costs.walked - before
        stored = event.kind is MatchKind.STORED_UNEXPECTED
        self.report.host_matching_cycles += self.host_costs.matching_cycles(
            1, walked, unexpected=int(stored)
        )
        self.report.host_messages += 1
        if stored:
            if self.recorder.enabled:
                self.recorder.stamp(msg.mid, "umq", ("host", True))
        else:
            self._record_match(event)
        ladder.events.append(event)
