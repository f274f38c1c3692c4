"""End-to-end chaos schedules over the lossy transport.

One chaos run builds the complete receive pipeline on a faulty wire
and drives it with a seeded schedule of rounds; each round posts a few
receives (a mix of exact and wildcard envelopes), sends a few messages
from multiple sender ranks (eager and rendezvous sizes), then pumps
the link to quiescence. A final cleanup phase posts fully-wildcard
receives for whatever is still parked unexpected, so every sent
message must surface as exactly one :class:`repro.rdma.protocol.Delivery`.

Correctness is judged two ways:

* **Exactly-once** — the multiset of delivered payload identities
  equals the multiset sent: nothing lost to a drop, nothing delivered
  twice from a duplicate or retransmission.
* **Oracle pairing** — the same post/send schedule is replayed through
  the serial :class:`repro.matching.list_matcher.ListMatcher`; each
  message must land in the same receive ``handle`` on both sides.
  The phase structure (pump to quiescence between rounds) makes the
  oracle's op interleaving well-defined even though the transport
  reorders frames internally.

Everything is derived from ``ChaosConfig.seed`` via
:func:`repro.util.rng.make_rng`: the schedule, the payload sizes, and
the wire's fault pattern. Same seed, same report — including runs that
end in :class:`repro.rdma.reliability.TransportError`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.core.config import EngineConfig
from repro.core.envelope import ANY_SOURCE, ANY_TAG, ReceiveRequest
from repro.core.faults import engine_by_name
from repro.core.threadsim import DeadlockError
from repro.matching.fallback import FallbackMatcher
from repro.obs.hooks import (
    DegradedWindowWatcher,
    EngineTraceObserver,
    PressureWindowWatcher,
)
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.obs.timeline import NULL_SAMPLER, TimelineSampler, install_stack_probes
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.pressure.budget import PressureBudget, PressureMeter
from repro.pressure.controller import PressuredPipeline
from repro.rdma.bounce import BounceBufferPool
from repro.rdma.cq import CompletionQueue
from repro.rdma.faultwire import FaultPlan, FaultyWire
from repro.rdma.protocol import RdmaReceiver, RdmaSender, pump
from repro.rdma.qp import QueuePair
from repro.rdma.reliability import (
    ReliabilityConfig,
    ReliableWire,
    TransportError,
)
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy
from repro.recovery.recoverer import RecoveringMatcher
from repro.recovery.watchdog import PairingOracle
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "config_from_params",
    "config_to_params",
    "run_chaos",
]


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """One seeded chaos schedule (schedule + faults + resources)."""

    seed: int = 0
    #: Sender ranks sharing the tx endpoint.
    senders: int = 3
    rounds: int = 6
    #: Inclusive bounds on posts/sends per round.
    max_posts_per_round: int = 4
    max_sends_per_round: int = 4
    tags: int = 5
    #: Probability a posted receive wildcards its source / its tag.
    wildcard_rate: float = 0.25
    #: Probability a payload exceeds the eager threshold (rendezvous).
    rndv_rate: float = 0.2
    eager_threshold: int = 64
    #: Fault schedule for the wire (seeded from ``seed`` when the
    #: plan's own seed is left at 0).
    plan: FaultPlan = field(default_factory=FaultPlan)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    #: Receiver NIC resources; undersize them to exercise degradation.
    bounce_buffers: int = 64
    cq_depth: int = 256
    host_spill: bool = False
    max_receives: int = 256
    block_threads: int = 8
    pump_rounds: int = 4096
    #: Match through a *recoverable* :class:`FallbackMatcher` instead
    #: of a bare engine: descriptor-table overflow spills to software
    #: and drains back, exercising multiple engine generations.
    fallback: bool = False
    #: Accelerator core faults (fail-stop / hang / bit-flip), seeded
    #: from ``seed`` when the plan's own seed is left at 0. A non-clean
    #: plan routes matching through a
    #: :class:`repro.recovery.recoverer.RecoveringMatcher`.
    core_plan: CoreFaultPlan = field(default_factory=CoreFaultPlan)
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Simulated DPA cores available to the recovering matcher.
    cores: int = 16
    #: Engine implementation: ``"optimistic"`` or a mutant name from
    #: :data:`repro.core.faults.MUTANT_ENGINES` (soak lanes proving the
    #: watchdog catches planted bugs run the mutants here).
    engine: str = "optimistic"
    #: Run the online pairing watchdog at every round boundary instead
    #: of only the post-hoc oracle replay.
    watchdog: bool = False
    #: Enforce the §III-E DPA memory budget at runtime: matching runs
    #: through a :class:`repro.pressure.controller.PressuredPipeline`
    #: (admission control, eviction, host takeover), eager sends demote
    #: to rendezvous under pressure, and bounce allocation charges the
    #: meter.
    pressure: bool = False
    #: Budget for pressure mode: 0 selects the paper's §III-E model
    #: (128 bins + 8K receives ≈ 520 KiB), -1 is unlimited (books kept,
    #: enforcement never triggers), any positive value is explicit bytes.
    budget_bytes: int = 0

    def __post_init__(self) -> None:
        engine_by_name(self.engine)  # raises KeyError on unknown names
        if self.fallback and not self.core_plan.is_clean:
            raise ValueError(
                "fallback mode and core faults are mutually exclusive: the "
                "FallbackMatcher pipeline has no core-recovery loop "
                "(core faults route through RecoveringMatcher instead)"
            )
        if self.fallback and self.engine != "optimistic":
            raise ValueError("fallback mode only supports the optimistic engine")
        if self.pressure and self.fallback:
            raise ValueError(
                "pressure mode and fallback mode are mutually exclusive: the "
                "pressure pipeline has its own takeover/re-offload ladder"
            )
        if self.pressure and not self.core_plan.is_clean:
            raise ValueError(
                "pressure mode and core faults are mutually exclusive: the "
                "pressure pipeline has no core-recovery loop"
            )
        if self.budget_bytes < -1:
            raise ValueError(
                f"budget_bytes must be -1 (unlimited), 0 (paper §III-E) or "
                f"positive, got {self.budget_bytes}"
            )


def config_to_params(config: ChaosConfig) -> dict:
    """Flatten a :class:`ChaosConfig` into pure JSON literals.

    The inverse of :func:`config_from_params`; used to ship chaos runs
    across the :mod:`repro.fleet` worker boundary and to key the
    content-addressed result cache.
    """
    return asdict(config)


def config_from_params(params: Mapping[str, Any]) -> ChaosConfig:
    """Rebuild a :class:`ChaosConfig` from :func:`config_to_params` output."""
    payload = dict(params)
    plan = FaultPlan(**payload.pop("plan", {}))
    reliability = ReliabilityConfig(**payload.pop("reliability", {}))
    core_plan = CoreFaultPlan(**payload.pop("core_plan", {}))
    recovery = RecoveryPolicy(**payload.pop("recovery", {}))
    return ChaosConfig(
        plan=plan,
        reliability=reliability,
        core_plan=core_plan,
        recovery=recovery,
        **payload,
    )


@dataclass(slots=True)
class ChaosReport:
    """Observable outcome of one chaos run."""

    SCHEMA = "repro.chaos.report/v5"

    seed: int
    sent: int = 0
    delivered: int = 0
    #: Payload identities delivered more than once (must stay empty).
    duplicates: list[str] = field(default_factory=list)
    #: Payload identities never delivered (must stay empty).
    missing: list[str] = field(default_factory=list)
    #: ``payload id: got handle X, oracle says Y`` divergences.
    mismatches: list[str] = field(default_factory=list)
    #: The run ended in TransportError (retry budget exhausted).
    transport_failed: bool = False
    transport_error: str = ""
    # -- transport / degradation accounting --------------------------
    retransmits: int = 0
    rnr_naks: int = 0
    faults_injected: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0
    host_spills: int = 0
    degraded_stagings: int = 0
    #: Engine-generation boundaries (fallback mode): descriptor-table
    #: spills to software and migrations back onto a fresh engine.
    fallback_spills: int = 0
    fallback_recoveries: int = 0
    #: Reliability counters as *mirrored onto the carried engine
    #: stats* — must equal the wire's own cumulative counts even when
    #: the run spans several engine generations.
    engine_retransmits: int = 0
    engine_rnr_naks: int = 0
    # -- core-fault recovery accounting (schema v2) -------------------
    core_fail_stops: int = 0
    core_hangs: int = 0
    core_bit_flips: int = 0
    block_rollbacks: int = 0
    blocks_replayed: int = 0
    cores_quarantined: int = 0
    core_repairs: int = 0
    host_takeovers: int = 0
    reoffloads: int = 0
    #: Online watchdog comparisons performed (round boundaries).
    watchdog_checks: int = 0
    # -- memory-pressure accounting (schema v3) -----------------------
    #: Effective budget in bytes (-1 = unlimited; 0 = pressure off).
    budget_bytes: int = 0
    #: High-water mark of total charged bytes across all accounts.
    peak_charged_bytes: int = 0
    #: Times charge() would have exceeded the budget (must stay 0: the
    #: admission/eviction/RNR machinery keeps enforcement bloodless).
    budget_overruns: int = 0
    #: Eager sends demoted to rendezvous by the pressure probe.
    demotions: int = 0
    #: Unexpected entries evicted to the host parked store / recalled.
    evictions: int = 0
    recalls: int = 0
    #: Posts deferred by admission control.
    posts_deferred: int = 0
    #: Credit grants withheld while pressured (flow-control shrink).
    credit_holds: int = 0
    #: Hysteresis transitions into / out of the pressured band.
    pressure_entries: int = 0
    pressure_exits: int = 0
    #: Sustained-pressure host takeovers and re-offloads.
    pressure_takeovers: int = 0
    pressure_reoffloads: int = 0
    #: First matching-invariant violation (oracle divergence), with
    #: where it was caught: the round (-1 = post-hoc only) and the
    #: engine block counter at detection. Satellite (a): a nonzero
    #: lane failure is attributable from the report alone — rerun the
    #: seed, look at this block.
    first_violation: str = ""
    first_violation_round: int = -1
    first_violation_block: int = -1
    #: The engine itself crashed (internal assertion / deadlock) — the
    #: expected detection mode for some mutants.
    engine_failed: bool = False
    engine_error: str = ""
    # -- flight-recorder passport (schema v4) -------------------------
    #: Full lifecycle record of the first violating message (empty when
    #: no recorder was attached or the run was clean): the message's
    #: :meth:`repro.obs.ledger.MessageRecord.to_dict` dump, so a soak
    #: failure ships the exact phase history of the message that broke.
    passport: dict = field(default_factory=dict)
    # -- rank fault-tolerance accounting (schema v5) -------------------
    #: Whole-rank fail-stop kills injected by the RankFaultPlan.
    rank_kills: int = 0
    #: Distinct killed ranks the heartbeat detector flagged.
    rank_failures_detected: int = 0
    #: Suspicions of ranks that were alive (must stay 0: the detector's
    #: no-false-positive contract on a fault-free / congested fabric).
    rank_false_suspicions: int = 0
    #: Failed ranks revived from their coordinated checkpoint.
    rank_restarts: int = 0
    #: Communicator shrinks agreed by the survivors.
    comm_shrinks: int = 0
    #: Outstanding receives failed with RankFailedError on detection.
    rank_failed_recvs: int = 0
    #: Worst kill -> suspicion gap observed, in fabric ticks (bounded
    #: by ``timeout + max_route_rtt``).
    rank_detection_latency_max: int = 0
    #: Ticks spent in aborted epochs + agreement rounds (repair cost).
    rank_recovery_ticks: int = 0
    #: Aborts triggered by the stall / transport backstops instead of
    #: heartbeat suspicion (the mutant lanes' detection signal).
    rank_backstop_aborts: int = 0

    @property
    def ok(self) -> bool:
        """Exactly-once delivery with oracle-identical pairing."""
        return (
            not self.transport_failed
            and not self.engine_failed
            and not self.duplicates
            and not self.missing
            and not self.mismatches
            and not self.first_violation
            and self.delivered == self.sent
        )

    @property
    def detected_violation(self) -> bool:
        """Whether validation caught a matching bug (mutant lanes
        assert this is True; real-engine lanes assert it is False)."""
        return bool(self.first_violation or self.engine_failed or self.mismatches)

    # -- JSON round-trip (fleet cache / parallel workers) ---------------

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.__dataclass_fields__}
        for name in ("duplicates", "missing", "mismatches"):
            payload[name] = list(payload[name])
        payload["passport"] = dict(payload["passport"])
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChaosReport":
        return cls(**{k: payload[k] for k in cls.__dataclass_fields__ if k in payload})

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(
            {"schema": self.SCHEMA, **self.to_dict()}, indent=indent, sort_keys=True
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ChaosReport":
        payload = json.loads(text)
        schema = payload.get("schema", cls.SCHEMA)
        if schema != cls.SCHEMA:
            raise ValueError(f"unsupported schema {schema!r}, expected {cls.SCHEMA!r}")
        return cls.from_dict(payload)


def _identity(payload: bytes) -> str:
    """Recover the ``src:seq`` identity from a (padded) payload."""
    return payload.rstrip(b".").decode()


def run_chaos(
    config: ChaosConfig,
    *,
    tracer: SpanTracer = NULL_TRACER,
    recorder: FlightRecorder = NULL_RECORDER,
    sampler: TimelineSampler = NULL_SAMPLER,
) -> ChaosReport:
    """Execute one seeded schedule; never raises on transport failure
    (the report carries it) so soak loops survive hostile fault plans.

    ``tracer`` (optional) receives the run's simulated-time spans — RC
    retransmit/RNR windows on the wire-tick clock, engine block spans,
    and spill->recovery windows — all stamped with the reliability
    layer's tick clock so one Perfetto timeline covers the stack.

    ``recorder`` (optional) attaches a :class:`repro.obs.ledger.FlightRecorder`
    to every layer: each sent message gets a lifecycle record stamped
    on the wire-tick clock (send -> wire -> staged -> cq -> engine ->
    matched -> complete, plus umq/parked detours and retransmit /
    rollback annotations), keyed back to the schedule by its
    ``rank:seq`` identity. When a run detects a violation, the first
    violating message's full record ships in ``report.passport``.

    ``sampler`` (optional) turns the run into a continuous-telemetry
    source: the standard stack probes (queue depths, conflict
    fraction, spill state, pressure gauges, retransmit counters) are
    installed and polled on the wire-tick clock at every round
    boundary — the input the :mod:`repro.obs.health` rules watch.
    """
    rng = make_rng(config.seed)
    plan = config.plan
    if plan.seed == 0 and config.seed != 0:
        plan = plan.with_options(seed=config.seed)
    core_plan = config.core_plan
    if core_plan.seed == 0 and config.seed != 0:
        # A distinct stream from the wire plan's, so wire and core
        # fault schedules stay independent under one run seed.
        core_plan = core_plan.with_options(seed=derive_seed(config.seed, "cores"))

    meter: PressureMeter | None = None
    if config.pressure:
        if config.budget_bytes == -1:
            budget = PressureBudget.unlimited()
        elif config.budget_bytes == 0:
            budget = PressureBudget.paper_iii_e()
        else:
            budget = PressureBudget(budget_bytes=config.budget_bytes)
        meter = PressureMeter(budget)

    raw = FaultyWire("tx", "rx", plan=plan)
    wire = ReliableWire(
        raw, config=config.reliability, tracer=tracer, recorder=recorder
    )
    rx_qp = QueuePair(
        wire,
        "rx",
        cq=CompletionQueue(config.cq_depth),
        bounce_pool=BounceBufferPool(config.bounce_buffers, pressure=meter),
        host_spill=config.host_spill,
        recorder=recorder,
    )
    tx_qp = QueuePair(wire, "tx")
    engine_config = EngineConfig(
        max_receives=config.max_receives, block_threads=config.block_threads
    )
    clock = lambda: float(wire.now)  # noqa: E731 - one shared sim clock
    if recorder.enabled:
        recorder.set_clock(clock)
    observer = (
        EngineTraceObserver(tracer, clock, process="engine")
        if tracer.enabled
        else None
    )
    engine_cls = engine_by_name(config.engine)
    if config.pressure:
        assert meter is not None
        matcher = PressuredPipeline(
            engine_config,
            meter,
            observer=observer,
            engine_cls=engine_cls,
            recorder=recorder,
        )
    elif config.fallback:
        matcher = FallbackMatcher(engine_config, recoverable=True, observer=observer)
        matcher.set_recorder(recorder)
    elif not core_plan.is_clean:
        matcher = RecoveringMatcher(
            engine_config,
            cores=config.cores,
            core_plan=core_plan,
            recovery=config.recovery,
            engine_cls=engine_cls,
            observer=observer,
            tracer=tracer,
            clock=clock,
            recorder=recorder,
        )
    else:
        matcher = engine_cls(engine_config, observer=observer)
        if recorder.enabled:
            matcher.set_recorder(recorder)
    watcher = (
        DegradedWindowWatcher(tracer, matcher.stats, clock)
        if tracer.enabled
        else None
    )
    pwatcher = (
        PressureWindowWatcher(tracer, meter.stats, clock)
        if tracer.enabled and meter is not None
        else None
    )
    receiver = RdmaReceiver(rx_qp, matcher, recorder=recorder)
    if sampler.enabled:
        install_stack_probes(
            sampler,
            matcher=matcher,
            engine_stats=matcher.stats,
            wire=wire,
            raw_wire=raw,
            meter=meter,
            receiver=receiver,
        )
        sampler.poll(clock())
    demote_probe = None
    if config.pressure:
        matcher.bind_transport(receiver)
        demote_probe = matcher.should_demote
    senders = [
        RdmaSender(
            tx_qp,
            rank,
            eager_threshold=config.eager_threshold,
            demote_probe=demote_probe,
            recorder=recorder,
        )
        for rank in range(config.senders)
    ]

    report = ChaosReport(seed=config.seed)
    # Live shadow oracle, fed in pipeline-observation order — the same
    # serial order the old post-hoc replay used, but incrementally, so
    # the online watchdog can diff deliveries at every round boundary.
    oracle = PairingOracle()
    sent_idents: list[str] = []
    #: Deliveries already cross-checked online / idents already flagged
    #: (so the post-hoc sweep does not double-report them).
    checked = 0
    flagged: set[str] = set()
    #: Identity of the first-violation message (passport lookup key).
    violation_ident: list[str] = []
    handle = 0
    seq = 0

    def post_one(source: int, tag: int) -> None:
        nonlocal handle
        request = ReceiveRequest(source=source, tag=tag, handle=handle)
        handle += 1
        receiver.post_receive(request)
        oracle.post(request)

    def send_one(rank: int, tag: int, size: int) -> None:
        nonlocal seq
        ident = f"{rank}:{seq}"
        seq += 1
        payload = ident.encode().ljust(size, b".")
        header = senders[rank].send(tag, payload)
        if recorder.enabled and header.mid >= 0:
            recorder.label(header.mid, ident)
        sent_idents.append(ident)
        oracle.message(ident, rank, tag)

    def watchdog_check(round_index: int) -> None:
        """Cross-check every not-yet-checked delivery against the
        oracle. Runs at transport quiescence, where a divergence is
        genuine and stable (the reliable wire delivers in send order,
        so pipeline and oracle have observed identical op prefixes)."""
        nonlocal checked
        report.watchdog_checks += 1
        while checked < len(receiver.completed):
            delivery = receiver.completed[checked]
            checked += 1
            ident = _identity(delivery.payload)
            diff = oracle.divergence(ident, delivery.handle)
            if diff is None:
                continue
            flagged.add(ident)
            report.mismatches.append(diff)
            if not report.first_violation:
                report.first_violation = diff
                report.first_violation_round = round_index
                report.first_violation_block = matcher.stats.blocks
                violation_ident.append(ident)

    try:
        for round_index in range(config.rounds):
            for _ in range(int(rng.integers(0, config.max_posts_per_round + 1))):
                source = (
                    ANY_SOURCE
                    if rng.random() < config.wildcard_rate
                    else int(rng.integers(0, config.senders))
                )
                tag = (
                    ANY_TAG
                    if rng.random() < config.wildcard_rate
                    else int(rng.integers(0, config.tags))
                )
                post_one(source, tag)
            for _ in range(int(rng.integers(1, config.max_sends_per_round + 1))):
                rank = int(rng.integers(0, config.senders))
                tag = int(rng.integers(0, config.tags))
                if rng.random() < config.rndv_rate:
                    size = config.eager_threshold + int(rng.integers(1, 64))
                else:
                    size = int(rng.integers(8, config.eager_threshold))
                send_one(rank, tag, size)
            pump(receiver, tx_qp, max_rounds=config.pump_rounds)
            if watcher is not None:
                watcher.poll()
            if pwatcher is not None:
                pwatcher.poll()
            if sampler.enabled:
                sampler.poll(clock())
            if config.watchdog:
                watchdog_check(round_index)
        # Cleanup: drain whatever is still parked unexpected so every
        # sent message must surface as exactly one delivery.
        outstanding = len(sent_idents) - len(receiver.completed)
        for _ in range(outstanding):
            post_one(ANY_SOURCE, ANY_TAG)
        if config.pressure:
            # End-of-run fence: force any admission-deferred posts in,
            # escalating to host matching if eviction cannot make room,
            # so the exactly-once audit below never blames backpressure.
            matcher.drain_deferred()
        pump(receiver, tx_qp, max_rounds=config.pump_rounds)
        if sampler.enabled:
            sampler.sample(clock())  # final sample regardless of interval
        if config.watchdog:
            watchdog_check(config.rounds)
    except TransportError as exc:
        report.transport_failed = True
        report.transport_error = str(exc)
    except (AssertionError, DeadlockError) as exc:
        # The engine itself tripped — an internal invariant assertion
        # (double consume) or an unattributed stall. For mutant lanes
        # this *is* the detection; for the real engine it fails the run.
        report.engine_failed = True
        report.engine_error = f"{type(exc).__name__}: {exc}"
    if watcher is not None:
        watcher.poll()
        watcher.close()
    if pwatcher is not None:
        pwatcher.poll()
        pwatcher.close()

    stats = matcher.stats
    report.sent = len(sent_idents)
    report.delivered = len(receiver.completed)
    report.retransmits = wire.stats.retransmits
    report.rnr_naks = wire.stats.rnr_naks
    report.faults_injected = raw.stats.total_injected()
    report.dropped = raw.stats.dropped
    report.duplicated = raw.stats.duplicated
    report.reordered = raw.stats.reordered
    report.corrupted = raw.stats.corrupted
    report.host_spills = rx_qp.host_spills
    report.degraded_stagings = stats.degraded_stagings
    report.fallback_spills = stats.fallback_spills
    report.fallback_recoveries = stats.fallback_recoveries
    report.engine_retransmits = stats.retransmits
    report.engine_rnr_naks = stats.rnr_naks
    if meter is not None:
        ps = meter.stats
        report.budget_bytes = (
            -1 if meter.budget.budget_bytes is None else meter.budget.budget_bytes
        )
        report.peak_charged_bytes = ps.peak_charged_bytes
        report.budget_overruns = ps.budget_overruns
        report.demotions = ps.demotions
        report.evictions = ps.evictions
        report.recalls = ps.recalls
        report.posts_deferred = ps.posts_deferred
        report.credit_holds = ps.credit_holds
        report.pressure_entries = ps.pressure_entries
        report.pressure_exits = ps.pressure_exits
        report.pressure_takeovers = ps.takeovers
        report.pressure_reoffloads = ps.reoffloads
    if isinstance(matcher, RecoveringMatcher):
        rs = matcher.recovery_stats
        report.core_fail_stops = rs.core_fail_stops
        report.core_hangs = rs.core_hangs
        report.core_bit_flips = rs.core_bit_flips
        report.block_rollbacks = rs.block_rollbacks
        report.blocks_replayed = rs.blocks_replayed
        report.cores_quarantined = rs.cores_quarantined
        report.core_repairs = rs.core_repairs
        report.host_takeovers = rs.host_takeovers
        report.reoffloads = rs.reoffloads
    if report.transport_failed or report.engine_failed:
        if recorder.enabled and violation_ident:
            report.passport = recorder.passport(violation_ident[0]) or {}
        return report

    # Exactly-once: delivered identity multiset == sent identity set.
    seen: dict[str, int] = {}
    got_handle: dict[str, int] = {}
    for delivery in receiver.completed:
        ident = _identity(delivery.payload)
        seen[ident] = seen.get(ident, 0) + 1
        got_handle[ident] = delivery.handle
    report.duplicates = sorted(i for i, n in seen.items() if n > 1)
    report.missing = sorted(i for i in sent_idents if i not in seen)

    # Post-hoc oracle pairing: the live shadow has already processed
    # the full schedule, so this is just the final sweep — it covers
    # whatever the online watchdog didn't run over (watchdog off, or
    # deliveries after the last check).
    for ident, got in sorted(got_handle.items()):
        if ident in flagged:
            continue  # already reported online
        diff = oracle.divergence(ident, got)
        if diff is not None:
            report.mismatches.append(diff)
            if not report.first_violation:
                report.first_violation = diff
                report.first_violation_block = matcher.stats.blocks
                violation_ident.append(ident)
    if recorder.enabled and violation_ident:
        report.passport = recorder.passport(violation_ident[0]) or {}
    return report
