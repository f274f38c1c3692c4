"""The chaos suites: one row per ``repro-chaos`` subcommand.

Each suite is lanes (a fleet job template plus a verdict), a tally, a
totals line and assert rows; :func:`repro.chaos.runner.run_suite` runs
any of them. The lane tables keep importable names (``PROFILES``,
``CORE_PROFILES``, ``MUTANT_PROFILES``, ``OVERLOAD_PROFILES``,
``CLUSTER_PROFILES``, ``RANK_PROFILES``, ``RANK_MUTANT_PROFILES``).

``soak``
    The wire-fault profiles through the full ``Wire -> FaultyWire ->
    ReliableWire -> QueuePair -> RdmaReceiver + OptimisticMatcher``
    stack: every report must be exactly-once and oracle-identical.
``cores``
    Accelerator core faults with the online watchdog; every report
    ``ok`` (the checkpoint/replay recoverer hides each fault). Mutant
    lanes run the planted engine bugs of
    :data:`repro.core.faults.MUTANT_ENGINES` and must each be caught
    online on some seed.
``overload``
    An enforced §III-E memory budget: zero budget overruns, always, and
    the degradation ladder (defer, demote, evict, take over) may slow a
    run but never change a pairing.
``cluster``
    Link flaps and a host partition under the halo workload: faults
    cost retransmits, never a delivery or a C2 violation.
``ranks``
    Fail-stop rank kills, heartbeat detection and shrink / respawn
    repair; mutant lanes run the planted driver bugs of
    :data:`repro.resilience.cluster.MUTANTS`, each of which must be
    caught.

The ``--assert-*`` rows additionally require a suite to have
*exercised* a recovery path: a soak where nothing was replayed or
evicted proves nothing about those paths.
"""

from __future__ import annotations

from operator import attrgetter

from repro.chaos.harness import ChaosConfig, ChaosReport
from repro.chaos.runner import AssertRow, Lane, Suite, chaos_lane
from repro.core.faults import MUTANT_ENGINES
from repro.net.faults import LinkFaultPlan
from repro.rdma.faultwire import FaultPlan
from repro.recovery.faults import CoreFaultPlan
from repro.recovery.quarantine import RecoveryPolicy
from repro.resilience.faults import RankFaultPlan
from repro.resilience.heartbeat import HeartbeatConfig

__all__ = [
    "CLUSTER_PROFILES",
    "CORE_PROFILES",
    "MUTANT_PROFILES",
    "OVERLOAD_PROFILES",
    "PROFILES",
    "RANK_MUTANT_PROFILES",
    "RANK_PROFILES",
    "SUITES",
]


def exactly_once(report: ChaosReport) -> str | None:
    """Every message delivered once, to the receive the oracle picks."""
    if report.ok:
        return None
    lines = [f"sent={report.sent} delivered={report.delivered}"]
    if report.transport_failed:
        lines.append(f"transport: {report.transport_error}")
    if report.engine_failed:
        lines.append(f"engine: {report.engine_error}")
    if report.first_violation:
        lines.append(
            f"first violation (round={report.first_violation_round} "
            f"block={report.first_violation_block}): {report.first_violation}"
        )
    for label, items in (
        ("duplicate", report.duplicates),
        ("missing", report.missing),
        ("mismatch", report.mismatches),
    ):
        lines += [f"{label}: {item}" for item in items[:5]]
    return "\n  ".join(lines)


# -- soak: wire faults ------------------------------------------------------

#: name -> config template (fault plan, resources, matcher shape).
PROFILES: dict[str, ChaosConfig] = {
    "clean": ChaosConfig(),
    "drops": ChaosConfig(plan=FaultPlan(drop_rate=0.08)),
    "chaos": ChaosConfig(
        plan=FaultPlan(
            drop_rate=0.05, duplicate_rate=0.08, reorder_rate=0.12, corrupt_rate=0.05
        )
    ),
    "degraded": ChaosConfig(
        plan=FaultPlan(drop_rate=0.05),
        bounce_buffers=2,
        host_spill=True,
    ),
    # Undersized descriptor table + recoverable fallback: runs spill to
    # software and migrate back, spanning several engine generations.
    "spill": ChaosConfig(
        plan=FaultPlan(drop_rate=0.05),
        fallback=True,
        max_receives=8,
        block_threads=4,
        rounds=16,
        max_posts_per_round=8,
        max_sends_per_round=8,
        wildcard_rate=0.5,
    ),
    # Tight §III-E budget under a bursty unexpected-heavy schedule: the
    # pressure pipeline has to evict, demote, and defer to stay inside
    # the ledger (the dedicated matrix is the ``overload`` suite; this
    # lane keeps the default soak honest about the pressure path).
    "overload": ChaosConfig(
        pressure=True,
        budget_bytes=20000,
        senders=4,
        rounds=16,
        max_posts_per_round=2,
        max_sends_per_round=12,
        bounce_buffers=8,
        watchdog=True,
    ),
}

# -- cores: core faults and mutant engines ----------------------------------

#: Real-engine lanes: core faults (and, for ``storm``, wire faults too)
#: with the online watchdog at every round boundary.
CORE_PROFILES: dict[str, ChaosConfig] = {
    "failstop": ChaosConfig(
        core_plan=CoreFaultPlan(fail_stop_rate=0.08), watchdog=True
    ),
    "hang": ChaosConfig(core_plan=CoreFaultPlan(hang_rate=0.06), watchdog=True),
    "bitflip": ChaosConfig(
        core_plan=CoreFaultPlan(bit_flip_rate=0.08), watchdog=True
    ),
    # Full matrix cell: lossy wire *and* faulty cores at once.
    "storm": ChaosConfig(
        plan=FaultPlan(drop_rate=0.05, duplicate_rate=0.05, reorder_rate=0.08),
        core_plan=CoreFaultPlan.storm(),
        watchdog=True,
    ),
    # Aggressive fail-stop against a hair-trigger quarantine: blocks
    # escalate to host takeover, then — once quick repairs drain the
    # quarantine — re-offload back onto the accelerator.
    "takeover": ChaosConfig(
        core_plan=CoreFaultPlan(fail_stop_rate=0.35),
        recovery=RecoveryPolicy(quarantine_threshold=1, repair_epochs=3),
        cores=8,
        rounds=12,
        watchdog=True,
    ),
}

#: Conflict-heavy schedule shared by every mutant lane: few tags, few
#: senders, lots of wildcards — the contention the planted bugs corrupt.
_MUTANT_SCHEDULE = dict(
    rounds=8,
    max_posts_per_round=6,
    max_sends_per_round=6,
    tags=2,
    senders=2,
    wildcard_rate=0.4,
    watchdog=True,
)

#: Mutant lanes: one per planted engine bug, clean wire, watchdog on.
MUTANT_PROFILES: dict[str, ChaosConfig] = {
    f"mutant-{name}": ChaosConfig(engine=name, **_MUTANT_SCHEDULE)
    for name in sorted(MUTANT_ENGINES)
}


def _caught_online(report: ChaosReport) -> str | None:
    """Oracle divergence or an engine-internal crash, seen by the watchdog."""
    if not report.detected_violation:
        return None
    where = report.engine_error if report.engine_failed else report.first_violation
    return (
        f"caught at round={report.first_violation_round} "
        f"block={report.first_violation_block} ({where})"
    )


# -- overload: memory budget ------------------------------------------------

#: Bursty many-sender schedule shared by the tight-budget lanes: few
#: posts, floods of sends, an undersized bounce pool — the unexpected
#: queue and its bounce staging dominate the ledger.
_TIGHT_SCHEDULE = dict(
    senders=4,
    rounds=16,
    max_posts_per_round=2,
    max_sends_per_round=12,
    bounce_buffers=8,
    watchdog=True,
    pressure=True,
)

#: name -> config template. Budgets shrink down the table: ``paper``
#: (the §III-E model, 128 bins + 8K receives ≈ 520 KiB) never needs the
#: ladder, ``evict`` needs eviction/recall, and ``takeover`` needs the
#: full host-takeover escalation.
OVERLOAD_PROFILES: dict[str, ChaosConfig] = {
    "paper": ChaosConfig(
        pressure=True,
        budget_bytes=0,  # §III-E model
        senders=4,
        rounds=20,
        max_posts_per_round=2,
        max_sends_per_round=24,
        bounce_buffers=128,
        max_receives=8192,
        watchdog=True,
    ),
    "evict": ChaosConfig(budget_bytes=20000, **_TIGHT_SCHEDULE),
    "takeover": ChaosConfig(budget_bytes=12000, **_TIGHT_SCHEDULE),
}


def _within_budget(report: ChaosReport) -> str | None:
    if report.budget_overruns:
        return (
            f"{report.budget_overruns} budget overruns (enforcement let a "
            f"charge exceed {report.budget_bytes} B)"
        )
    return exactly_once(report)


# -- cluster: link faults ---------------------------------------------------

#: Job params every cluster-scale lane shares; ``--ranks`` / ``--rounds``
#: override the two sizes.
_HALO = {"app": "halo", "ranks": 8, "rounds": 3, "topology": "torus", "placement": "block"}

#: profile -> fault plan template (the job seed replaces ``seed``).
#: Windows stay well inside ``CLUSTER_RELIABILITY``'s retry budget so
#: recovery is expected, not excused.
CLUSTER_PROFILES: dict[str, LinkFaultPlan] = {
    "clean": LinkFaultPlan(),
    "flaps": LinkFaultPlan(
        flap_links=2, flaps_per_link=2, flap_ticks=24, flap_horizon=256
    ),
    "partition": LinkFaultPlan(partition_at=48, partition_ticks=48),
}


def _delivered(report) -> str | None:
    """Faults cost time, never correctness: every send delivered, zero
    C2 violations, conservation exact."""
    res = report.results
    if report.ok:
        return None
    return (
        f"{len(res['violations'])} violations, {res['undelivered']} "
        f"undelivered, conservation {res['conservation']}"
    )


def _no_retransmits(report) -> str | None:
    """The control lane: a fault-free fabric needs no recovery."""
    retransmits = report.results["transport"]["retransmits"]
    return _delivered(report) or (
        f"{retransmits} retransmits on a fault-free fabric" if retransmits else None
    )


def _cluster_lane(name: str, plan: LinkFaultPlan) -> Lane:
    params = {**_HALO, "profile": name, "plan": plan.to_params()}
    return Lane(name, "cluster_chaos", params, _no_retransmits if name == "clean" else _delivered)


# -- ranks: rank fail-stop --------------------------------------------------

_HB = HeartbeatConfig()


def _rank(plan: RankFaultPlan, size=512, recovery="shrink", heartbeat=_HB, mutant="") -> dict:
    return dict(plan=plan, heartbeat=heartbeat, recovery=recovery, size=size, mutant=mutant)


#: Real lanes: profile -> job template (the job seed replaces
#: ``plan.seed``). Kill horizons sit inside the first epoch of each
#: payload size so seeded kills reliably fire; ``size=2048`` lanes kill
#: under rendezvous traffic: a dead rank can no longer serve RDMA reads,
#: so survivors hold receives that can never complete and the
#: ``RankFailedError`` revocation path is exercised, not just timed out.
#: ``silent`` has no heartbeats: it must recover through the
#: stall/transport backstop instead.
RANK_PROFILES: dict[str, dict] = {
    "clean": _rank(RankFaultPlan()),
    "kill-shrink": _rank(RankFaultPlan(kills=1, horizon=300), size=2048),
    "kill-respawn": _rank(RankFaultPlan(kills=1, horizon=300), size=2048, recovery="respawn"),
    "silent": _rank(RankFaultPlan(kills=1, horizon=120), heartbeat=None),
}

#: Mutant lanes: planted driver bugs and the kill schedule that exposes
#: them. ``stale-streams`` only bites when the kill lands *after* a
#: committed round (a respawn from the initial checkpoint has all-zero
#: stream counters anyway), hence the explicit tick between the size-512
#: round-2 and round-3 commits.
RANK_MUTANT_PROFILES: dict[str, dict] = {
    f"mutant-{bug}": _rank(
        RankFaultPlan(victims=(3,), kill_ticks=(tick,)), recovery=recovery, mutant=bug
    )
    for bug, tick, recovery in (
        ("deaf-detector", 50, "shrink"),
        ("no-abort", 50, "shrink"),
        ("stale-streams", 400, "respawn"),
    )
}


def _rank_sound(report) -> str | None:
    """All rounds committed, oracle-clean, no false suspicion."""
    res = report.results
    if not report.ok:
        return (
            f"{len(res['violations'])} violations, "
            f"{res['rounds_completed']}/{report.params['rounds']} rounds"
        )
    if res["false_suspicions"]:
        return f"{len(res['false_suspicions'])} false suspicions"
    return None


def _rank_clean(report) -> str | None:
    res = report.results
    aborted = res["kills"] or res["suspicion_aborts"] or res["backstop_aborts"]
    return _rank_sound(report) or ("aborts on a fault-free run" if aborted else None)


def _rank_repaired(report) -> str | None:
    """Heartbeat lanes detect every fired kill through the detector (no
    backstop aborts); the silent lane must recover through the backstop."""
    res = report.results
    reason = _rank_sound(report)
    if reason is not None or not res["kills"]:
        return reason  # no kill: the seeded tick landed past the run
    if report.params["heartbeat"] is not None:
        if res["failures_detected"] < len({k["rank"] for k in res["kills"]}):
            return "heartbeat missed a fired kill"
        if res["backstop_aborts"]:
            return f"{res['backstop_aborts']} backstop aborts despite heartbeats"
    elif not res["backstop_aborts"]:
        return "silent lane recovered without the backstop (impossible)"
    return None


def _backstop_tell(report) -> str | None:
    """deaf-detector / no-abort: the heartbeat path never aborts, so a
    fired kill is only survived through the backstop — a heartbeat lane
    with backstop aborts is the tell."""
    res = report.results
    return "backstop abort" if res["kills"] and res["backstop_aborts"] > 0 else None


def _streams_regressed(report) -> str | None:
    """stale-streams: the respawned rank forgot its stream counters, so
    message identities regress and the pairing oracle diverges."""
    return "oracle diverged" if report.results["violations"] else None


def _rank_lane(name: str, template: dict) -> Lane:
    hb: HeartbeatConfig | None = template["heartbeat"]
    params = {
        **_HALO,
        "size": template["size"],
        "profile": name,
        "recovery": template["recovery"],
        "mutant": template["mutant"],
        "plan": template["plan"].to_params(),
        "heartbeat": hb.to_params() if hb is not None else None,
        "record": False,
    }
    if template["mutant"]:
        verdict = _streams_regressed if template["mutant"] == "stale-streams" else _backstop_tell
        return Lane(name, "rank_chaos", params, verdict, mutant=True)
    return Lane(name, "rank_chaos", params, _rank_clean if name == "clean" else _rank_repaired)


def _lanes(*lanes: Lane) -> dict[str, Lane]:
    return {lane.name: lane for lane in lanes}


def _sums(*names: str) -> dict:
    """Tally ChaosReport counters under their own names."""
    return {name: attrgetter(name) for name in names}


def _fired(flag: str, key: str, message: str) -> AssertRow:
    """``--assert-<flag>``: the suite must have exercised ``key``."""
    return AssertRow(flag, lambda r: not r.totals[key], message, f"fail unless {key} > 0")


_MUTANTS_CAUGHT = "mutants never caught: {missed}"

SUITES: dict[str, Suite] = {
    "soak": Suite(
        "soak",
        "wire-fault soak over the standard profiles",
        _lanes(*(chaos_lane(n, PROFILES[n], exactly_once) for n in sorted(PROFILES))),
        schedules=50,
        describe=lambda r: (
            f"sent={r.sent} delivered={r.delivered} faults={r.faults_injected} "
            f"retransmits={r.retransmits} rnr={r.rnr_naks} spills={r.host_spills} "
            f"generations={1 + r.fallback_recoveries}"
        ),
        totals="chaos soak: {runs} runs, {failures} failures",
        artifacts=("trace", "ledger", "metrics"),
    ),
    "cores": Suite(
        "cores",
        "core-fault matrix: {wire faults} x {core faults} x {engines}",
        _lanes(
            *(chaos_lane(n, c, exactly_once) for n, c in CORE_PROFILES.items()),
            *(
                chaos_lane(n, c, _caught_online, mutant=True, describe=_caught_online)
                for n, c in MUTANT_PROFILES.items()
            ),
        ),
        schedules=40,
        describe=lambda r: (
            f"sent={r.sent} core_faults={r.core_fail_stops}fs/{r.core_hangs}h/"
            f"{r.core_bit_flips}bf replayed={r.blocks_replayed} "
            f"takeovers={r.host_takeovers} reoffloads={r.reoffloads} "
            f"checks={r.watchdog_checks}"
        ),
        totals=(
            "core soak: {runs} runs, {failures} failures | faults={core_faults} "
            "replayed={blocks_replayed} takeovers={host_takeovers} "
            "reoffloads={reoffloads} | mutants caught {caught}/{mutants}"
        ),
        # Mutant lanes run no core faults, so they add nothing here.
        sums={
            "core_faults": lambda r: r.core_fail_stops + r.core_hangs + r.core_bit_flips,
            **_sums("blocks_replayed", "host_takeovers", "reoffloads"),
        },
        asserts=(
            _fired("replay", "blocks_replayed", "no block was ever replayed"),
            _fired("takeover", "host_takeovers", "no host takeover ever happened"),
            AssertRow(
                "mutants-caught", lambda r: bool(r.mutants_missed), _MUTANTS_CAUGHT,
                "fail unless every mutant engine was caught on some seed",
            ),
        ),
        artifacts=("trace", "metrics"),
    ),
    "overload": Suite(
        "overload",
        "memory-budget overload soak (pressure enforcement lanes)",
        _lanes(*(chaos_lane(n, c, _within_budget) for n, c in OVERLOAD_PROFILES.items())),
        schedules=50,
        describe=lambda r: (
            f"sent={r.sent} peak={r.peak_charged_bytes}/{r.budget_bytes}B "
            f"deferred={r.posts_deferred} demoted={r.demotions} "
            f"evicted={r.evictions} recalled={r.recalls} "
            f"takeovers={r.pressure_takeovers} reoffloads={r.pressure_reoffloads}"
        ),
        totals=(
            "overload soak: {runs} runs, {failures} failures | "
            "overruns={budget_overruns} peak={peak_charged_bytes}B | "
            "deferred={posts_deferred} demoted={demotions} evicted={evictions} "
            "recalled={recalls} holds={credit_holds} | "
            "takeovers={pressure_takeovers} reoffloads={pressure_reoffloads} "
            "episodes={pressure_entries}"
        ),
        sums=_sums(
            "budget_overruns", "posts_deferred", "demotions", "evictions", "recalls",
            "credit_holds", "pressure_takeovers", "pressure_reoffloads", "pressure_entries",
        ),
        peaks=_sums("peak_charged_bytes"),
        asserts=(
            AssertRow(
                None, lambda r: bool(r.totals["budget_overruns"]),
                "{budget_overruns} budget overruns (must always be zero)",
            ),
            _fired("demotion", "demotions", "no eager send was ever demoted"),
            _fired("eviction", "evictions", "nothing was ever evicted to host"),
            _fired("recall", "recalls", "no evicted message was ever recalled"),
            _fired("takeover", "pressure_takeovers", "pressure never escalated to takeover"),
        ),
        artifacts=("trace", "metrics"),
    ),
    "cluster": Suite(
        "cluster",
        "cluster network-fault soak (link flaps / host partition)",
        _lanes(*(_cluster_lane(n, plan) for n, plan in CLUSTER_PROFILES.items())),
        schedules=4,
        describe=lambda r: (
            f"{r.results['sends']} sends, {r.results['fabric']['dropped']} drops, "
            f"{r.results['transport']['retransmits']} retx, "
            f"{len(r.results['violations'])} violations"
        ),
        totals=(
            "cluster soak: {runs} runs, {drops} drops, {retransmits} retransmits, "
            "{violations} violations, {failures} failures"
        ),
        sums={
            "drops": lambda r: r.results["fabric"]["dropped"],
            "retransmits": lambda r: r.results["transport"]["retransmits"],
            "violations": lambda r: len(r.results["violations"]),
        },
        width=10,
    ),
    "ranks": Suite(
        "ranks",
        "rank fail-stop soak (kill / detect / repair lanes)",
        _lanes(
            *(_rank_lane(n, t) for n, t in {**RANK_PROFILES, **RANK_MUTANT_PROFILES}.items())
        ),
        schedules=4,
        describe=lambda r: (
            f"{len(r.results['kills'])} kills, {r.results['failures_detected']} "
            f"detected (latency<={r.results['detection_latency_max']}), "
            f"{r.results['shrinks']} shrinks, {r.results['restarts']} restarts, "
            f"{r.results['failed_recvs']} failed recvs, "
            f"{len(r.results['violations'])} violations"
        ),
        totals=(
            "rank soak: {runs} runs, {kills} kills, {detected} detected, "
            "{false_suspicions} false suspicions, {shrinks} shrinks, "
            "{restarts} restarts, {failures} failures, "
            "mutants caught {caught}/{mutants}"
        ),
        sums={
            "kills": lambda r: len(r.results["kills"]),
            "detected": lambda r: r.results["failures_detected"],
            "false_suspicions": lambda r: len(r.results["false_suspicions"]),
            "shrinks": lambda r: r.results["shrinks"],
            "restarts": lambda r: r.results["restarts"],
        },
        asserts=(AssertRow(None, lambda r: bool(r.mutants_missed), _MUTANTS_CAUGHT),),
        width=22,
    ),
}
