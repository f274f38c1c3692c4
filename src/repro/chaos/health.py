"""Health-alarm chaos lanes: prove the rules engine's two-sided contract.

Each lane runs one fault scenario from the existing chaos/soak
matrices **under the timeline sampler + health monitor** and asserts
the detector contract from both sides, heartbeat-style:

* the **faulty** run must raise the lane's matching alarm (the fault
  signature from :data:`repro.obs.health.ALARM_TAXONOMY`) within one
  sampling interval of the fault's first observable effect;
* the **clean twin** — the same schedule shape with the fault *and*
  the exhaustion knobs neutralized (an undersized descriptor table
  spills without any wire fault, so a twin that only clears the fault
  plan would still alarm, legitimately) — must produce **zero**
  events while still exercising every watched series.

Lanes::

    spill      receive-exhaustion spill storm   -> spill-storm
    overload   tight DPA budget, bursty senders -> overload / pressure-onset
    link-flap  fabric link flaps (repro.net)    -> link-flap
    rank-kill  rank fail-stop (repro.resilience)-> rank-down

Usage::

    PYTHONPATH=src python -m repro.chaos.health [--lane NAME] [--seed N]
    repro-chaos health [--lane NAME] [--seed N]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.chaos.harness import ChaosConfig, run_chaos
from repro.chaos.suites import PROFILES
from repro.net.cluster import ClusterSim, cluster_workload
from repro.net.faults import LinkFaultPlan
from repro.obs.health import HealthMonitor, HealthReport, default_rules
from repro.obs.timeline import Timeline, TimelineSampler
from repro.rdma.faultwire import FaultPlan
from repro.resilience.cluster import ResilientClusterSim
from repro.resilience.faults import RankFaultPlan
from repro.resilience.heartbeat import HeartbeatConfig

__all__ = ["LANES", "LaneResult", "run_lane", "main"]


@dataclasses.dataclass
class LaneResult:
    """One lane's two-sided verdict."""

    lane: str
    expected_alarm: str
    #: Faulty run: did the matching alarm fire, and when?
    fired: bool
    first_tick: float | None
    faulty: HealthReport
    #: Clean twin: the zero-false-alarm side.
    clean: HealthReport
    timeline: Timeline | None = None

    @property
    def ok(self) -> bool:
        return self.fired and self.clean.healthy

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "expected_alarm": self.expected_alarm,
            "fired": self.fired,
            "first_tick": self.first_tick,
            "ok": self.ok,
            "faulty": self.faulty.to_dict(),
            "clean": self.clean.to_dict(),
        }

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        fired = (
            f"alarm {self.expected_alarm!r} at tick {self.first_tick:g}"
            if self.fired
            else f"alarm {self.expected_alarm!r} DID NOT FIRE"
        )
        twin = (
            "clean twin quiet"
            if self.clean.healthy
            else f"clean twin raised {sorted(self.clean.alarms())} (FALSE ALARM)"
        )
        return f"{self.lane:<10} {verdict:<5} {fired}; {twin}"


def _monitored() -> tuple[TimelineSampler, HealthMonitor]:
    sampler = TimelineSampler(interval=0.0)
    monitor = HealthMonitor(default_rules()).attach(sampler)
    return sampler, monitor


def _chaos_lane(config: ChaosConfig, clean: ChaosConfig, seed: int) -> tuple:
    results = []
    for variant in (
        dataclasses.replace(config, seed=seed),
        dataclasses.replace(clean, seed=seed),
    ):
        sampler, monitor = _monitored()
        run_chaos(variant, sampler=sampler)
        results.append((sampler, monitor))
    return results


def _lane_spill(seed: int) -> LaneResult:
    # The soak's spill profile tightened into a storm (a 4-entry
    # descriptor table under a 12-post/12-send schedule spills on
    # every seed, not just the lucky ones). Twin restores the table
    # and clears the wire plan — same schedule shape, zero spills,
    # zero retransmits.
    config = dataclasses.replace(
        PROFILES["spill"],
        max_receives=4,
        block_threads=2,
        max_posts_per_round=12,
        max_sends_per_round=12,
    )
    clean = dataclasses.replace(
        config,
        plan=FaultPlan(),
        fallback=False,
        max_receives=256,
        block_threads=8,
    )
    (fs, fm), (cs, cm) = _chaos_lane(config, clean, seed)
    return _verdict("spill", "spill-storm", fs, fm, cs, cm)


def _lane_overload(seed: int) -> LaneResult:
    # The soak's overload profile: §III-E budget of 20 kB against a
    # bursty unexpected-heavy schedule — admission control evicts
    # cold UMQ entries on every seed (the budget's first line of
    # defense, so eviction is the lane's signature). Twin keeps the
    # pressure meter (so every pressure.* series still exists) but
    # lifts the budget to unlimited and restores the bounce pool.
    config = PROFILES["overload"]
    clean = dataclasses.replace(config, budget_bytes=-1, bounce_buffers=64)
    (fs, fm), (cs, cm) = _chaos_lane(config, clean, seed)
    return _verdict("overload", "budget-evictions", fs, fm, cs, cm)


def _lane_link_flap(seed: int) -> LaneResult:
    # The cluster soak's flap plan over the halo workload; the twin is
    # the identical workload on a fault-free fabric (congestion and
    # retransmission allowed — neither is a watched fault signature).
    plan = LinkFaultPlan(
        flap_links=4, flaps_per_link=3, flap_ticks=32, flap_horizon=192, seed=seed
    )
    results = []
    for variant_plan in (plan, None):
        trace = cluster_workload("halo", 8, rounds=3, size=512)
        sim = ClusterSim(
            trace, topology="torus", placement="block", plan=variant_plan,
            record=False,
        )
        sampler, monitor = _monitored()
        sim.attach_sampler(sampler)
        sim.run()
        sampler.sample(sim._sample_tick())
        results.append((sampler, monitor))
    (fs, fm), (cs, cm) = results
    return _verdict("link-flap", "link-flap", fs, fm, cs, cm)


def _lane_rank_kill(seed: int) -> LaneResult:
    # One fail-stop kill under heartbeats (the ranks suite's kill-shrink
    # profile); the twin runs the same workload with a clean plan.
    results = []
    for plan in (RankFaultPlan(kills=1, horizon=300, seed=seed), RankFaultPlan()):
        sim = ResilientClusterSim(
            "halo",
            8,
            rounds=3,
            size=2048,
            plan=plan,
            heartbeat=HeartbeatConfig(),
            recovery="shrink",
            record=False,
        )
        sampler, monitor = _monitored()
        sim.attach_sampler(sampler)
        sim.run()
        results.append((sampler, monitor))
    (fs, fm), (cs, cm) = results
    return _verdict("rank-kill", "rank-down", fs, fm, cs, cm)


def _verdict(
    lane: str,
    alarm: str,
    fs: TimelineSampler,
    fm: HealthMonitor,
    cs: TimelineSampler,
    cm: HealthMonitor,
) -> LaneResult:
    faulty = fm.report(ticks=fs.timeline.ticks)
    clean = cm.report(ticks=cs.timeline.ticks)
    matching = [e for e in faulty.events if e.alarm == alarm]
    return LaneResult(
        lane=lane,
        expected_alarm=alarm,
        fired=bool(matching),
        first_tick=matching[0].tick if matching else None,
        faulty=faulty,
        clean=clean,
        timeline=fs.timeline,
    )


LANES = {
    "spill": _lane_spill,
    "overload": _lane_overload,
    "link-flap": _lane_link_flap,
    "rank-kill": _lane_rank_kill,
}


def run_lane(name: str, seed: int = 1) -> LaneResult:
    """Run one named lane (faulty + clean twin)."""
    try:
        lane = LANES[name]
    except KeyError:
        raise KeyError(f"unknown health lane {name!r}; known: {sorted(LANES)}")
    return lane(seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos health",
        description=(
            "Run the health-alarm chaos lanes: each fault scenario must "
            "raise its matching alarm, each clean twin must stay silent. "
            "Exit codes: 0 all lanes hold, 1 a lane failed, 2 usage."
        ),
    )
    parser.add_argument(
        "--lane",
        action="append",
        choices=sorted(LANES),
        help="run only this lane (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--json-out", metavar="PATH", help="write lane verdicts as JSON"
    )
    parser.add_argument(
        "--timeline-out",
        metavar="PATH",
        help="write the last faulty lane's sampled timeline as JSON",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    names = args.lane or sorted(LANES)
    results = [run_lane(name, args.seed) for name in names]
    for result in results:
        print(result.describe())
    failures = [r for r in results if not r.ok]
    print(
        f"health lanes: {len(results) - len(failures)}/{len(results)} ok "
        f"(seed {args.seed})"
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fp:
            json.dump([r.to_dict() for r in results], fp, indent=2)
            fp.write("\n")
    if args.timeline_out and results:
        last = results[-1].timeline
        if last is not None:
            with open(args.timeline_out, "w", encoding="utf-8") as fp:
                fp.write(last.to_json())
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
