"""Cluster network-fault soak: flaps and partitions under real traffic.

Every profile runs the halo workload end-to-end over the fabric —
the full rdma stack per pair, seeded :class:`repro.net.faults.
LinkFaultPlan` faults underneath — across a batch of seeds through
:mod:`repro.fleet` (``cluster_chaos`` jobs, so schedules fan out and
cache). The acceptance bar is the reliability layer's contract: faults
may cost time (retransmits, go-back-N recovery), but **never
correctness** — every send delivered, zero C2 violations, on every
seed.

Profiles::

    clean      no faults (the control: zero retransmits expected)
    flaps      seeded links flap; drops recovered by retransmission
    partition  one victim host loses all links for a window

Usage::

    PYTHONPATH=src python -m repro.chaos.cluster [--schedules N]
    repro-chaos cluster [--schedules N]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.net.cluster import ClusterReport
from repro.net.faults import LinkFaultPlan

__all__ = ["CLUSTER_PROFILES", "ClusterSoakResult", "iter_soak_jobs", "soak", "main"]

DEFAULT_RANKS = 8
DEFAULT_ROUNDS = 3
DEFAULT_SCHEDULES = 4

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


@dataclass(slots=True)
class ClusterSoakResult:
    runs: int = 0
    failures: int = 0
    retransmits: int = 0
    drops: int = 0
    violations: int = 0
    failed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def iter_soak_jobs(profiles, seeds, *, ranks: int, rounds: int):
    from repro.fleet import JobSpec

    for name in profiles:
        plan = CLUSTER_PROFILES[name]
        for seed in seeds:
            yield JobSpec(
                kind="cluster_chaos",
                params={
                    "app": "halo",
                    "ranks": ranks,
                    "topology": "torus",
                    "placement": "block",
                    "rounds": rounds,
                    "profile": name,
                    "plan": plan.to_params(),
                },
                seed=seed,
            )


def soak(
    schedules: int = DEFAULT_SCHEDULES,
    seed_base: int = 1,
    *,
    ranks: int = DEFAULT_RANKS,
    rounds: int = DEFAULT_ROUNDS,
    jobs: int = 1,
    cache_dir: str | None = None,
    verbose: bool = False,
    out=None,
    err=None,
) -> ClusterSoakResult:
    """Run ``schedules`` seeds through every profile; fail on any
    undelivered message or ordering violation."""
    from repro.fleet import run_jobs

    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    names = list(CLUSTER_PROFILES)
    seeds = range(seed_base, seed_base + schedules)
    result = ClusterSoakResult()
    fleet = run_jobs(
        iter_soak_jobs(names, seeds, ranks=ranks, rounds=rounds),
        jobs=jobs,
        cache_dir=cache_dir,
    )
    for outcome in fleet.outcomes:
        name = outcome.spec.params["profile"]
        seed = outcome.spec.seed
        result.runs += 1
        if not outcome.ok:
            result.failures += 1
            result.failed.append(f"{name}/seed={seed}")
            print(
                f"FAIL {name} seed={seed}: quarantined ({outcome.error})", file=err
            )
            continue
        report: ClusterReport = outcome.result
        res = report.results
        result.retransmits += res["transport"]["retransmits"]
        result.drops += res["fabric"]["dropped"]
        result.violations += len(res["violations"])
        if verbose:
            print(
                f"{name:>10} seed={seed}: {res['sends']} sends, "
                f"{res['fabric']['dropped']} drops, "
                f"{res['transport']['retransmits']} retx, "
                f"{len(res['violations'])} violations",
                file=out,
            )
        if not report.ok:
            result.failures += 1
            result.failed.append(f"{name}/seed={seed}")
            print(
                f"FAIL {name} seed={seed}: {len(res['violations'])} violations, "
                f"{res['undelivered']} undelivered, conservation "
                f"{res['conservation']}",
                file=err,
            )
        elif name == "clean" and res["transport"]["retransmits"]:
            result.failures += 1
            result.failed.append(f"{name}/seed={seed}")
            print(
                f"FAIL {name} seed={seed}: {res['transport']['retransmits']} "
                "retransmits on a fault-free fabric",
                file=err,
            )
    print(
        f"cluster soak: {result.runs} runs, {result.drops} drops, "
        f"{result.retransmits} retransmits, {result.violations} violations, "
        f"{result.failures} failures",
        file=out,
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cluster network-fault soak (flaps / partition profiles)"
    )
    parser.add_argument("--schedules", type=int, default=DEFAULT_SCHEDULES)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--ranks", type=int, default=DEFAULT_RANKS)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--jobs", type=int, default=1, help="fleet worker count")
    parser.add_argument(
        "--cache-dir", default=None, help="content-addressed result cache"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    result = soak(
        args.schedules,
        args.seed_base,
        ranks=args.ranks,
        rounds=args.rounds,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        verbose=args.verbose,
    )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
