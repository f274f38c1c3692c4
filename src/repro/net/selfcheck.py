"""Cluster-fabric smoke invariants (the CI ``cluster-smoke`` gate).

Usage::

    python -m repro.net.selfcheck [--ranks N] [--rounds N]

Three invariants, each checked end-to-end and each a hard failure:

* **determinism** — the same workload run twice delivers messages and
  produces identical per-link reports (bytes, busy ticks, utilization)
  and the identical elapsed tick count. The fabric has no hidden
  entropy source; any divergence is a bug, and a run that delivered
  nothing compared nothing.
* **conservation** — every completed message's ledger wire phase is
  explained exactly by one fabric hop schedule: the per-hop durations
  telescope to ``arrival - inject`` and the phase opens/closes at
  those ticks (``exact == checked`` on a clean run, zero drops), read
  off the fabric's hop log.
* **congestion ordering** — a flow contending for a link observes
  strictly higher end-to-end latency than the same flow alone on the
  same route. Queuing delay must be visible, and only additive.

Exit status 0 when all pass, 1 otherwise; 2 for a count below 1.
"""

from __future__ import annotations

import argparse
import sys

from repro.net.cluster import run_cluster
from repro.net.fabric import Fabric
from repro.net.topology import ring
from repro.util.cli import positive

__all__ = ["check_congestion_ordering", "check_determinism", "main", "run_selfcheck"]


def check_determinism(ranks: int, rounds: int) -> tuple[bool, str]:
    """Two identical runs must deliver, and agree on every observable."""
    first = run_cluster("halo", ranks, topology="torus", rounds=rounds)
    if not first.results["deliveries"]:
        return False, f"no message delivered ({ranks} ranks, {rounds} rounds)"
    second = run_cluster("halo", ranks, topology="torus", rounds=rounds)
    if first.results["links"] != second.results["links"]:
        return False, "per-link reports differ between identical runs"
    if first.results["elapsed_ticks"] != second.results["elapsed_ticks"]:
        return False, (
            f"elapsed ticks differ: {first.results['elapsed_ticks']} "
            f"vs {second.results['elapsed_ticks']}"
        )
    if not first.ok:
        return False, f"run not clean: {len(first.results['violations'])} violations"
    return True, (
        f"{len(first.results['links'])} links identical across runs, "
        f"{first.results['elapsed_ticks']} ticks"
    )


def check_conservation(ranks: int, rounds: int) -> tuple[bool, str]:
    """Per-hop wire time must telescope exactly on a clean run."""
    report = run_cluster("halo", ranks, topology="fattree", rounds=rounds)
    cons = report.results["conservation"]
    if cons["checked"] == 0:
        return False, "no messages audited"
    if cons["exact"] != cons["checked"]:
        return False, (
            f"conservation broken: {cons['exact']}/{cons['checked']} exact "
            f"({cons['recovered']} recovered on a clean run)"
        )
    return True, f"{cons['exact']}/{cons['checked']} messages telescope exactly"


def check_congestion_ordering() -> tuple[bool, str]:
    """Contended latency strictly exceeds uncontended, same route."""
    topo = ring(2)
    solo = Fabric(topo)
    solo.attach("p")
    hosts = topo.hosts
    base = solo.inject(hosts[0], hosts[1], "p", None, 512)
    uncontended = base.arrival - base.inject

    burst = Fabric(topo)
    burst.attach("p")
    last = None
    for _ in range(8):
        last = burst.inject(hosts[0], hosts[1], "p", None, 512)
    assert last is not None
    contended = last.arrival - last.inject
    if contended <= uncontended:
        return False, (
            f"no queuing visible: contended {contended} <= "
            f"uncontended {uncontended} ticks"
        )
    return True, f"contended {contended} > uncontended {uncontended} ticks"


def run_selfcheck(*, ranks: int = 8, rounds: int = 3) -> list[tuple[str, bool, str]]:
    return [
        ("determinism", *check_determinism(ranks, rounds)),
        ("conservation", *check_conservation(ranks, rounds)),
        ("congestion-ordering", *check_congestion_ordering()),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=positive, default=8)
    parser.add_argument("--rounds", type=positive, default=3)
    args = parser.parse_args(argv)
    checks = run_selfcheck(ranks=args.ranks, rounds=args.rounds)
    failed = 0
    for name, ok, detail in checks:
        mark = "ok" if ok else "FAIL"
        print(f"[{mark:>4}] {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed}/{len(checks)} cluster smoke checks failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} cluster smoke checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
