"""Cluster-fabric sweep (BENCH_cluster.json).

Runs the cluster workloads (halo / alltoall / hotspot) across a grid
of topologies x placements, each cell a full end-to-end
:class:`repro.net.cluster.ClusterSim` run — the unchanged rdma stack
over the simulated fabric — executed through :mod:`repro.fleet` as
``cluster_bench`` jobs. The cells are independent deterministic
simulations, so the sweep is content-addressed: re-running against a
warm ``--cache-dir`` executes nothing and reproduces the identical
report.

Per cell the report keeps the observables placement decisions trade
against each other: elapsed ticks (makespan), peak link utilization
and queue wait (contention), retransmits (should be zero on a clean
fabric), and the ledger's total wire time (the fabric's share of
message latency). Every cell must finish clean — all sends delivered,
zero C2 violations — or the bench fails.

Usage::

    PYTHONPATH=src python -m repro.bench.cluster [--out PATH]
    repro-bench cluster [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.net.cluster import ClusterReport
from repro.util.cli import positive

__all__ = ["SWEEP_GRID", "iter_cluster_jobs", "run_bench", "main"]

SCHEMA = "repro.bench.cluster/v1"

DEFAULT_RANKS = 8
DEFAULT_ROUNDS = 3
DEFAULT_SIZE = 512

#: The sweep grid: every app on every topology under every placement.
SWEEP_GRID: dict[str, tuple[str, ...]] = {
    "apps": ("halo", "alltoall", "hotspot"),
    "topologies": ("ring", "torus", "fattree"),
    "placements": ("block", "round_robin"),
}


def iter_cluster_jobs(*, ranks: int, rounds: int, size: int):
    """Lazily enumerate the grid as fleet jobs (stable cell order)."""
    from repro.fleet import JobSpec

    for app in SWEEP_GRID["apps"]:
        for topology in SWEEP_GRID["topologies"]:
            for placement in SWEEP_GRID["placements"]:
                yield JobSpec(
                    kind="cluster_bench",
                    params={
                        "app": app,
                        "ranks": ranks,
                        "topology": topology,
                        "placement": placement,
                        "rounds": rounds,
                        "size": size,
                    },
                )


def _cell(report: ClusterReport, status: str) -> dict:
    results = report.results
    links = results["links"]
    return {
        "app": report.params["app"],
        "topology": report.params["topology"],
        "placement": report.params["placement"],
        "ok": report.ok,
        "cached": status == "cached",
        "sends": results["sends"],
        "deliveries": results["deliveries"],
        "violations": len(results["violations"]),
        "elapsed_ticks": results["elapsed_ticks"],
        "max_utilization": results["fabric"]["max_utilization"],
        "peak_wait": max((l["peak_wait"] for l in links.values()), default=0),
        "retransmits": results["transport"]["retransmits"],
        "wire_ticks": results["phase_totals"].get("wire", 0.0),
        "conservation": results["conservation"],
    }


def run_bench(
    *,
    ranks: int = DEFAULT_RANKS,
    rounds: int = DEFAULT_ROUNDS,
    size: int = DEFAULT_SIZE,
    cache_dir: str | None = None,
) -> dict:
    """Run the full grid and return the BENCH_cluster payload."""
    from repro.fleet import run_jobs

    run = run_jobs(
        iter_cluster_jobs(ranks=ranks, rounds=rounds, size=size),
        cache_dir=cache_dir,
    )
    run.require_ok()
    cells = [_cell(outcome.result, outcome.status) for outcome in run.outcomes]
    return {
        "schema": SCHEMA,
        "config": {"ranks": ranks, "rounds": rounds, "size": size},
        "cells": cells,
        "failures": [
            f"{c['app']}/{c['topology']}/{c['placement']}"
            for c in cells
            if not c["ok"]
        ],
        "fleet": run.report.summary(),
    }


def format_table(payload: dict) -> str:
    header = (
        f"{'app':<19}{'topology':<14}{'placement':<13}"
        f"{'ticks':>7}{'util':>7}{'wait':>6}{'retx':>6}  ok"
    )
    lines = [header, "-" * len(header)]
    for cell in payload["cells"]:
        lines.append(
            f"{cell['app']:<19}{cell['topology']:<14}{cell['placement']:<13}"
            f"{cell['elapsed_ticks']:>7}{cell['max_utilization']:>7.2f}"
            f"{cell['peak_wait']:>6}{cell['retransmits']:>6}"
            f"  {'yes' if cell['ok'] else 'NO'}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cluster-fabric sweep: apps x topologies x placements"
    )
    parser.add_argument("--ranks", type=positive, default=DEFAULT_RANKS)
    parser.add_argument("--rounds", type=positive, default=DEFAULT_ROUNDS)
    parser.add_argument("--size", type=positive, default=DEFAULT_SIZE)
    parser.add_argument(
        "--cache-dir", default=None, help="content-addressed result cache"
    )
    parser.add_argument(
        "--out", default="BENCH_cluster.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    payload = run_bench(
        ranks=args.ranks,
        rounds=args.rounds,
        size=args.size,
        cache_dir=args.cache_dir,
    )
    print(format_table(payload))
    print(f"fleet: {payload['fleet']}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if payload["failures"]:
        print(f"FAIL: unclean cells: {payload['failures']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
