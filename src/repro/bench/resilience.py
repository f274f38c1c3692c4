"""Recovery-latency sweep (BENCH_resilience.json).

Measures what a rank failure *costs* as a function of the failure
detector's tuning and the repair strategy: a fixed fail-stop (rank 3
dies at global tick 50, mid-round-1 of an 8-rank halo) is replayed
across a grid of {heartbeat timeout ladder + backstop-only} x
{shrink, respawn}, each cell a full deterministic
:func:`repro.resilience.cluster.run_resilient` run executed through
:mod:`repro.fleet` as ``rank_chaos`` jobs (content-addressed caching
for free).

Per cell the payload keeps the recovery-latency decomposition:
detection latency (kill -> first suspicion; bounded by ``timeout +
max_route_rtt``), agreement ticks (the survivors' vote rounds), and
total recovery ticks (all non-committed time: aborted epochs +
agreement), against end-to-end makespan. The expected shape: detection
latency tracks the timeout ladder almost linearly while agreement cost
stays flat — the paper-level argument for aggressive timeouts once the
no-false-positive margin is provable.

Usage::

    PYTHONPATH=src python -m repro.bench.resilience [--out PATH]
    repro-bench resilience [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.resilience.cluster import ResilienceReport
from repro.util.cli import positive

__all__ = ["TIMEOUT_LADDER", "RECOVERY_MODES", "iter_resilience_jobs", "run_bench", "main"]

SCHEMA = "repro.bench.resilience/v1"

DEFAULT_RANKS = 8
DEFAULT_ROUNDS = 3
DEFAULT_SIZE = 512

#: Heartbeat timeout ladder (ticks); ``None`` = no heartbeats at all,
#: recovery rides the stall/transport backstop (the worst case every
#: detector configuration must beat).
TIMEOUT_LADDER: tuple[int | None, ...] = (32, 64, 128, 256, None)
RECOVERY_MODES: tuple[str, ...] = ("shrink", "respawn")

#: The fixed fail-stop every cell replays: seeded-schedule variance
#: would drown the detector signal the sweep exists to expose.
_VICTIM = 3
_KILL_TICK = 50
_HB_PERIOD = 16


def iter_resilience_jobs(*, ranks: int, rounds: int, size: int):
    """Lazily enumerate the grid as fleet jobs (stable cell order)."""
    from repro.fleet import JobSpec

    for recovery in RECOVERY_MODES:
        for timeout in TIMEOUT_LADDER:
            yield JobSpec(
                kind="rank_chaos",
                params={
                    "app": "halo",
                    "ranks": ranks,
                    "rounds": rounds,
                    "size": size,
                    "topology": "torus",
                    "placement": "block",
                    "recovery": recovery,
                    "plan": {
                        "seed": 0,
                        "kills": 0,
                        "horizon": 1024,
                        "victims": [_VICTIM],
                        "kill_ticks": [_KILL_TICK],
                    },
                    "heartbeat": (
                        {"period": _HB_PERIOD, "timeout": timeout}
                        if timeout is not None
                        else None
                    ),
                    "record": False,
                },
            )


def _cell(report: ResilienceReport, status: str) -> dict:
    params = report.params
    results = report.results
    hb = params["heartbeat"]
    return {
        "recovery": params["recovery"],
        "timeout": hb["timeout"] if hb is not None else None,
        "detector": "heartbeat" if hb is not None else "backstop",
        "ok": report.ok,
        "cached": status == "cached",
        "kills": len(results["kills"]),
        "failures_detected": results["failures_detected"],
        "false_suspicions": len(results["false_suspicions"]),
        "backstop_aborts": results["backstop_aborts"],
        "detection_latency": results["detection_latency_max"],
        "agreement_ticks": results["agreement_ticks"],
        "recovery_ticks": results["recovery_ticks"],
        "elapsed_ticks": results["elapsed_ticks"],
        "shrinks": results["shrinks"],
        "restarts": results["restarts"],
    }


def run_bench(
    *,
    ranks: int = DEFAULT_RANKS,
    rounds: int = DEFAULT_ROUNDS,
    size: int = DEFAULT_SIZE,
    cache_dir: str | None = None,
) -> dict:
    """Run the full grid and return the BENCH_resilience payload."""
    from repro.fleet import run_jobs

    run = run_jobs(
        iter_resilience_jobs(ranks=ranks, rounds=rounds, size=size),
        cache_dir=cache_dir,
    )
    run.require_ok()
    cells = [_cell(outcome.result, outcome.status) for outcome in run.outcomes]
    return {
        "schema": SCHEMA,
        "config": {
            "ranks": ranks,
            "rounds": rounds,
            "size": size,
            "victim": _VICTIM,
            "kill_tick": _KILL_TICK,
            "heartbeat_period": _HB_PERIOD,
        },
        "cells": cells,
        "failures": [
            f"{c['recovery']}/timeout={c['timeout']}"
            for c in cells
            if not c["ok"] or c["false_suspicions"]
        ],
        "fleet": run.report.summary(),
    }


def format_table(payload: dict) -> str:
    header = (
        f"{'recovery':<10}{'detector':<11}{'timeout':>8}"
        f"{'detect':>8}{'agree':>7}{'recover':>9}{'total':>7}  ok"
    )
    lines = [header, "-" * len(header)]
    for cell in payload["cells"]:
        timeout = "-" if cell["timeout"] is None else str(cell["timeout"])
        lines.append(
            f"{cell['recovery']:<10}{cell['detector']:<11}{timeout:>8}"
            f"{cell['detection_latency']:>8}{cell['agreement_ticks']:>7}"
            f"{cell['recovery_ticks']:>9}{cell['elapsed_ticks']:>7}"
            f"  {'yes' if cell['ok'] else 'NO'}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="recovery-latency sweep: detector tuning x repair mode"
    )
    parser.add_argument("--ranks", type=positive, default=DEFAULT_RANKS)
    parser.add_argument("--rounds", type=positive, default=DEFAULT_ROUNDS)
    parser.add_argument("--size", type=positive, default=DEFAULT_SIZE)
    parser.add_argument(
        "--cache-dir", default=None, help="content-addressed result cache"
    )
    parser.add_argument(
        "--out", default="BENCH_resilience.json", help="output JSON path"
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
