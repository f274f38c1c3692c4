"""Command-line entry point: ``repro-msgrate``.

Regenerates Figure 8:

    repro-msgrate                      # CI-scale repetitions
    repro-msgrate --repetitions 500    # full paper parameters
    repro-msgrate --scenario wc-fp     # one configuration only
    repro-msgrate --cache-dir .fleet-cache

Each scenario is one :mod:`repro.fleet` job; ``--cache-dir`` memoizes
per-scenario results content-addressed, and a warm rerun prints the
same bytes.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.pingpong import PAPER_K, RateResult, format_figure8
from repro.bench.scenarios import PAPER_IN_FLIGHT, PAPER_THREADS
from repro.fleet import JobSpec, run_jobs
from repro.util.cli import positive

__all__ = ["main", "iter_bench_jobs"]

#: ``run_all`` order: the three optimistic scenarios, then the two
#: CPU baselines.
_ALL_SCENARIOS = ("nc", "wc-fp", "wc-sp", "mpi-cpu", "rdma-cpu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-msgrate",
        description="Figure 8 message-rate benchmark (ping-pong, §VI)",
    )
    parser.add_argument("--k", type=positive, default=PAPER_K, help="messages per sequence")
    parser.add_argument(
        "--repetitions", type=positive, default=50, help="sequences per run (paper: 500)"
    )
    parser.add_argument(
        "--in-flight", type=positive, default=PAPER_IN_FLIGHT, help="posted-receive window"
    )
    parser.add_argument(
        "--threads", type=positive, default=PAPER_THREADS, help="DPA block threads"
    )
    parser.add_argument(
        "--scenario",
        choices=_ALL_SCENARIOS + ("all",),
        default="all",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache for scenario runs",
    )
    parser.add_argument(
        "--plot", action="store_true", help="render rates as a terminal bar chart"
    )
    return parser


def iter_bench_jobs(scenarios, *, k, repetitions, in_flight, threads):
    """Lazily enumerate Figure 8 scenarios as fleet jobs (paper order)."""
    for name in scenarios:
        yield JobSpec(
            kind="bench_scenario",
            params={
                "scenario": name,
                "k": k,
                "repetitions": repetitions,
                "in_flight": in_flight,
                "threads": threads,
            },
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scenarios = _ALL_SCENARIOS if args.scenario == "all" else (args.scenario,)
    run = run_jobs(
        iter_bench_jobs(
            scenarios,
            k=args.k,
            repetitions=args.repetitions,
            in_flight=args.in_flight,
            threads=args.threads,
        ),
        cache_dir=args.cache_dir,
    )
    run.require_ok()
    results: list[RateResult] = run.results()
    print(f"fleet: {run.report.summary()}", file=sys.stderr)
    print(format_figure8(results))
    if args.plot:
        from repro.util.asciiplot import hbar_chart

        print("\nmessage rate (Mmsg/s):")
        print(
            hbar_chart(
                {r.label: round(r.message_rate / 1e6, 2) for r in results},
                unit=" M/s",
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
