"""Command-line entry point: ``repro-analyze``.

Regenerates the paper's analysis outputs from synthetic traces (or a
DUMPI-text trace directory passed with ``--trace-dir``):

    repro-analyze --figure 6
    repro-analyze --figure 7 --bins 1,32,128
    repro-analyze --table 2
    repro-analyze --app "BoxLib CNS" --bins 1,32,128
    repro-analyze --trace-dir /path/to/dumpi --bins 32
    repro-analyze sweep --jobs 4 --cache-dir .fleet-cache

``sweep`` runs the full application x bins grid; with ``--jobs N`` it
fans out over a :mod:`repro.fleet` worker pool and with
``--cache-dir`` re-runs only the changed cells (results are
byte-identical to a serial run either way). The same two flags apply
to ``--figure 6``/``--figure 7``, which are grid sweeps too.
"""

from __future__ import annotations

import argparse
import sys

from repro.analyzer.processing import analyze
from repro.analyzer.report import (
    format_figure6,
    format_figure7,
    format_memory,
    format_table2,
)
from repro.analyzer.sweep import FIGURE7_BINS, sweep_applications, sweep_trace
from repro.traces.reader import load_trace
from repro.traces.synthetic import app_names, generate

__all__ = ["main"]


def _parse_bins(text: str) -> tuple[int, ...]:
    try:
        bins = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad bins list {text!r}") from None
    if not bins or any(b <= 0 for b in bins):
        raise argparse.ArgumentTypeError("bins must be positive integers")
    return bins


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="MPI trace analyzer (reproduction of the paper's C2 artifact)",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=("sweep",),
        help="sweep: run the application x bins grid (honours --jobs/--cache-dir)",
    )
    parser.add_argument("--figure", type=int, choices=(6, 7), help="regenerate a figure")
    parser.add_argument("--table", type=int, choices=(2,), help="regenerate a table")
    parser.add_argument("--app", help="analyze one registered application")
    parser.add_argument("--trace-dir", help="analyze a DUMPI-text trace directory")
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("LEFT", "RIGHT"),
        help="compare two trace directories' matching behaviour",
    )
    parser.add_argument(
        "--bins", type=_parse_bins, default=FIGURE7_BINS, help="comma-separated bin counts"
    )
    parser.add_argument("--rounds", type=int, default=6, help="synthetic trace rounds")
    parser.add_argument(
        "--processes", type=int, default=None, help="override process count for generation"
    )
    parser.add_argument("--list", action="store_true", help="list registered applications")
    parser.add_argument(
        "--memory",
        action="store_true",
        help="print the §III-E memory-footprint report: per-application "
        "DPA footprints at each bin count, flagging configurations that "
        "overflow the BF3 L2/L3 caches (FALLBACK past L3)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fleet worker processes for grid sweeps (1 = inline)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache for grid sweeps",
    )
    parser.add_argument(
        "--plot", action="store_true", help="render figures as terminal bar charts"
    )
    parser.add_argument(
        "--full-report",
        action="store_true",
        help="with --app or --trace-dir: print the full matching profile",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="with --app or --trace-dir: write the trace as Perfetto-loadable "
        "Chrome trace_event JSON (virtual walltime)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="with --app or --trace-dir: write the per-bins analysis metrics "
        "as a repro.obs snapshot (JSON)",
    )
    return parser


def _write_obs(trace, results, args) -> None:
    """Emit observability artifacts for one analyzed trace
    (``results``: bins -> AppAnalysis)."""
    if args.trace_out:
        from repro.obs.trace import mpi_trace_to_chrome

        mpi_trace_to_chrome(trace).write(args.trace_out)
        print(f"trace: {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        for bins, analysis in results.items():
            prefix = f"analysis.bins{bins}"
            registry.register_stats(f"{prefix}.depth", analysis.depth)
            registry.add_collector(
                prefix,
                lambda a=analysis: {
                    "unique_pairs": float(a.unique_pairs),
                    "unique_tags": float(a.unique_tags()),
                    "total_ops": float(a.total_ops),
                    "p2p_fraction": a.p2p_fraction(),
                    "nprocs": float(a.nprocs),
                },
            )
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            fp.write(registry.snapshot().to_json())
        print(f"metrics: {args.metrics_out}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list:
        print("\n".join(app_names()))
        return 0
    if args.table == 2:
        print(format_table2())
        return 0
    if args.memory:
        if args.trace_dir:
            trace = load_trace(args.trace_dir)
            results = {trace.name: sweep_trace(trace, args.bins)}
        else:
            results = sweep_applications(
                bins_list=args.bins,
                rounds=args.rounds,
                processes=args.processes,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
            )
            if args.app:
                results = {args.app: results[args.app]}
        print(format_memory(results))
        return 0
    if args.command == "sweep":
        results, report = sweep_applications(
            bins_list=args.bins,
            rounds=args.rounds,
            processes=args.processes,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            with_report=True,
        )
        print(format_figure7(results))
        print(f"fleet: {report.summary()}", file=sys.stderr)
        return 0
    if args.figure == 6:
        results = sweep_applications(
            bins_list=(1,),
            rounds=args.rounds,
            processes=args.processes,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        analyses = {name: per_bins[1] for name, per_bins in results.items()}
        print(format_figure6(analyses))
        if args.plot:
            from repro.traces.model import OpGroup
            from repro.util.asciiplot import hbar_chart

            print("\np2p share per application:")
            print(
                hbar_chart(
                    {
                        name: 100.0 * analysis.call_mix.get(OpGroup.P2P, 0.0)
                        for name, analysis in analyses.items()
                    },
                    unit="%",
                    sort=True,
                )
            )
        return 0
    if args.figure == 7:
        results = sweep_applications(
            bins_list=args.bins,
            rounds=args.rounds,
            processes=args.processes,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
        )
        print(format_figure7(results))
        if args.plot:
            from repro.analyzer.report import figure7_rows
            from repro.util.asciiplot import depth_series

            rows = [(name, mean) for name, mean, _peak in figure7_rows(results)]
            print("\nmean experienced depth (bar scale shared):")
            print(depth_series(rows))
        return 0
    if args.compare:
        from repro.analyzer.compare import compare_analyses

        bins = args.bins[0]
        left = analyze(load_trace(args.compare[0]), bins)
        right = analyze(load_trace(args.compare[1]), bins)
        report = compare_analyses(left, right)
        print(report.format())
        return 0 if report.ok else 1
    if args.trace_dir or args.app:
        if args.trace_dir:
            trace = load_trace(args.trace_dir)
        else:
            trace = generate(args.app, processes=args.processes, rounds=args.rounds)
        results = sweep_trace(trace, args.bins)
        if args.full_report:
            from repro.analyzer.fullreport import format_app_report

            print(format_app_report(trace, analyses=results))
        else:
            print(format_figure7({trace.name: results}))
        _write_obs(trace, results, args)
        return 0
    build_parser().print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
