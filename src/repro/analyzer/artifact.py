"""Artifact-layout output (paper appendix, artifact A2).

"After executing the analysis for all applications, the artifact
generates a folder for each application in the analysis, and, for
each application, it generates 6 folders representing the number of
bins used (from 1 to 256, in powers of 2). Then, this data is fed
into the analysis script to generate the plots in the text."

:func:`export_artifact` reproduces that on-disk layout:

    <out>/<application>/<bins>/stats.json
    <out>/<application>/<bins>/datapoints.csv
    <out>/summary.json

so downstream plotting scripts (pandas/matplotlib, per the artifact's
requirements) consume it directly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analyzer.statistics import AppAnalysis
from repro.analyzer.sweep import BIN_SWEEP
from repro.traces.model import Trace
from repro.traces.synthetic import app_names, generate

__all__ = ["export_artifact", "export_trace_analysis", "load_summary"]


def _analysis_record(analysis: AppAnalysis) -> dict:
    return {
        "name": analysis.name,
        "nprocs": analysis.nprocs,
        "bins": analysis.bins,
        "datapoints": analysis.depth.datapoints,
        "mean_depth": analysis.depth.mean_depth,
        "max_depth": analysis.depth.max_depth,
        "mean_posted": analysis.depth.mean_posted,
        "mean_empty_fraction": analysis.depth.mean_empty_fraction,
        "collisions": analysis.depth.collisions,
        "unexpected_total": analysis.depth.unexpected_total,
        "drained_total": analysis.depth.drained_total,
        "call_mix": {group.value: frac for group, frac in analysis.call_mix.items()},
        "wildcard_usage": {
            wc.value: count for wc, count in analysis.wildcard_usage.items()
        },
        "p2p_kinds": {kind.value: count for kind, count in analysis.p2p_kinds.items()},
        "unique_tags": analysis.unique_tags(),
        "unique_pairs": analysis.unique_pairs,
        "total_ops": analysis.total_ops,
    }


def export_trace_analysis(
    trace: Trace, out_dir: Path, bins_list: tuple[int, ...] = BIN_SWEEP
) -> dict[int, AppAnalysis]:
    """Analyze one trace at every bin count and write its folders."""
    from repro.analyzer.processing import analyze, prepare

    prepared = prepare(trace)
    results = {bins: analyze(prepared, bins, keep_datapoints=True) for bins in bins_list}
    app_dir = out_dir / trace.name.replace("/", "_")
    for bins, analysis in results.items():
        bins_dir = app_dir / str(bins)
        bins_dir.mkdir(parents=True, exist_ok=True)
        (bins_dir / "stats.json").write_text(
            json.dumps(_analysis_record(analysis), indent=2, sort_keys=True) + "\n"
        )
        # Raw datapoint timeline for the plotting scripts.
        lines = ["rank,walltime,max_depth,total_posted,unexpected,empty_fraction"]
        lines += [
            f"{p.rank},{p.walltime:.6f},{p.max_depth},{p.total_posted},"
            f"{p.unexpected},{p.empty_fraction:.4f}"
            for p in analysis.datapoints
        ]
        (bins_dir / "datapoints.csv").write_text("\n".join(lines) + "\n")
        # Tag histogram as CSV for the plotting scripts.
        lines = ["tag,count"]
        lines += [f"{tag},{count}" for tag, count in sorted(analysis.tag_usage.items())]
        (bins_dir / "tag_usage.csv").write_text("\n".join(lines) + "\n")
    return results


def export_artifact(
    out_dir: Path | str,
    *,
    bins_list: tuple[int, ...] = BIN_SWEEP,
    rounds: int = 6,
    processes: int | None = None,
    names: list[str] | None = None,
) -> Path:
    """Run the full A2 pipeline: every app x every bin count, on disk."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict[str, dict[str, dict]] = {}
    for name in names if names is not None else app_names():
        trace = generate(name, processes=processes, rounds=rounds)
        results = export_trace_analysis(trace, out_dir, bins_list)
        summary[name] = {
            str(bins): _analysis_record(analysis) for bins, analysis in results.items()
        }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return out_dir


def load_summary(out_dir: Path | str) -> dict:
    """Read back an exported artifact's summary."""
    return json.loads((Path(out_dir) / "summary.json").read_text())
