"""Full per-application report: every analysis lens in one page.

Combines the analyzer's views of a single trace — call mix, queue
depth sweep, wildcard and tag usage, communication topology, engine
replay, occupancy theory, and the bin-count recommendation — into one
formatted report. Exposed on the CLI as
``repro-analyze --app <name> --full-report``.
"""

from __future__ import annotations

from repro.analyzer.commgraph import graph_stats
from repro.analyzer.model import predict
from repro.analyzer.processing import analyze, prepare
from repro.analyzer.recommend import recommend_bins
from repro.analyzer.replay import replay_trace
from repro.analyzer.statistics import AppAnalysis
from repro.traces.model import OpGroup, Trace

__all__ = ["format_app_report"]


def format_app_report(
    trace: Trace,
    *,
    bins_list: tuple[int, ...] = (1, 32, 128),
    analyses: dict[int, AppAnalysis] | None = None,
) -> str:
    """One-page matching profile of a trace.

    ``analyses`` (bins -> analysis of this trace) is for a caller that
    already swept it; those bin counts are then the ones shown.
    """
    prepared = prepare(trace)
    if analyses is None:
        analyses = {bins: analyze(prepared, bins) for bins in bins_list}
    lines: list[str] = []
    lines.append(f"=== {trace.name} — matching profile ===")
    lines.append(f"ranks: {trace.nprocs}   trace ops: {trace.total_ops()}")

    # Call mix (Fig. 6 lens).
    mix = trace.call_mix()
    lines.append(
        "call mix: "
        f"p2p {mix[OpGroup.P2P]:.1%}, "
        f"collectives {mix[OpGroup.COLLECTIVE]:.1%}, "
        f"one-sided {mix[OpGroup.ONE_SIDED]:.1%}"
    )

    # Topology lens.
    topo = graph_stats(trace)
    lines.append(
        f"topology: {topo.edges} edges, max in-degree {topo.max_in_degree}, "
        f"symmetry {topo.symmetry:.0%}, hotspot x{topo.hotspot_factor:.1f}"
        + (", neighbor-exchange signature" if topo.is_neighbor_exchange() else "")
    )

    # Queue-depth sweep (Fig. 7 lens).
    lines.append("")
    lines.append(f"{'bins':>6s} {'mean':>7s} {'p95':>7s} {'max':>5s} {'collisions':>11s}")
    for bins, analysis in analyses.items():
        depth = analysis.depth
        lines.append(
            f"{bins:6d} {depth.mean_depth:7.2f} {depth.p95_depth:7.2f} "
            f"{depth.max_depth:5d} {depth.collisions:11d}"
        )

    # Key population and wildcard usage (the same at every bin count).
    reference = next(iter(analyses.values()))
    lines.append("")
    lines.append(
        f"keys: {reference.unique_pairs} unique (source, tag) pairs, "
        f"{reference.unique_tags()} tags"
    )
    if reference.wildcard_usage:
        usage = ", ".join(
            f"{wc.value}: {count}" for wc, count in sorted(
                reference.wildcard_usage.items(), key=lambda item: item[0].value
            )
        )
        lines.append(f"receive wildcard classes: {usage}")

    # Occupancy theory check at the largest sweep point.
    largest = list(analyses)[-1]
    theory = predict(reference.unique_pairs, 3 * largest)
    lines.append(
        f"theory @{largest} bins: expected max load "
        f"{theory.expected_max_load:.1f}, empty fraction "
        f"{theory.expected_empty_fraction:.2f}"
    )

    # Engine replay (offload suitability).
    replay = replay_trace(trace)
    if replay.messages:
        lines.append(
            f"engine replay: conflict rate {replay.conflict_rate:.1%}, "
            f"paths optimistic/fast/slow = "
            f"{replay.optimistic}/{replay.fast_path}/{replay.slow_path} "
            f"-> offload {'friendly' if replay.offload_friendly() else 'HOSTILE'}"
        )
    else:
        lines.append("engine replay: no p2p traffic")

    # Sizing recommendation.
    rec = recommend_bins(prepared, target_depth=1.0)
    lines.append(
        f"sizing: {rec.bins} bins reach mean depth {rec.mean_depth:.2f} "
        f"({rec.bin_table_bytes / 1024:.1f} KiB of bin tables)"
    )
    return "\n".join(lines)
