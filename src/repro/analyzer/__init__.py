"""The MPI trace analyzer (contribution C2)."""

from repro.analyzer.artifact import export_artifact, export_trace_analysis, load_summary
from repro.analyzer.commgraph import CommGraphStats, build_comm_graph, graph_stats
from repro.analyzer.compare import ComparisonReport, MetricDelta, compare_analyses
from repro.analyzer.fullreport import format_app_report
from repro.analyzer.model import BinsPrediction, compare_with_measurement, predict
from repro.analyzer.processing import PreparedTrace, analyze, prepare
from repro.analyzer.recommend import Recommendation, recommend_bins
from repro.analyzer.report import (
    depth_reduction_summary,
    figure6_rows,
    figure7_rows,
    format_figure6,
    format_figure7,
    format_table2,
    table2_rows,
)
from repro.analyzer.statistics import AppAnalysis, Datapoint, QueueDepthStats
from repro.analyzer.structures import DepthSnapshot, EmulatedMatcher
from repro.analyzer.replay import ReplayResult, replay_trace
from repro.analyzer.sweep import BIN_SWEEP, FIGURE7_BINS, sweep_applications, sweep_trace

__all__ = [
    "AppAnalysis",
    "BIN_SWEEP",
    "Datapoint",
    "DepthSnapshot",
    "EmulatedMatcher",
    "FIGURE7_BINS",
    "QueueDepthStats",
    "BinsPrediction",
    "CommGraphStats",
    "ComparisonReport",
    "MetricDelta",
    "PreparedTrace",
    "Recommendation",
    "ReplayResult",
    "analyze",
    "build_comm_graph",
    "compare_analyses",
    "compare_with_measurement",
    "graph_stats",
    "predict",
    "prepare",
    "export_artifact",
    "export_trace_analysis",
    "load_summary",
    "recommend_bins",
    "replay_trace",
    "depth_reduction_summary",
    "figure6_rows",
    "figure7_rows",
    "format_app_report",
    "format_figure6",
    "format_figure7",
    "format_table2",
    "sweep_applications",
    "sweep_trace",
    "table2_rows",
]
