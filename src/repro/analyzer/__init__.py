"""The MPI trace analyzer (contribution C2)."""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "model": "BinsPrediction compare_with_measurement predict",
    "processing": "PreparedTrace analyze prepare",
    "report": (
        "depth_reduction_summary figure6_rows figure7_rows format_figure6 format_figure7 "
        "format_table2 table2_rows"
    ),
    "statistics": "AppAnalysis Datapoint QueueDepthStats",
    "structures": "DepthSnapshot EmulatedMatcher",
    "replay": "ReplayResult replay_trace",
    "sweep": "BIN_SWEEP FIGURE7_BINS sweep_applications sweep_trace",
})
