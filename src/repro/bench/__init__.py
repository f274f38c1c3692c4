"""Figure 8 message-rate benchmark harness."""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "pingpong": "PAPER_K PAPER_REPETITIONS PingPongBench RateResult format_figure8 run_figure8",
    "scenarios": "PAPER_BINS PAPER_IN_FLIGHT PAPER_THREADS SCENARIOS Scenario scenario_by_name",
})
