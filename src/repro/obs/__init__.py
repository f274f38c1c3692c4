"""``repro.obs`` — unified simulated-time observability.

One layer, three concerns:

* :mod:`repro.obs.registry` — metrics (Counter / Gauge / Histogram
  with labels; associative snapshot merge; JSON export);
* :mod:`repro.obs.trace` — span tracing stamped in *simulated* clocks
  (DPA cycles, reliability ticks, virtual walltime), exported as
  Chrome ``trace_event`` JSON for Perfetto;
* :mod:`repro.obs.probe` — ``@probe`` hook points with a null-sink
  fast path (disabled tracing is near free; CI enforces the bound via
  :mod:`repro.obs.overhead`);
* :mod:`repro.obs.ledger` — the per-message flight recorder: every
  message gets a lifecycle record of simulated-time phase transitions
  across the whole offload stack, analyzed by
  :mod:`repro.obs.attribution` (conserved latency waterfall),
  :mod:`repro.obs.critpath` (critical-path chains), and
  :mod:`repro.obs.flows` (Perfetto flow-event export) — all reachable
  via the ``repro-obs`` CLI (:mod:`repro.obs.cli`).

* :mod:`repro.obs.timeline` — the simulated-clock time-series sampler:
  registered gauges polled into bounded rings, rendered as terminal
  sparklines or exported as Perfetto counter tracks;
* :mod:`repro.obs.health` — the streaming rules engine over sampled
  series (threshold with hysteresis, rate-of-change, EWMA drift)
  emitting typed :class:`~repro.obs.health.HealthEvent` alarms.

Adapters for the existing stack live in :mod:`repro.obs.hooks`;
``python -m repro.obs.report`` renders metric snapshots in the
terminal and ``python -m repro.obs.validate`` checks emitted traces.
"""

from repro.util.exports import lazy_exports

# The ``probe`` decorator is deliberately *not* re-exported: the package
# attribute must keep naming the ``repro.obs.probe`` submodule
# (``from repro.obs import probe``); import the decorator from there.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "hooks": (
        "DegradedWindowWatcher EngineTraceObserver attach_engine_observer register_stack_metrics"
    ),
    "health": (
        "DriftRule HealthEvent HealthMonitor HealthReport HealthRule RateRule Severity "
        "ThresholdRule default_rules"
    ),
    "ledger": "FlightRecorder LedgerDump MessageRecord NULL_RECORDER NullRecorder",
    "registry": "Counter Gauge Histogram MetricsRegistry MetricsSnapshot",
    "probe": "subscribe subscribed",
    "timeline": (
        "NULL_SAMPLER NullSampler TimeSeries Timeline TimelineSampler install_stack_probes "
        "timeline_to_chrome"
    ),
    "trace": "NULL_TRACER NullTracer ScopedTracer SpanTracer mpi_trace_to_chrome",
    "validate": "validate_chrome_trace",
})
