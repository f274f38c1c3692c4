"""Simulated-clock time-series sampling — the continuous-telemetry layer.

Everything the registry (:mod:`repro.obs.registry`) exports is an
end-state aggregate: one number per counter after the run. The paper's
own analysis (the Fig. 7 queue-depth study, the §III-E budget the
pressure layer reacts to) is about *dynamics* — how deep the UMQ got
and when, how occupancy approached the budget, when a link saturated.
This module adds that axis:

* :class:`TimeSeries` — one metric's ``(tick, value)`` samples in a
  bounded ring (old samples fall off; the drop count is kept, so a
  truncated series is visibly truncated).
* :class:`Timeline` — a named set of series with a stable JSON schema
  (``repro.obs.timeline/v1``), ASCII rendering, and Perfetto
  counter-track export (one ``C`` event per sample, loadable next to
  the span traces).
* :class:`TimelineSampler` — the periodic poller: subsystems register
  zero-argument gauge probes; the simulation's driver loop calls
  :meth:`TimelineSampler.poll` with the current *simulated* tick, and
  the sampler reads every probe whenever one ``interval`` has elapsed.
  Like the tracer and the flight recorder, there is a null variant
  (:data:`NULL_SAMPLER`) whose :meth:`poll` is a constant no-op, so an
  un-instrumented run pays one attribute test per driver round and
  allocates nothing.

Probe naming follows the registry's dotted convention; the standard
stack probes (installed by :func:`install_stack_probes` in the chaos
harness, :meth:`repro.pressure.budget.PressureMeter.timeline_probes`,
:func:`repro.net.metrics.install_fabric_probes`, and the cluster sims)
are the series the :mod:`repro.obs.health` rules engine watches.
Re-installing a probe under an existing name *replaces* the reader and
continues the series — exactly what engine generations and epoch
rebuilds need.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Mapping
from typing import Any

__all__ = [
    "TimeSeries",
    "Timeline",
    "TimelineSampler",
    "NullSampler",
    "NULL_SAMPLER",
    "install_stack_probes",
    "timeline_to_chrome",
]

TIMELINE_SCHEMA = "repro.obs.timeline/v1"

#: A gauge probe: zero arguments, current value of its metric.
Probe = Callable[[], float]


class TimeSeries:
    """One metric's bounded ring of ``(tick, value)`` samples."""

    __slots__ = ("name", "capacity", "dropped", "_samples")

    def __init__(self, name: str, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        #: Samples evicted by the ring bound (total - retained).
        self.dropped = 0
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, tick: float, value: float) -> None:
        if len(self._samples) == self.capacity:
            self.dropped += 1
        self._samples.append((float(tick), float(value)))

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(self._samples)

    def last(self) -> tuple[float, float] | None:
        return self._samples[-1] if self._samples else None

    def values(self) -> list[float]:
        return [v for _, v in self._samples]

    def __len__(self) -> int:
        return len(self._samples)

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [[t, v] for t, v in self._samples],
        }

    @classmethod
    def from_dict(cls, name: str, payload: Mapping[str, Any]) -> "TimeSeries":
        series = cls(name, int(payload.get("capacity", 1024)))
        for t, v in payload.get("samples", ()):
            series._samples.append((float(t), float(v)))
        series.dropped = int(payload.get("dropped", 0))
        return series


class Timeline:
    """A named set of :class:`TimeSeries` sharing one simulated clock."""

    SCHEMA = TIMELINE_SCHEMA

    def __init__(self, *, interval: float = 0.0, capacity: int = 1024) -> None:
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.series: dict[str, TimeSeries] = {}
        #: Sampling rounds performed (each reads every probe once).
        self.ticks = 0

    def record(self, name: str, tick: float, value: float) -> None:
        series = self.series.get(name)
        if series is None:
            series = TimeSeries(name, self.capacity)
            self.series[name] = series
        series.append(tick, value)

    def __len__(self) -> int:
        return len(self.series)

    # -- JSON ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "ticks": self.ticks,
            "series": {
                name: self.series[name].to_dict() for name in sorted(self.series)
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Timeline":
        timeline = cls(
            interval=float(payload.get("interval", 0.0)),
            capacity=int(payload.get("capacity", 1024)),
        )
        timeline.ticks = int(payload.get("ticks", 0))
        for name, entry in payload.get("series", {}).items():
            timeline.series[str(name)] = TimeSeries.from_dict(str(name), entry)
        return timeline

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(
            {"schema": self.SCHEMA, **self.to_dict()}, indent=indent
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Timeline":
        payload = json.loads(text)
        schema = payload.get("schema", cls.SCHEMA)
        if schema != cls.SCHEMA:
            raise ValueError(f"unsupported schema {schema!r}, expected {cls.SCHEMA!r}")
        return cls.from_dict(payload)

    # -- rendering -----------------------------------------------------

    def render(self, *, width: int = 60, match: str | None = None) -> str:
        """ASCII sparkline per series (terminal Fig. 7)."""
        from repro.util.asciiplot import spark_series

        rows = {
            name: series.values()
            for name, series in sorted(self.series.items())
            if match is None or match in name
        }
        if not rows:
            return "(no series)"
        return spark_series(rows, width=width)


def timeline_to_chrome(timeline: Timeline):
    """Render a timeline as Perfetto counter tracks.

    Each series becomes one ``C`` (counter) event stream on a
    ``timeline`` process row, so queue-depth/occupancy dynamics load
    in Perfetto next to the span traces and flow events.
    """
    from repro.obs.trace import SpanTracer

    tracer = SpanTracer()
    track = tracer.track("timeline", "counters")
    merged: list[tuple[float, str, float]] = []
    for name, series in sorted(timeline.series.items()):
        for tick, value in series.samples:
            merged.append((tick, name, value))
    merged.sort(key=lambda item: (item[0], item[1]))
    for tick, name, value in merged:
        tracer.counter(track, name, tick, {"value": value})
    return tracer


class TimelineSampler:
    """Polls registered gauge probes on a simulated-clock period.

    The sampler never owns a clock: the surrounding driver loop calls
    :meth:`poll` with *its* current tick (wire ticks in the chaos
    stack, fabric ticks under the cluster sims) and the sampler reads
    every probe when at least ``interval`` ticks have elapsed since
    the last sampling round (``interval=0`` samples on every poll).
    """

    enabled = True

    def __init__(self, *, interval: float = 0.0, capacity: int = 1024) -> None:
        self.timeline = Timeline(interval=interval, capacity=capacity)
        self.interval = float(interval)
        self._probes: dict[str, Probe] = {}
        self._listeners: list[Callable[[str, float, float], None]] = []
        self._last: float | None = None

    # -- registration --------------------------------------------------

    def add_probe(self, name: str, fn: Probe) -> None:
        """Register (or replace) the reader behind series ``name``.

        Replacement is deliberate: engine generations and epoch
        rebuilds re-install probes over the same series name and the
        series simply continues on the new object.
        """
        self._probes[name] = fn

    def add_probes(self, probes: Mapping[str, Probe], *, prefix: str = "") -> None:
        p = f"{prefix}." if prefix else ""
        for name, fn in probes.items():
            self.add_probe(f"{p}{name}", fn)

    def add_listener(self, fn: Callable[[str, float, float], None]) -> None:
        """``fn(name, tick, value)`` is called on every sample — the
        attach point the :mod:`repro.obs.health` monitor uses to see
        samples as they happen rather than post hoc."""
        self._listeners.append(fn)

    @property
    def probe_names(self) -> list[str]:
        return sorted(self._probes)

    # -- sampling ------------------------------------------------------

    def poll(self, now: float) -> bool:
        """Sample if a period has elapsed; True when a round ran."""
        if self._last is not None and now - self._last < self.interval:
            return False
        self.sample(now)
        return True

    def sample(self, now: float) -> None:
        """Force one sampling round at tick ``now``."""
        self._last = now
        self.timeline.ticks += 1
        for name in sorted(self._probes):
            value = float(self._probes[name]())
            self.timeline.record(name, now, value)
            for listener in self._listeners:
                listener(name, now, value)


class NullSampler(TimelineSampler):
    """The disabled sampler: every method is a constant no-op.

    Driver loops hold one of these by default and guard their poll
    site with ``sampler.enabled`` (one class-attribute load), so an
    un-instrumented run samples nothing and allocates nothing —
    ``python -m repro.obs.overhead --sampler`` proves the bound.
    """

    enabled = False

    def __init__(self) -> None:
        self.timeline = Timeline()
        self.interval = 0.0
        self._probes = {}
        self._listeners = []
        self._last = None

    def add_probe(self, name: str, fn: Probe) -> None:
        pass

    def add_probes(self, probes: Mapping[str, Probe], *, prefix: str = "") -> None:
        pass

    def add_listener(self, fn) -> None:
        pass

    def poll(self, now: float) -> bool:
        return False

    def sample(self, now: float) -> None:
        pass


#: Shared do-nothing sampler — the default for every ``sampler``
#: parameter in the instrumented drivers.
NULL_SAMPLER = NullSampler()


def install_stack_probes(
    sampler: TimelineSampler,
    *,
    matcher=None,
    engine_stats=None,
    wire=None,
    raw_wire=None,
    meter=None,
    receiver=None,
    prefix: str = "",
) -> None:
    """Install the standard receive-stack probes on ``sampler``.

    Mirrors :func:`repro.obs.hooks.register_stack_metrics`, but as
    live gauges: every reader resolves its object *at sample time*, so
    matcher front-ends that swap engines underneath (fallback,
    recovery, pressure) keep reporting the live generation's queues
    (the host matcher's while degraded). Series:

    ``engine.prq_depth`` / ``engine.umq_depth`` / ``engine.pending``
        Posted-receive, unexpected-queue, and ingress-queue depths.
    ``engine.prq_max_bin`` / ``engine.umq_max_bin``
        Deepest single hash bin (the Fig. 7 signal).
    ``engine.conflict_fraction``
        Cumulative conflicted-thread fraction.
    ``engine.spills`` / ``engine.spill_active``
        Cumulative spill count and the current degraded flag.
    ``rc.retransmits`` / ``rc.rnr_naks`` and ``faults.injected``
        Reliability and fault-injection counters (cumulative).
    ``pressure.*``
        The meter's occupancy/enforcement gauges
        (:meth:`repro.pressure.budget.PressureMeter.timeline_probes`).
    ``receiver.completed``
        Deliveries surfaced so far.
    """
    p = f"{prefix}." if prefix else ""
    if matcher is not None:
        # Every matcher the stack drives answers ``queue_depths()`` for
        # whatever owns its working set *now* — the live engine
        # generation, or the host matcher while degraded.
        depths = matcher.queue_depths

        sampler.add_probe(f"{p}engine.prq_depth", lambda: depths()["prq"])
        sampler.add_probe(f"{p}engine.umq_depth", lambda: depths()["umq"])
        sampler.add_probe(f"{p}engine.pending", lambda: depths()["pending"])
        sampler.add_probe(f"{p}engine.prq_max_bin", lambda: depths()["prq_max_bin"])
        sampler.add_probe(f"{p}engine.umq_max_bin", lambda: depths()["umq_max_bin"])
    if engine_stats is not None:
        sampler.add_probe(
            f"{p}engine.conflict_fraction",
            lambda: engine_stats.conflicts / max(engine_stats.messages, 1),
        )
        sampler.add_probe(
            f"{p}engine.spills", lambda: float(engine_stats.fallback_spills)
        )
        sampler.add_probe(
            f"{p}engine.spill_active",
            lambda: 1.0
            if engine_stats.fallback_spills > engine_stats.fallback_recoveries
            else 0.0,
        )
    if wire is not None and getattr(wire, "stats", None) is not None:
        sampler.add_probe(
            f"{p}rc.retransmits", lambda: float(wire.stats.retransmits)
        )
        sampler.add_probe(f"{p}rc.rnr_naks", lambda: float(wire.stats.rnr_naks))
    if raw_wire is not None and getattr(raw_wire, "stats", None) is not None:
        sampler.add_probe(
            f"{p}faults.injected", lambda: float(raw_wire.stats.total_injected())
        )
    if meter is not None:
        sampler.add_probes(meter.timeline_probes(), prefix=f"{p}pressure")
    if receiver is not None:
        sampler.add_probe(
            f"{p}receiver.completed", lambda: float(len(receiver.completed))
        )
