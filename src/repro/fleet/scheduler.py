"""The fleet's one loop: each job is answered from the cache or run inline.

:func:`run_jobs` consumes a *lazy* stream of :class:`JobSpec`s (a
generator is fine — a 220-schedule soak never materializes its grid)
in stream order. A job the cache can answer is ``cached``; any other
runs here, through :func:`repro.fleet.worker.run_spec`, and is ``ok``
and written to the cache, or, if it raises, ``quarantined`` once with
``Type: message`` and never cached. Every result — fresh or cached —
is decoded from its :mod:`repro.fleet.codec` payload, so a warm rerun
is byte-identical to a cold one.

The grids are independent deterministic cells, but a spawn pool never
paid for itself here: every caller measured 0.56–0.94× at two workers
on two cores. What pays is the content-addressed cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.fleet import worker
from repro.fleet.cache import ResultCache
from repro.fleet.codec import decode_result
from repro.fleet.job import JobSpec
from repro.fleet.kinds import kind_salt
from repro.fleet.report import FleetReport

__all__ = ["FleetError", "FleetRun", "JobOutcome", "run_jobs"]

#: Histogram bounds for per-job latency (seconds).
_LATENCY_BUCKETS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 120.0)


class FleetError(RuntimeError):
    """A run finished with quarantined jobs the caller required."""


@dataclass(slots=True)
class JobOutcome:
    """Terminal state of one job: ok, cached, or quarantined."""

    index: int
    spec: JobSpec
    digest: str
    status: str  # "ok" | "cached" | "quarantined"
    latency_s: float = 0.0
    error: str = ""
    result: Any = None
    payload: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass(slots=True)
class FleetRun:
    """Everything one run produced, in job-index order."""

    outcomes: list[JobOutcome]
    report: FleetReport

    def results(self) -> list[Any]:
        """Decoded results in job order (None for quarantined jobs)."""
        return [outcome.result for outcome in self.outcomes]

    def require_ok(self) -> "FleetRun":
        bad = [o for o in self.outcomes if not o.ok]
        if bad:
            lines = ", ".join(
                f"#{o.index} {o.spec.kind} ({o.error or 'failed'})" for o in bad[:5]
            )
            raise FleetError(f"{len(bad)} job(s) quarantined: {lines}")
        return self


def _run_one(index: int, spec: JobSpec, cache: ResultCache | None) -> JobOutcome:
    """One job: answered from ``cache``, else run; quarantined if it raises."""
    digest = spec.digest(kind_salt(spec.kind))
    outcome = JobOutcome(index=index, spec=spec, digest=digest, status="cached")
    payload = cache.get(digest) if cache is not None else None
    if payload is None:
        start = time.monotonic()
        try:
            payload = worker.run_spec(spec)
        except Exception as exc:  # noqa: BLE001 - quarantine semantics
            outcome.status, outcome.error = "quarantined", f"{type(exc).__name__}: {exc}"
            return outcome
        outcome.status, outcome.latency_s = "ok", time.monotonic() - start
        if cache is not None:
            cache.put(digest, spec, payload)
    outcome.payload, outcome.result = payload, decode_result(payload)
    return outcome


def run_jobs(
    specs: Iterable[JobSpec],
    *,
    cache_dir: str | None = None,
    registry=None,
    tracer=None,
) -> FleetRun:
    """Run a job stream to completion; outcomes in job-index order.

    ``registry`` receives ``fleet.jobs{status}``, ``fleet.cache_hits`` /
    ``fleet.cache_misses`` and the ``fleet.job_seconds`` histogram;
    ``tracer`` gets one complete event per job on the ``fleet`` track.
    """
    cache = ResultCache(cache_dir) if cache_dir else None
    track = tracer.track("fleet", "jobs") if tracer is not None and tracer.enabled else None
    t0 = time.monotonic()
    outcomes = []
    for index, spec in enumerate(specs):
        start_s = time.monotonic() - t0
        outcome = _run_one(index, spec, cache)
        outcomes.append(outcome)
        if registry is not None:
            registry.counter("fleet.jobs").labels(status=outcome.status).inc()
            if cache is not None:
                hit = outcome.status == "cached"
                registry.counter("fleet.cache_hits" if hit else "fleet.cache_misses").inc()
            if outcome.status == "ok":
                registry.histogram(
                    "fleet.job_seconds", "per-job wall-clock latency", buckets=_LATENCY_BUCKETS
                ).observe(outcome.latency_s)
        if track is not None:
            tracer.complete(
                track,
                f"{spec.kind}#{index}",
                start_s * 1e6,
                outcome.latency_s * 1e6,
                cat="fleet",
                args={"status": outcome.status, "digest": outcome.digest[:12]},
            )
    report = FleetReport.from_outcomes(
        outcomes,
        wall_s=time.monotonic() - t0,
        cache_stats=cache.stats() if cache is not None else None,
    )
    return FleetRun(outcomes=outcomes, report=report)
