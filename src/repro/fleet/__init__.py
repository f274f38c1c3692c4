"""repro.fleet — cached experiment execution.

The paper's evaluation is a grid of *independent* deterministic
simulations (traces x bin counts x matcher strategies x chaos
schedules). ``repro.fleet`` turns any such simulation into a **job** —
a pure-literal spec plus a seed — and runs whole grids through one
cached loop:

* :class:`~repro.fleet.job.JobSpec` — the unit of work: a registered
  *kind* (``analyze_app``, ``chaos_run``, ``bench_scenario``), literal
  parameters, and a seed. Specs hash to a stable content digest.
* :class:`~repro.fleet.cache.ResultCache` — content-addressed on-disk
  memoization keyed by ``sha256(spec, code-version salt)``; re-running
  a sweep only executes the changed cells.
* :func:`~repro.fleet.scheduler.run_jobs` — takes each job in stream
  order, answers it from the cache or runs it inline, quarantines a
  job that raises, and exports metrics / spans through :mod:`repro.obs`.

The determinism contract: results come back in stream order, and every
result — executed or loaded from cache — passes through the same JSON
codec, so a warm rerun is byte-identical to a cold one.
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cache": "ResultCache",
    "job": "JobSpec",
    "kinds": "register_kind",
    "report": "FleetReport",
    "scheduler": "FleetError FleetRun JobOutcome run_jobs",
})
