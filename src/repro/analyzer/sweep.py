"""Bin-count sweeps over applications (Fig. 7 and the artifact's
1..256 powers-of-two output layout).

The application grid is embarrassingly parallel — every (app, bins)
cell is one deterministic :func:`repro.analyzer.processing.analyze`
run — so :func:`sweep_applications` schedules cells through
:mod:`repro.fleet`: ``jobs=N`` fans out over a worker pool and
``cache_dir`` memoizes cells content-addressed, so re-running a sweep
only executes the changed cells. Results are merged in job order and
every cell passes through the fleet codec, which makes parallel output
byte-identical to serial output.
"""

from __future__ import annotations

from typing import Iterator

from repro.analyzer.statistics import AppAnalysis
from repro.fleet import FleetReport, JobSpec, RetryPolicy, run_jobs
from repro.traces.model import Trace
from repro.traces.synthetic import app_names

__all__ = [
    "BIN_SWEEP",
    "FIGURE7_BINS",
    "iter_sweep_jobs",
    "sweep_trace",
    "sweep_applications",
    "sweep_report",
]

#: The artifact's sweep: "6 folders representing the number of bins
#: used (from 1 to 256, in powers of 2)" — i.e. 1..256 stepping x2
#: over six configurations spanning the Fig. 7 points.
BIN_SWEEP: tuple[int, ...] = (1, 8, 32, 64, 128, 256)
#: The three configurations Figure 7 plots.
FIGURE7_BINS: tuple[int, ...] = (1, 32, 128)


def sweep_trace(trace: Trace, bins_list: tuple[int, ...] = BIN_SWEEP) -> dict[int, AppAnalysis]:
    """Analyze one trace at every bin count (prepared once)."""
    from repro.analyzer.processing import analyze, prepare

    prepared = prepare(trace)
    return {bins: analyze(prepared, bins) for bins in bins_list}


def iter_sweep_jobs(
    names: list[str],
    bins_list: tuple[int, ...],
    *,
    rounds: int = 6,
    processes: int | None = None,
) -> Iterator[JobSpec]:
    """Lazily enumerate the (app, bins) grid as fleet jobs.

    Enumeration order (app-major, bins-minor) fixes the job indices
    and therefore the merge order of any run over this grid.
    """
    for name in names:
        for bins in bins_list:
            params = {"app": name, "bins": bins, "rounds": rounds}
            if processes is not None:
                params["processes"] = processes
            yield JobSpec(kind="analyze_app", params=params)


def sweep_applications(
    *,
    bins_list: tuple[int, ...] = FIGURE7_BINS,
    processes: int | None = None,
    rounds: int = 6,
    names: list[str] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    policy: RetryPolicy | None = None,
    registry=None,
    tracer=None,
    fault_hook=None,
    with_report: bool = False,
    strict: bool = True,
):
    """Generate and analyze every registered application.

    ``processes=None`` uses each app's default scale. Returns
    ``results[app][bins]`` — and, with ``with_report=True``, a
    ``(results, FleetReport)`` tuple.

    ``jobs``/``cache_dir`` route the grid through the fleet scheduler;
    the default (``jobs=1``, no cache) runs the cells inline, through
    the same codec, so parallel and serial results are byte-identical.
    Quarantined cells raise :class:`repro.fleet.FleetError` under
    ``strict`` (the default); ``strict=False`` instead omits them from
    the results and leaves the diagnosis to the returned report
    (``report.ok`` / ``report.quarantined_ids``), so callers like the
    CLI can render the surviving grid and still exit nonzero.
    """
    names = list(names) if names is not None else app_names()
    run = run_jobs(
        iter_sweep_jobs(names, bins_list, rounds=rounds, processes=processes),
        jobs=jobs,
        cache_dir=cache_dir,
        policy=policy,
        registry=registry,
        tracer=tracer,
        fault_hook=fault_hook,
    )
    if strict:
        run.require_ok()
    results: dict[str, dict[int, AppAnalysis]] = {name: {} for name in names}
    for outcome in run.outcomes:
        if not outcome.ok:
            continue
        results[outcome.spec.params["app"]][outcome.spec.params["bins"]] = outcome.result
    if with_report:
        return results, run.report
    return results


def sweep_report(**kwargs) -> tuple[dict, FleetReport]:
    """:func:`sweep_applications` with the fleet report attached."""
    return sweep_applications(with_report=True, **kwargs)
