"""Cached experiment execution with repro.fleet.

Runs a small Figure 7 slice cold, then again against the warm result
cache, and shows that both produce byte-identical analyses while the
warm run executes nothing. Then demonstrates the failure semantics: a
job kind that always raises is quarantined into the report instead of
killing the sweep, and is never cached.

Run:

    PYTHONPATH=src python examples/cached_sweep.py
"""

from __future__ import annotations

import tempfile

from repro.analyzer.sweep import sweep_applications
from repro.fleet import JobSpec, register_kind, run_jobs

APPS = ["AMG", "BigFFT", "MiniFe"]
BINS = (1, 32)


def flatten(results) -> str:
    return "".join(
        results[name][bins].to_json()
        for name in sorted(results)
        for bins in sorted(results[name])
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="fleet-example-") as cache_dir:
        grid = dict(bins_list=BINS, rounds=2, names=APPS, cache_dir=cache_dir, with_report=True)
        # -- 1. cold: every cell runs and is written to the cache -------
        cold_results, cold = sweep_applications(**grid)
        # -- 2. warm: every cell is answered from the cache -------------
        warm_results, warm = sweep_applications(**grid)

        assert warm.executed == 0 and warm.cached == cold.total
        assert flatten(cold_results) == flatten(warm_results)
        print(f"cold run : {cold.summary()}")
        print(f"warm run : {warm.summary()}")
        print(f"identical: cold == warm ({cold.total} cells)")

        # -- 3. quarantine: a poisoned job does not kill the sweep ------
        def never_works(params, seed):
            raise RuntimeError("this job kind always fails")

        register_kind("example_fail", never_works)
        run = run_jobs(
            [
                JobSpec(kind="analyze_app", params={"app": "AMG", "bins": 32, "rounds": 2}),
                JobSpec(kind="example_fail"),
            ],
            cache_dir=cache_dir,
        )
    statuses = [outcome.status for outcome in run.outcomes]
    print(f"statuses : {statuses}")
    assert statuses == ["cached", "quarantined"]
    assert run.report.cache["writes"] == 0  # a failure is never cached
    print(f"error    : {run.outcomes[1].error}")
    print(f"report   : {run.report.summary()}")


if __name__ == "__main__":
    main()
