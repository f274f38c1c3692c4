"""``run_jobs`` semantics: stream order, quarantine, caching, obs export."""

from __future__ import annotations

import pytest

import tests.fleet.jobkinds  # noqa: F401 - registers test_echo / test_fail
from repro.fleet import FleetError, JobSpec, run_jobs
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer


def _echo_specs(n):
    return [JobSpec(kind="test_echo", params={"value": i}, seed=i) for i in range(n)]


class TestSerial:
    def test_results_in_job_order(self):
        run = run_jobs(_echo_specs(4))
        assert [o.status for o in run.outcomes] == ["ok"] * 4
        assert run.results() == [{"value": i, "seed": i} for i in range(4)]
        assert run.report.total == 4
        assert run.report.executed == 4
        assert run.report.ok

    def test_generator_stream(self):
        stream = (JobSpec(kind="test_echo", params={"value": i}) for i in range(3))
        run = run_jobs(stream)
        assert [o.result["value"] for o in run.outcomes] == [0, 1, 2]

    def test_poisoned_job_is_quarantined_not_fatal(self):
        specs = _echo_specs(2) + [JobSpec(kind="test_fail")]
        run = run_jobs(specs)
        assert [o.status for o in run.outcomes] == ["ok", "ok", "quarantined"]
        bad = run.outcomes[2]
        assert bad.error == "RuntimeError: injected failure"
        assert bad.result is None and bad.payload is None
        assert run.report.quarantined == 1
        with pytest.raises(FleetError, match="quarantined"):
            run.require_ok()

    def test_quarantined_ids_surface_in_report(self):
        """Satellite: quarantined job ids are first-class report data,
        so a sweep's nonzero exit is attributable without records."""
        specs = _echo_specs(2) + [JobSpec(kind="test_fail", seed=7)]
        run = run_jobs(specs)
        report = run.report
        assert report.quarantined_ids == ["#2 test_fail seed=7"]
        assert "#2 test_fail seed=7" in report.summary()
        assert report.to_dict()["quarantined_ids"] == ["#2 test_fail seed=7"]
        from repro.fleet import FleetReport

        restored = FleetReport.from_json(report.to_json())
        assert restored.quarantined_ids == report.quarantined_ids
        assert not restored.ok

    def test_clean_run_has_no_quarantined_ids(self):
        run = run_jobs(_echo_specs(2))
        assert run.report.quarantined_ids == []


class TestCache:
    def test_warm_run_executes_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_jobs(_echo_specs(3), cache_dir=cache_dir)
        warm = run_jobs(_echo_specs(3), cache_dir=cache_dir)
        assert cold.report.executed == 3 and cold.report.cached == 0
        assert warm.report.executed == 0 and warm.report.cached == 3
        assert warm.results() == cold.results()
        assert warm.report.cache == {"hits": 3, "misses": 0, "writes": 0}

    def test_quarantined_jobs_are_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_jobs([JobSpec(kind="test_fail")], cache_dir=cache_dir)
        again = run_jobs([JobSpec(kind="test_fail")], cache_dir=cache_dir)
        assert first.outcomes[0].status == "quarantined"
        assert again.outcomes[0].status == "quarantined"
        assert again.report.cached == 0
        assert first.report.cache["writes"] == 0


class TestObs:
    def test_counters_and_trace(self, tmp_path):
        registry = MetricsRegistry()
        tracer = SpanTracer()
        run_jobs(
            _echo_specs(3) + [JobSpec(kind="test_fail")],
            registry=registry,
            tracer=tracer,
            cache_dir=str(tmp_path / "cache"),
        )
        snap = registry.snapshot()
        assert snap.get("fleet.jobs{status=ok}") == 3.0
        assert snap.get("fleet.jobs{status=quarantined}") == 1.0
        assert snap.get("fleet.cache_misses") == 4.0
        assert snap.get("fleet.job_seconds_count") == 3.0
        assert len(tracer) >= 4
