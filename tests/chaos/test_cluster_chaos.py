"""Cluster network-fault soak (satellite 5's chaos half).

Faults cost time, never correctness: every profile x seed must end
with all sends delivered and zero C2 ordering violations, and the
partition profile must actually exercise recovery (drops observed).
"""

import io

import repro.chaos.cli as cli
from repro.chaos.runner import run_suite
from repro.chaos.suites import CLUSTER_PROFILES, SUITES


class TestSoak:
    def test_all_profiles_zero_violations(self):
        out, err = io.StringIO(), io.StringIO()
        result = run_suite(SUITES["cluster"], 2, ranks=8, rounds=2, out=out, err=err)
        assert result.ok, err.getvalue()
        assert result.runs == 2 * len(CLUSTER_PROFILES)
        assert result.totals["violations"] == 0

    def test_partition_profile_exercises_recovery(self):
        out = io.StringIO()
        result = run_suite(SUITES["cluster"], 3, ranks=8, rounds=2, out=out, err=out)
        assert result.ok, out.getvalue()
        # The partition windows must have actually dropped packets —
        # a soak that never faults proves nothing.
        assert result.totals["drops"] > 0
        assert result.totals["retransmits"] > 0

    def test_profiles_cover_fault_families(self):
        assert CLUSTER_PROFILES["clean"].is_clean
        assert CLUSTER_PROFILES["flaps"].flap_links > 0
        assert CLUSTER_PROFILES["partition"].partition_at >= 0


class TestCli:
    def test_main_exits_zero(self, capsys):
        assert cli.main(["cluster", "--schedules", "1", "--rounds", "1"]) == 0
        assert "cluster soak:" in capsys.readouterr().out

    def test_chaos_frontdoor_dispatches(self, capsys, monkeypatch):
        calls = []

        def spy(suite, **kwargs):
            calls.append((suite, kwargs))
            return run_suite(suite, **kwargs)

        monkeypatch.setattr(cli, "run_suite", spy)
        assert cli.main(["cluster", "--schedules", "1", "--rounds", "1"]) == 0
        assert "cluster soak:" in capsys.readouterr().out
        [(suite, kwargs)] = calls
        assert suite is SUITES["cluster"]
        assert kwargs["schedules"] == 1 and kwargs["rounds"] == 1
