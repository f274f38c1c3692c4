"""Rank fail-stop soak lanes + the ChaosReport v5 rank counters."""

import io

import repro.chaos.cli as cli
from repro.chaos.harness import ChaosReport
from repro.chaos.runner import run_suite
from repro.chaos.suites import RANK_MUTANT_PROFILES, RANK_PROFILES, SUITES


class TestSoak:
    def test_real_lanes_hold_and_mutants_are_caught(self):
        out, err = io.StringIO(), io.StringIO()
        result = run_suite(SUITES["ranks"], 2, out=out, err=err)
        totals = result.totals
        assert result.ok, err.getvalue()
        assert result.runs == 2 * (len(RANK_PROFILES) + len(RANK_MUTANT_PROFILES))
        assert totals["false_suspicions"] == 0
        # The fault lanes must actually kill and recover something.
        assert totals["kills"] > 0
        assert totals["detected"] > 0
        assert totals["shrinks"] > 0 and totals["restarts"] > 0
        assert result.mutants_missed == []

    def test_mutant_lanes_cover_every_planted_bug(self):
        from repro.resilience.cluster import MUTANTS

        planted = {p["mutant"] for p in RANK_MUTANT_PROFILES.values()}
        assert planted == {m for m in MUTANTS if m}

    def test_profiles_cover_detection_modes(self):
        assert RANK_PROFILES["clean"]["plan"].is_clean
        assert RANK_PROFILES["silent"]["heartbeat"] is None
        assert RANK_PROFILES["kill-shrink"]["size"] > 1024  # rendezvous kills
        assert RANK_PROFILES["kill-respawn"]["recovery"] == "respawn"


class TestCli:
    # The front-door spelling of the old --no-mutants: every real lane.
    REAL_LANES = [f"--lane={name}" for name in RANK_PROFILES]

    def test_main_exits_zero(self, capsys):
        assert cli.main(["ranks", "--schedules", "1", *self.REAL_LANES]) == 0
        assert "rank soak:" in capsys.readouterr().out

    def test_chaos_frontdoor_dispatches(self, capsys, monkeypatch):
        calls = []

        def spy(suite, **kwargs):
            calls.append((suite, kwargs))
            return run_suite(suite, **kwargs)

        monkeypatch.setattr(cli, "run_suite", spy)
        assert cli.main(["ranks", "--schedules", "1", *self.REAL_LANES]) == 0
        assert "rank soak:" in capsys.readouterr().out
        [(suite, kwargs)] = calls
        assert suite is SUITES["ranks"]
        assert kwargs["schedules"] == 1 and kwargs["lanes"] == list(RANK_PROFILES)


class TestChaosReportV5:
    def test_schema_is_v5(self):
        assert ChaosReport.SCHEMA == "repro.chaos.report/v5"

    def test_rank_counters_round_trip(self):
        report = ChaosReport(
            seed=7,
            sent=10,
            delivered=9,
            rank_kills=2,
            rank_failures_detected=2,
            rank_false_suspicions=0,
            rank_restarts=1,
            comm_shrinks=1,
            rank_failed_recvs=3,
            rank_detection_latency_max=250,
            rank_recovery_ticks=136,
            rank_backstop_aborts=0,
        )
        restored = ChaosReport.from_json(report.to_json())
        assert restored == report
        assert restored.rank_kills == 2
        assert restored.rank_detection_latency_max == 250

    def test_rank_counters_default_to_zero(self):
        """Pre-rank-chaos producers omit the counters entirely."""
        report = ChaosReport(seed=1, sent=5, delivered=5)
        restored = ChaosReport.from_json(report.to_json())
        assert restored.rank_kills == 0
        assert restored.rank_backstop_aborts == 0

    def test_fleet_codec_round_trip(self):
        from repro.fleet.codec import decode_result, encode_result

        report = ChaosReport(seed=3, sent=1, delivered=1, rank_kills=1)
        restored = decode_result(encode_result(report))
        assert isinstance(restored, ChaosReport)
        assert restored == report
