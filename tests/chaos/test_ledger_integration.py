"""Flight recorder wired through the chaos harness.

Three integration contracts: (1) an attached recorder is pure
bookkeeping — the chaos report is byte-identical with and without it;
(2) when a mutant engine trips the watchdog, the v4 report carries the
first violating message's full lifecycle passport; (3) ledgers flow
through the soak driver and the fleet result codec.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.chaos.harness import ChaosConfig, ChaosReport, run_chaos
from repro.chaos.runner import run_suite
from repro.chaos.suites import MUTANT_PROFILES, PROFILES, SUITES
from repro.fleet.codec import decode_result, encode_result
from repro.obs.attribution import attribute, check_conservation
from repro.obs.ledger import FlightRecorder, LedgerDump, MessageRecord

MUTANT_SEEDS = range(1, 9)


class TestRecorderIsPureBookkeeping:
    @pytest.mark.parametrize(
        "config",
        [
            ChaosConfig(seed=6, rounds=4),
            ChaosConfig(seed=6, rounds=4, fallback=True),
            ChaosConfig(seed=6, rounds=4, pressure=True),
        ],
        ids=["plain", "fallback", "pressure"],
    )
    def test_report_identical_with_and_without_recorder(self, config):
        baseline = run_chaos(config)
        recorded = run_chaos(config, recorder=FlightRecorder())
        assert recorded.to_json() == baseline.to_json()

    def test_recorder_captures_every_sent_message(self):
        recorder = FlightRecorder()
        report = run_chaos(ChaosConfig(seed=6, rounds=4), recorder=recorder)
        assert report.ok
        assert len(recorder.records) == report.sent
        assert all(rec.label for rec in recorder.records.values())
        assert all(
            check_conservation(rec) for rec in recorder.records.values()
        )


class TestSpillLaneLedger:
    """The descriptor-spill lane used to run blind: its engines never
    saw the recorder, so the ledger had no ``umq`` stamps and no
    migration events while the core-fault and pressure lanes had both."""

    @pytest.mark.parametrize("seed", [3, 4, 5, 12])  # 12 ends degraded
    def test_every_generation_change_is_recorded(self, seed):
        recorder = FlightRecorder()
        report = run_chaos(replace(PROFILES["spill"], seed=seed), recorder=recorder)
        assert report.ok and report.fallback_spills >= 1
        names = [name for _, name, _ in recorder.events]
        assert names.count("takeover") == report.fallback_spills
        assert names.count("reoffload") == report.fallback_recoveries
        # One episode at a time: the two strictly alternate.
        assert names[::2] == ["takeover"] * len(names[::2])
        assert names[1::2] == ["reoffload"] * len(names[1::2])
        assert all(
            detail == {"reason": "descriptor-spill"} for _, _, detail in recorder.events
        )

    def test_engine_stamps_umq_and_attribution_conserves(self):
        recorder = FlightRecorder()
        report = run_chaos(replace(PROFILES["spill"], seed=3), recorder=recorder)
        assert report.ok
        phases = {
            phase for rec in recorder.records.values() for _, phase, _ in rec.transitions
        }
        assert "umq" in phases
        (spill,) = attribute(recorder.export("spill"))
        assert spill.messages == report.sent
        assert not spill.violations


class TestViolationPassport:
    def test_mutant_violation_carries_passport(self):
        template = MUTANT_PROFILES[sorted(MUTANT_PROFILES)[0]]
        for seed in MUTANT_SEEDS:
            recorder = FlightRecorder()
            report = run_chaos(
                replace(template, seed=seed), recorder=recorder
            )
            if not report.detected_violation:
                continue
            assert report.passport, "violation reported without a passport"
            rec = MessageRecord.from_dict(report.passport)
            assert rec.transitions, "passport has no lifecycle"
            assert rec.label == report.passport["label"]
            # The passport survives the v4 report codec.
            restored = ChaosReport.from_json(report.to_json())
            assert restored.passport == report.passport
            return
        pytest.fail(f"no violating seed in {list(MUTANT_SEEDS)}")

    def test_clean_run_has_empty_passport(self):
        report = run_chaos(
            ChaosConfig(seed=3, rounds=3), recorder=FlightRecorder()
        )
        assert report.ok
        assert report.passport == {}


class TestLedgerPlumbing:
    def test_soak_fills_ledger_sink(self):
        sink: list[LedgerDump] = []
        result = run_suite(
            SUITES["soak"],
            2,
            lanes=["clean"],
            out=io.StringIO(),
            err=io.StringIO(),
            ledger_sink=sink,
        )
        assert result.failures == 0 and result.runs == 2
        assert len(sink) == 1  # one representative dump per profile
        assert "clean" in sink[0].scenarios
        assert any(True for _ in sink[0].iter_records())

    def test_ledger_dump_round_trips_fleet_codec(self):
        recorder = FlightRecorder()
        run_chaos(ChaosConfig(seed=2, rounds=3), recorder=recorder)
        dump = recorder.export(scenario="codec")
        restored = decode_result(encode_result(dump))
        assert isinstance(restored, LedgerDump)
        assert restored.to_json() == dump.to_json()
