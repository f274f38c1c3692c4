"""Result-object JSON codecs (satellite: cache round-trip fidelity).

Every object a job can return must survive ``to_json``/``from_json``
exactly — including enum-keyed and int-keyed mappings, which plain
``json`` would silently stringify — because the scheduler routes every
result (inline, pooled, or cached) through one codec.
"""

from __future__ import annotations

import pytest

from repro.analyzer.processing import analyze
from repro.analyzer.statistics import AppAnalysis
from repro.bench.pingpong import PingPongBench, RateResult
from repro.bench.scenarios import scenario_by_name
from repro.chaos.harness import (
    ChaosConfig,
    ChaosReport,
    config_from_params,
    config_to_params,
    run_chaos,
)
from repro.core import (
    EngineConfig,
    EngineStats,
    MessageEnvelope,
    OptimisticMatcher,
    ReceiveRequest,
)
from repro.fleet.codec import decode_result, encode_result, register_result_type
from repro.fleet.report import FleetReport
from repro.traces.model import OpGroup
from repro.traces.synthetic import generate


def _chaos_report() -> ChaosReport:
    return run_chaos(ChaosConfig(rounds=4, seed=3))


def _app_analysis() -> AppAnalysis:
    return analyze(generate("AMG", rounds=2), 32)


def _engine_stats() -> EngineStats:
    engine = OptimisticMatcher(EngineConfig(bins=8, block_threads=4, max_receives=16))
    for i in range(4):
        engine.post_receive(ReceiveRequest(source=0, tag=i))
    for i in range(4):
        engine.submit_message(MessageEnvelope(source=0, tag=i, send_seq=i))
    engine.process_all()
    return engine.stats


def _rate_result() -> RateResult:
    return PingPongBench(k=10, repetitions=2).run_optimistic(scenario_by_name("nc"))


@pytest.mark.parametrize(
    "make",
    [_chaos_report, _app_analysis, _engine_stats, _rate_result],
    ids=["ChaosReport", "AppAnalysis", "EngineStats", "RateResult"],
)
def test_json_round_trip_is_exact(make):
    original = make()
    cls = type(original)
    restored = cls.from_json(original.to_json())
    assert restored.to_json() == original.to_json()
    # And the dict path (what the cache stores) agrees.
    assert cls.from_dict(original.to_dict()).to_dict() == original.to_dict()


def test_app_analysis_restores_enum_and_int_keys():
    analysis = _app_analysis()
    restored = AppAnalysis.from_json(analysis.to_json())
    assert restored.call_mix == analysis.call_mix
    assert all(isinstance(k, OpGroup) for k in restored.call_mix)
    assert restored.tag_usage == analysis.tag_usage
    assert all(isinstance(k, int) for k in restored.tag_usage)
    assert restored.wildcard_usage == analysis.wildcard_usage


def test_engine_stats_block_history_survives():
    stats = _engine_stats()
    restored = EngineStats.from_json(stats.to_json())
    assert len(restored.block_history) == len(stats.block_history)
    for a, b in zip(restored.block_history, stats.block_history):
        assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize(
    "make, cls",
    [(_chaos_report, ChaosReport), (_engine_stats, EngineStats)],
    ids=["ChaosReport", "EngineStats"],
)
def test_schema_version_is_enforced(make, cls):
    text = make().to_json()
    assert cls.SCHEMA in text
    bogus = cls.SCHEMA.rsplit("/v", 1)[0] + "/v999"
    with pytest.raises(ValueError, match="unsupported schema"):
        cls.from_json(text.replace(cls.SCHEMA, bogus))


def test_chaos_config_params_round_trip():
    config = ChaosConfig(rounds=9, seed=4, host_spill=True, bounce_buffers=2)
    assert config_from_params(config_to_params(config)) == config


def test_fleet_report_round_trip():
    report = FleetReport(
        jobs=4,
        total=3,
        executed=2,
        cached=1,
        retries=1,
        wall_s=1.5,
        cache={"hits": 1, "misses": 2, "writes": 2},
        records=[{"index": 0, "status": "ok"}],
    )
    assert FleetReport.from_json(report.to_json()).to_json() == report.to_json()
    with pytest.raises(ValueError, match="unsupported schema"):
        FleetReport.from_json(report.to_json().replace("/v1", "/v999"))


class TestResultEnvelope:
    def test_literal_passthrough(self):
        payload = encode_result({"cells": [1, 2], "ok": True})
        assert payload["type"] == "literal"
        assert decode_result(payload) == {"cells": [1, 2], "ok": True}

    def test_typed_round_trip(self):
        report = _chaos_report()
        payload = encode_result(report)
        assert payload["type"] == "ChaosReport"
        assert decode_result(payload).to_json() == report.to_json()

    def test_unencodable_result_is_rejected(self):
        with pytest.raises(TypeError, match="neither a registered result type"):
            encode_result(object())

    def test_register_result_type_requires_codec(self):
        with pytest.raises(TypeError, match="to_dict"):
            register_result_type("Nope", object)


def test_pressure_report_v3_counters_survive_codec():
    """A pressure-mode report with live schema-v3 counters (the evict
    overload lane) must round-trip through the fleet result codec
    exactly — the soak's registry folds are only as good as what the
    cache hands back."""
    from repro.chaos.suites import OVERLOAD_PROFILES
    from dataclasses import replace

    report = run_chaos(replace(OVERLOAD_PROFILES["evict"], seed=4))
    # Non-vacuous: this run actually exercised the v3 fields.
    assert report.budget_bytes > 0
    assert report.peak_charged_bytes > 0
    assert report.evictions > 0 or report.posts_deferred > 0

    encoded = encode_result(report)
    restored = decode_result(encoded)
    assert isinstance(restored, ChaosReport)
    assert restored.to_dict() == report.to_dict()
    for field in (
        "budget_bytes",
        "peak_charged_bytes",
        "budget_overruns",
        "demotions",
        "evictions",
        "recalls",
        "posts_deferred",
        "credit_holds",
        "pressure_entries",
        "pressure_exits",
        "pressure_takeovers",
        "pressure_reoffloads",
    ):
        assert getattr(restored, field) == getattr(report, field)
