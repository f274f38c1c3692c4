"""``repro-bench gate``: flattening, rule policy, verdicts, CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.gate import (
    DEFAULT_RULES,
    GateRule,
    GateVerdict,
    flatten,
    main,
    run_gate,
)

BASE = {
    "benchmark": "pressure-overload",
    "params": {"rounds": 16, "senders": 4},
    "cold_s": 12.5,  # machine-dependent: ignored by policy
    "results": [
        {"label": "evict", "dpa_cycles": 1000, "message_rate": 2.0},
        {"label": "demote", "dpa_cycles": 800, "message_rate": 3.0},
    ],
    "warm_identical_to_cold": True,
    "mode": "strict",
}


class TestFlatten:
    def test_labelled_lists_key_by_label(self):
        flat = flatten(BASE)
        assert flat["results[evict].dpa_cycles"] == 1000.0
        assert flat["results[demote].message_rate"] == 3.0
        assert "results[0].dpa_cycles" not in flat

    def test_label_keying_survives_reordering(self):
        reordered = dict(BASE, results=list(reversed(BASE["results"])))
        assert flatten(BASE) == flatten(reordered)

    def test_unlabelled_lists_key_by_index(self):
        flat = flatten({"xs": [3, 1]})
        assert flat == {"xs[0]": 3.0, "xs[1]": 1.0}

    def test_bools_and_strings(self):
        flat = flatten(BASE)
        assert flat["warm_identical_to_cold"] == 1.0
        assert flat["mode"] == "strict"


class TestRunGate:
    def test_identical_payloads_pass(self):
        verdict = run_gate(BASE, copy.deepcopy(BASE))
        assert verdict.passed and not verdict.regressions
        assert verdict.benchmark == "pressure-overload"
        # Ignored wall-clock metrics are not even compared.
        assert all("cold_s" != f.path for f in verdict.findings)

    def test_cost_regression_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["results"][0]["dpa_cycles"] = 1200  # +20% > 5% tolerance
        verdict = run_gate(BASE, fresh)
        assert not verdict.passed
        paths = [f.path for f in verdict.regressions]
        assert paths == ["results[evict].dpa_cycles"]

    def test_cost_within_tolerance_passes(self):
        fresh = copy.deepcopy(BASE)
        fresh["results"][0]["dpa_cycles"] = 1040  # +4% < 5%
        assert run_gate(BASE, fresh).passed

    def test_improvement_always_passes_lower_is_better(self):
        fresh = copy.deepcopy(BASE)
        fresh["results"][0]["dpa_cycles"] = 1
        assert run_gate(BASE, fresh).passed

    def test_throughput_drop_fails(self):
        fresh = copy.deepcopy(BASE)
        fresh["results"][1]["message_rate"] = 2.0  # -33% on higher-is-better
        verdict = run_gate(BASE, fresh)
        assert [f.path for f in verdict.regressions] == [
            "results[demote].message_rate"
        ]

    def test_exact_catch_all_flags_any_change(self):
        fresh = copy.deepcopy(BASE)
        fresh["params"]["rounds"] = 17
        verdict = run_gate(BASE, fresh)
        assert [f.path for f in verdict.regressions] == ["params.rounds"]

    def test_string_change_fails(self):
        fresh = dict(copy.deepcopy(BASE), mode="lenient")
        verdict = run_gate(BASE, fresh)
        assert [f.path for f in verdict.regressions] == ["mode"]

    def test_missing_metric_fails_new_metric_passes(self):
        fresh = copy.deepcopy(BASE)
        del fresh["results"][0]["message_rate"]  # dropped: a regression hides
        fresh["extra_metric"] = 42  # schema growth: allowed
        verdict = run_gate(BASE, fresh)
        assert not verdict.passed
        missing = next(f for f in verdict.regressions)
        assert missing.path == "results[evict].message_rate"
        assert "missing" in missing.note
        assert verdict.new_metrics == ["extra_metric"]

    def test_first_match_wins_custom_rule(self):
        fresh = copy.deepcopy(BASE)
        fresh["params"]["rounds"] = 20
        rules = [GateRule("params.rounds", "ignore")] + list(DEFAULT_RULES)
        assert run_gate(BASE, fresh, rules=rules).passed

    def test_verdict_round_trip(self):
        fresh = copy.deepcopy(BASE)
        fresh["results"][0]["dpa_cycles"] = 5000
        verdict = run_gate(BASE, fresh, baseline_path="a.json", fresh_path="b.json")
        clone = GateVerdict.from_json(verdict.to_json())
        assert clone.to_dict() == verdict.to_dict()
        assert not clone.passed

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            GateRule("*", "sideways")
        with pytest.raises(ValueError):
            GateRule("*", "lower", tolerance=-0.1)


class TestCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_pass_exits_0(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", BASE)
        fresh = self._write(tmp_path, "fresh.json", copy.deepcopy(BASE))
        assert main([base, fresh]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_regression_exits_1_and_writes_verdict(self, tmp_path, capsys):
        regressed = copy.deepcopy(BASE)
        regressed["results"][0]["dpa_cycles"] = 9999
        base = self._write(tmp_path, "base.json", BASE)
        fresh = self._write(tmp_path, "fresh.json", regressed)
        out = tmp_path / "verdict.json"
        assert main([base, fresh, "--json-out", str(out)]) == 1
        assert "REGRESSED results[evict].dpa_cycles" in capsys.readouterr().out
        verdict = GateVerdict.from_json(out.read_text())
        assert not verdict.passed

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", BASE)
        assert main([base, str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_rule_spec_exits_2(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", BASE)
        assert main([base, base, "--rule", "nonsense"]) == 2

    def test_cli_rule_overrides_default(self, tmp_path):
        changed = copy.deepcopy(BASE)
        changed["params"]["rounds"] = 99
        base = self._write(tmp_path, "base.json", BASE)
        fresh = self._write(tmp_path, "fresh.json", changed)
        assert main([base, fresh, "--quiet"]) == 1
        assert main([base, fresh, "--quiet", "--rule", "params.rounds:ignore"]) == 0


def test_fleet_codec_round_trip():
    from repro.fleet.codec import decode_result, encode_result

    verdict = run_gate(BASE, copy.deepcopy(BASE))
    clone = decode_result(encode_result(verdict))
    assert isinstance(clone, GateVerdict)
    assert clone.to_dict() == verdict.to_dict()
