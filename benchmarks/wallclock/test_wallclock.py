"""Tests of the benchmark harness itself.

Run with ``python -m pytest benchmarks/wallclock -q`` from the repository
root; not part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.wallclock import calib, cli  # noqa: E402
from benchmarks.wallclock.child import Runner  # noqa: E402
from benchmarks.wallclock.compare import compare, verdict  # noqa: E402
from benchmarks.wallclock.spans import BOUNDARIES, COLUMNS, SPAN_NAMES, Tracer, ledger  # noqa: E402
from benchmarks.wallclock.workloads import SMOKE, WORKLOADS  # noqa: E402


def _columns(rows):
    return {column: [row[i] for row in rows] for i, column in enumerate(COLUMNS)}


def test_self_time_is_duration_minus_direct_children():
    a, b, c = (SPAN_NAMES.index(n) for n in ("net.cluster_run", "rdma.progress", "rdma.rc_receive"))
    rows = [
        (a, 0, 100, -1, 0),  # 0: root
        (b, 10, 40, 0, 0),  # 1: child of root
        (c, 20, 30, 1, 0),  # 2: grandchild
        (b, 50, 70, 0, 0),  # 3: second child of root
        (b, 55, 60, 3, 0),  # 4: the boundary re-entering itself
        (a, 0, 7, -1, 1),  # 5: another rep
    ]
    out = ledger(_columns(rows))
    assert out[0]["net.cluster_run"] == {"calls": 1, "busy_ns": 100, "self_ns": 50}
    # busy counts the outermost span only; self sums (30-10) + (20-5) + 5.
    assert out[0]["rdma.progress"] == {"calls": 3, "busy_ns": 50, "self_ns": 40}
    assert out[0]["rdma.rc_receive"] == {"calls": 1, "busy_ns": 10, "self_ns": 10}
    assert out[1] == {"net.cluster_run": {"calls": 1, "busy_ns": 7, "self_ns": 7}}
    # Self times of one rep add up to the root span: nothing is counted twice.
    assert sum(cell["self_ns"] for cell in out[0].values()) == 100


def _boundary_attributes():
    import importlib

    found = {}
    for sites in BOUNDARIES.values():
        for module_name, owner_name, attr in sites:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            found[(module_name, owner_name, attr)] = owner.__dict__[attr]
    return found


def test_wrappers_are_removed_after_the_traced_run():
    before = _boundary_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        during = _boundary_attributes()
        assert all(during[key] is not before[key] for key in before)
        tracer.begin_rep(0)
        Runner(SMOKE["pingpong_nc"], 0, {}).timed_rep()
        assert ledger(tracer.columns)[0]["core.process_block"]["calls"] > 0
    finally:
        tracer.restore()
    after = _boundary_attributes()
    assert all(after[key] is before[key] for key in before)


def test_clean_rep_rule():
    brackets = [1.00, 1.05, 1.20, 1.02, 1.00]
    assert calib.clean_flags(brackets) == [True, False, False, True]
    assert calib.clean_needed(8) == 6 and calib.rep_limit(8) == 12


def test_fast_quartile_never_reads_faster_than_the_fastest_sample():
    # statistics.quantiles would extrapolate two samples to 1.25*1 - 0.25*6 < 0.
    assert calib.fast_quartile([1.0, 6.0]) == 1.0
    assert calib.fast_quartile([2.0]) == 2.0
    assert calib.fast_quartile([3.0, 1.0, 2.0]) == 1.0
    assert calib.fast_quartile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 2.0


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_same_seed_same_digest_and_call_count(name, monkeypatch):
    runs = []
    for hash_seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        runs.append(cli.spawn(name, "counted", seed=3, seconds=1, smoke=True))
    first, second = runs
    assert first["failed_reps"] == second["failed_reps"] == 0
    assert first["sim_digests"] == second["sim_digests"] and len(first["sim_digests"]) == 1
    assert first["py_calls"] == second["py_calls"] > 0
    assert first["events"] == second["events"] > 0


def test_corrupted_digest_fails_every_event_of_the_rep():
    runner = Runner(SMOKE["cluster_halo"], 0, {"sim_digest": "0" * 64})
    runner.timed_rep()
    assert (runner.reps, runner.failed_reps) == (1, 1)
    assert "sim_digest" in runner.problems[0]
    healthy = {**runner.summary(), "failed_reps": 0, "problems": []}
    assert cli.tally([runner.summary()])["failed_share"] == 1.0
    # Any child's failed rep counts, the traced child's included.
    both = cli.tally([healthy, runner.summary()])
    assert (both["failed_share"], both["correct"], len(both["problems"])) == (0.5, False, 1)
    assert cli.tally([healthy])["correct"]


def test_a_noisy_or_failed_measurement_is_marked_not_dressed_up():
    timed = {"events": 100, "planned": 4, "rep_s": [1.0, 2.0, 1.0, 1.0], "setup_s": 3.0,
             "brackets_s": [1.0, 1.0, 1.5, 1.5, 1.0], "peak_rss_mb": 1.0}
    out = cli.end_to_end(timed, {"py_calls": None, "setup_s": 2.0})
    rate = out["metrics"]["events_per_s"]
    # One clean rep of four planned: a number from what there is, flagged.
    assert (rate["value"], rate["resolved"], out["harness"]["noisy_reps"]) == (100.0, False, 3)
    assert out["metrics"]["py_calls_per_event"]["value"] is None  # the counted rep raised
    assert out["metrics"]["setup_s"]["value"] == 2.0
    set_of = lambda resolved: {"workloads": {"w": {"metrics": {  # noqa: E731
        "events_per_s": {"value": 100.0, "resolved": resolved}}}}}
    entry = {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
    rows = compare([set_of(True)], [set_of(False)], [entry])
    assert rows[0]["verdict"] == "unresolved"


def test_verdicts_follow_the_bound_and_the_spread():
    kw = dict(better="higher", bound=0.08)
    assert verdict([100], [97], **kw)["verdict"] == "unchanged"
    assert verdict([100], [80], **kw)["verdict"] == "regressed"
    assert verdict([100], [120], **kw)["verdict"] == "improved"
    assert verdict([100], [None], **kw)["verdict"] == "unresolved"
    wide = [80, 90, 100, 110, 120]
    assert verdict(wide, [v - 3 for v in wide], **kw)["verdict"] == "unresolved"
    # Wider than the bound, but every run of B beats every run of A.
    assert verdict(wide, [130, 150, 170], **kw)["verdict"] == "improved"
    zero = dict(better="lower", bound=0.0)
    assert verdict([0.0], [0.0], **zero)["verdict"] == "unchanged"
    assert verdict([0.0], [0.5], **zero)["verdict"] == "regressed"


def test_benchmark_json_names_what_the_code_measures():
    spec = cli.load_spec()
    assert spec["paths"] == ["benchmarks/wallclock"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "events_per_s", "py_calls_per_event", "peak_rss_mb"
    ]
    names = [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names)) == 105
    spans = [f"{span}.{leaf}" for span in SPAN_NAMES for leaf in ("calls", "busy_s", "self_s")]
    assert names[: len(spans)] == spans
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fp:
        golden = json.load(fp)["workloads"]
    assert set(golden) == set(WORKLOADS)
    pinned = {key for pins in golden.values() for key in pins["counts"]}
    assert pinned <= set(names[len(spans):])


def test_smoke_run_is_quick_complete_and_bypasses_as_predicted(tmp_path):
    out = tmp_path / "RUN.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.wallclock", "run", "--smoke", "--force",
         "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20.0
    run = json.loads(out.read_text())
    spec = cli.load_spec()
    for name in WORKLOADS:
        result = run["workloads"][name]
        assert result["correct"] and result["metrics"]["failed_share"]["value"] == 0
        for entry in spec["end_to_end"]:
            assert entry["name"] in result["metrics"]
            assert f"  {entry['name']}" in done.stdout
        layers = result["per_layer"]
        assert set(layers) <= {m["name"] for m in spec["per_layer"]}
        idle = {
            "fig7_sweep": ("core.", "rdma.", "net."),
            "pingpong_nc": ("rdma.", "net.", "analyzer.", "fleet."),
            "pingpong_wc": ("rdma.", "net.", "analyzer.", "fleet."),
        }.get(name, ())
        for key, value in layers.items():
            if key.endswith(".calls") and key.startswith(idle):
                assert value == 0, (name, key)
        with open(cli.trace_path(name), encoding="utf-8") as fp:
            trace = json.load(fp)
        assert len(trace["spans"]["name"]) == result["trace"]["spans"]
