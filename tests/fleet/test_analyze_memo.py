"""The ``analyze_app`` kind's single-entry prepared-trace memo.

The sweep grid is app-major, so the kind keeps the last trace it
prepared and replays it for the following bin counts. The memo may
never change a result, must look ``generate`` / ``analyze`` up at call
time (the wall-clock benchmark wraps both), and must not let a worker
accumulate traces.
"""

import gc
import json

import pytest

import repro.analyzer.processing as processing
import repro.traces.synthetic as synthetic
from repro.analyzer.processing import PreparedTrace
from repro.fleet import kinds
from repro.fleet.codec import encode_result

A = {"app": "AMG", "rounds": 2, "processes": 8}
B = {"app": "LULESH", "rounds": 2, "processes": 8}


def _bytes(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True)


def _cold(params: dict) -> str:
    """The cell as a process that has analyzed nothing before computes it."""
    trace = synthetic.generate(
        params["app"], processes=params["processes"], rounds=params["rounds"]
    )
    return _bytes(processing.analyze(trace, params["bins"]))


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    monkeypatch.setattr(kinds, "_last_prepared", None)


def _prepared_alive() -> list[PreparedTrace]:
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, PreparedTrace)]


def test_interleaved_apps_give_cold_bytes_and_keep_one_trace():
    before = {id(obj) for obj in _prepared_alive()}  # other tests' leftovers
    cells = [{**A, "bins": 1}, {**B, "bins": 1}, {**A, "bins": 32}]
    for params in cells:
        assert _bytes(kinds._analyze_app(params, 0)) == _cold(params)
    key, prepared = kinds._last_prepared
    assert key == ("AMG", 8, 2)
    fresh = [obj for obj in _prepared_alive() if id(obj) not in before]
    assert len(fresh) == 1 and fresh[0] is prepared


def test_consecutive_bin_counts_generate_once(monkeypatch):
    generated = []
    real_generate = synthetic.generate

    def counting_generate(name, **kwargs):
        generated.append(name)
        return real_generate(name, **kwargs)

    analyzed = []
    real_analyze = processing.analyze

    def counting_analyze(trace, bins, **kwargs):
        analyzed.append(bins)
        return real_analyze(trace, bins, **kwargs)

    # Patched on the modules, as benchmarks/wallclock/spans.py does.
    monkeypatch.setattr(synthetic, "generate", counting_generate)
    monkeypatch.setattr(processing, "analyze", counting_analyze)
    for bins in (1, 32, 128):
        kinds._analyze_app({**A, "bins": bins}, 0)
    kinds._analyze_app({**B, "bins": 1}, 0)
    assert generated == ["AMG", "LULESH"]
    assert analyzed == [1, 32, 128, 1]


def test_key_covers_processes_and_rounds():
    base = _bytes(kinds._analyze_app({**A, "bins": 32}, 0))
    other_rounds = {**A, "rounds": 3, "bins": 32}
    other_procs = {**A, "processes": 16, "bins": 32}
    assert _bytes(kinds._analyze_app(other_rounds, 0)) == _cold(other_rounds) != base
    assert _bytes(kinds._analyze_app(other_procs, 0)) == _cold(other_procs) != base
    assert _bytes(kinds._analyze_app({**A, "bins": 32}, 0)) == base


def test_keep_datapoints_is_not_part_of_the_memo():
    slim = kinds._analyze_app({**A, "bins": 32}, 0)
    full = kinds._analyze_app({**A, "bins": 32, "keep_datapoints": True}, 0)
    assert not slim.datapoints and full.datapoints
    assert full.depth == slim.depth
