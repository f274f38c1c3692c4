"""Sweeps through the fleet: warm reruns are byte-identical, and a
cell that raises is quarantined without taking the grid with it.

``sweep_applications`` over several synthetic apps must produce
byte-identical ``AppAnalysis`` JSON cold and against a warm cache; a
poisoned cell is omitted (``strict=False``) or raised (``strict``).
"""

from __future__ import annotations

import pytest

from repro.analyzer.sweep import sweep_applications
from repro.fleet import kinds

#: Small but non-trivial: three apps with different op mixes.
APPS = ["AMG", "BigFFT", "MiniFe"]
BINS = (1, 32)


def _flatten(results) -> dict[tuple[str, int], str]:
    return {
        (name, bins): results[name][bins].to_json()
        for name in results
        for bins in results[name]
    }


@pytest.fixture
def poisoned_first_cell(monkeypatch):
    """``analyze_app`` raises on the grid's first cell, (APPS[0], BINS[0])."""
    real = kinds.resolve_kind("analyze_app")

    def analyze_app(params, seed):
        if (params["app"], params["bins"]) == (APPS[0], BINS[0]):
            raise RuntimeError("poisoned cell")
        return real.fn(params, seed)

    monkeypatch.setitem(
        kinds._KINDS, "analyze_app", kinds.KindSpec("analyze_app", analyze_app, real.version)
    )


def test_sweep_warm_cache_bytes_match(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold, cold_report = sweep_applications(
        bins_list=BINS, rounds=2, names=APPS, cache_dir=cache_dir, with_report=True,
    )
    warm, warm_report = sweep_applications(
        bins_list=BINS, rounds=2, names=APPS, cache_dir=cache_dir, with_report=True,
    )
    assert cold_report.executed == len(APPS) * len(BINS)
    assert warm_report.executed == 0
    assert warm_report.cached == len(APPS) * len(BINS)
    assert _flatten(warm) == _flatten(cold)


def test_non_strict_sweep_omits_quarantined_cells(poisoned_first_cell):
    """``strict=False``: a cell that raises is quarantined, its id
    lands in the report, and the surviving grid comes back."""
    results, report = sweep_applications(
        bins_list=BINS,
        rounds=2,
        names=APPS,
        with_report=True,
        strict=False,
    )
    assert not report.ok
    assert report.quarantined == 1
    assert report.quarantined_ids == ["#0 analyze_app seed=0"]
    # Index 0 is app-major, bins-minor: (APPS[0], BINS[0]) is missing,
    # every other cell survived.
    assert set(results[APPS[0]]) == set(BINS) - {BINS[0]}
    for name in APPS[1:]:
        assert set(results[name]) == set(BINS)


def test_strict_sweep_raises_on_quarantine(poisoned_first_cell):
    from repro.fleet import FleetError

    with pytest.raises(FleetError, match="quarantined"):
        sweep_applications(bins_list=BINS, rounds=2, names=APPS)
