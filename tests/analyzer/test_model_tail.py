"""Differential test: the summed Poisson tail in ``analyzer.model``
against ``scipy.stats.poisson.sf``, and ``predict`` against the loop
that called scipy.

scipy is a dev dependency only, so the module skips without it.
"""

import numpy as np
import pytest

from repro.analyzer.model import BinsPrediction, _poisson_tail, predict

stats = pytest.importorskip("scipy.stats")
#: ``stats.poisson.sf(k, mu)`` is ``pdtrc(floor(k), mu)`` behind ~30 us of
#: argument checks; the loops below call the ufunc (see the first test).
from scipy.special import pdtrc  # noqa: E402

BINS = (2, 3, 7, 8, 31, 32, 96, 128, 384, 1024, 65536)
KEYS = sorted(set(range(1, 301)) | {round(k) for k in np.logspace(2.5, 6, 11)})


def scipy_predict(keys: int, bins: int) -> BinsPrediction:
    """``predict`` as it was when it called ``stats.poisson.sf``."""
    if keys < 0 or bins <= 0:
        raise ValueError(f"need keys >= 0 and bins > 0, got {keys}, {bins}")
    load = keys / bins
    empty = float(np.exp(-load)) if bins > 1 else (1.0 if keys == 0 else 0.0)
    occupied = bins * (1.0 - empty)
    collisions = max(keys - occupied, 0.0)
    if keys == 0:
        max_load = 0.0
    elif bins == 1:
        max_load = float(keys)
    else:
        m = int(np.ceil(load))
        while bins * pdtrc(m - 1, load) > 1.0:
            m += 1
        max_load = float(m)
    return BinsPrediction(keys, bins, load, empty, collisions, max_load)


def test_pdtrc_is_poisson_sf():
    for k, mu in [(0, 1e-5), (5, 3.5), (299, 150.0), (333369, 10**6 / 3)]:
        assert pdtrc(k, mu) == stats.poisson.sf(k, mu)


@pytest.mark.parametrize("bins", BINS)
def test_predict_and_tail_match_scipy(bins):
    """``predict`` equals the scipy loop field for field, and the tail is
    within 1e-9 of ``sf`` at every m the loop visits."""
    for keys in KEYS:
        ours = predict(keys, bins)
        assert ours == scipy_predict(keys, bins), (keys, bins)
        for m in range(int(np.ceil(ours.load)), int(ours.expected_max_load) + 1):
            ref = pdtrc(m - 1, ours.load)
            tail = _poisson_tail(m, ours.load)
            assert tail == pytest.approx(ref, rel=1e-9, abs=0.0), (keys, bins, m)


@pytest.mark.parametrize(
    "keys, bins", [(0, 1), (0, 2), (0, 65536), (1, 1), (10, 1), (10**6, 1)]
)
def test_degenerate_inputs_unchanged(keys, bins):
    assert predict(keys, bins) == scipy_predict(keys, bins)


@pytest.mark.parametrize("keys, bins", [(-1, 32), (10, 0), (10, -3), (-1, 0)])
def test_invalid_inputs_raise_as_before(keys, bins):
    with pytest.raises(ValueError) as ours:
        predict(keys, bins)
    with pytest.raises(ValueError) as ref:
        scipy_predict(keys, bins)
    assert str(ours.value) == str(ref.value)
