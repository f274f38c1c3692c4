"""Analytic balls-in-bins model of the binned indexes.

Flajslik et al. give the expected O(n/b) search cost for *b* bins; the
precise distributional statements follow from the classic balls-in-
bins occupancy model: hashing *n* distinct keys into *b* bins makes
each bin's load approximately Poisson(n/b). This module computes the
closed-form predictions —

* expected fraction of empty bins,
* expected number of colliding insertions,
* the expected maximum bin load (a union-bound quantile of ``_poisson_tail``),

so the measured Fig. 7 statistics can be checked against theory, not
just against the paper's numbers. Agreement here is evidence the hash
family spreads MPI's clustered key domains like an ideal random
function (the property the design assumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BinsPrediction", "predict", "compare_with_measurement"]


@dataclass(frozen=True, slots=True)
class BinsPrediction:
    """Closed-form occupancy predictions for n keys in b bins."""

    keys: int
    bins: int
    load: float  #: n / b
    expected_empty_fraction: float
    expected_collisions: float
    expected_max_load: float


def _poisson_tail(m: int, load: float) -> float:
    """P(Poisson(load) >= m), m >= load, summed here: scipy is no runtime dep.
    pmf(m), pmf(m+1), ... shrink, so add them until one no longer changes the
    sum. From m = 1000 Stirling's series gives pmf(m) (lgamma loses ~1e-9)."""
    if m < 1000:
        term = math.exp(m * math.log(load) - load - math.lgamma(m + 1))
    else:
        term = math.exp(m * math.log(load / m) + m - load - 1 / (12 * m))
        term /= math.sqrt(2 * math.pi * m)
    total = 0.0
    while total + term != total:
        total += term
        m += 1
        term *= load / m
    return total


def predict(keys: int, bins: int) -> BinsPrediction:
    """Poisson-approximation occupancy predictions."""
    if keys < 0 or bins <= 0:
        raise ValueError(f"need keys >= 0 and bins > 0, got {keys}, {bins}")
    load = keys / bins
    # P(bin empty) = (1 - 1/b)^n ~ e^{-n/b}.
    empty = float(np.exp(-load)) if bins > 1 else (1.0 if keys == 0 else 0.0)
    # A key collides iff its bin already holds >= 1 key. Expected
    # colliding insertions = n - b * (1 - e^{-n/b}) (occupied bins
    # each absorbed exactly one collision-free key).
    occupied = bins * (1.0 - empty)
    collisions = max(keys - occupied, 0.0)
    # Max load: smallest m with b * P(Poisson(load) >= m) <= 1
    # (union-bound / first-moment threshold; one bin stops at m = n).
    if keys == 0:
        max_load = 0.0
    else:
        m = int(np.ceil(load))
        while bins * _poisson_tail(m, load) > 1.0:
            m += 1
        max_load = float(m)
    return BinsPrediction(
        keys=keys,
        bins=bins,
        load=load,
        expected_empty_fraction=empty,
        expected_collisions=collisions,
        expected_max_load=max_load,
    )


def compare_with_measurement(
    keys: int,
    bins: int,
    *,
    measured_max_depth: int,
    measured_collisions: int | None = None,
    tolerance: float = 2.0,
) -> dict[str, float | bool]:
    """Check measured occupancy against the analytic prediction.

    ``tolerance`` is multiplicative slack on the max-load prediction
    (the union bound is loose by a small constant). Returns the
    prediction and pass/fail flags for reporting.
    """
    prediction = predict(keys, bins)
    max_ok = measured_max_depth <= tolerance * max(prediction.expected_max_load, 1.0)
    out: dict[str, float | bool] = {
        "expected_max_load": prediction.expected_max_load,
        "measured_max_depth": float(measured_max_depth),
        "max_within_tolerance": max_ok,
    }
    if measured_collisions is not None:
        expected = prediction.expected_collisions
        slack = tolerance * max(expected, 1.0)
        out["expected_collisions"] = expected
        out["measured_collisions"] = float(measured_collisions)
        out["collisions_within_tolerance"] = measured_collisions <= slack
    return out
