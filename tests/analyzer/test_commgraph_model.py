"""Tests for the balls-in-bins occupancy model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer.model import compare_with_measurement, predict


class TestBallsInBins:
    def test_zero_keys(self):
        prediction = predict(0, 32)
        assert prediction.expected_collisions == 0.0
        assert prediction.expected_max_load == 0.0
        assert prediction.expected_empty_fraction == pytest.approx(1.0)

    def test_single_bin_degenerates(self):
        prediction = predict(10, 1)
        assert prediction.expected_max_load == 10.0
        assert prediction.expected_empty_fraction == 0.0

    def test_sparse_regime(self):
        # 26 keys in 384 bins: nearly collision-free.
        prediction = predict(26, 384)
        assert prediction.expected_collisions < 1.5
        assert prediction.expected_max_load <= 3.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            predict(-1, 8)
        with pytest.raises(ValueError):
            predict(1, 0)

    @settings(max_examples=40, deadline=None)
    @given(keys=st.integers(0, 500), bins=st.integers(1, 512))
    def test_predictions_sane(self, keys, bins):
        prediction = predict(keys, bins)
        assert 0.0 <= prediction.expected_empty_fraction <= 1.0
        assert 0.0 <= prediction.expected_collisions <= keys
        assert prediction.expected_max_load <= max(keys, 0)

    def test_measured_hash_behaves_like_random(self):
        """The repo's hash family must track the analytic model: hash
        the CNS key population into 32 bins and compare max load."""
        from repro.core.hashing import bucket_of, hash_src_tag

        keys = [(src, tag) for src in range(26) for tag in range(4)]
        bins = 32
        loads = [0] * bins
        for src, tag in keys:
            loads[bucket_of(hash_src_tag(src, tag), bins)] += 1
        report = compare_with_measurement(
            len(keys), bins, measured_max_depth=max(loads)
        )
        assert report["max_within_tolerance"], report

    def test_compare_reports_collisions(self):
        report = compare_with_measurement(
            26, 384, measured_max_depth=2, measured_collisions=1
        )
        assert report["collisions_within_tolerance"]
        assert "expected_collisions" in report
