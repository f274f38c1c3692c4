"""Unit and property tests for the fixed-width bitmap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bitmap import Bitmap, MaskedWait


class TestBasics:
    def test_starts_empty(self):
        bm = Bitmap(8)
        assert bm.is_empty()
        assert bm.popcount() == 0
        assert bm.lowest_set() is None
        assert bm.set_indexes() == []

    def test_set_and_test(self):
        bm = Bitmap(8)
        bm.set(3)
        assert bm.test(3)
        assert not bm.test(2)
        assert bm.popcount() == 1

    def test_set_is_idempotent(self):
        bm = Bitmap(8)
        bm.set(5)
        bm.set(5)
        assert bm.popcount() == 1

    def test_clear(self):
        bm = Bitmap(8)
        bm.set(2)
        bm.clear(2)
        assert not bm.test(2)
        assert bm.is_empty()

    def test_clear_unset_bit_is_noop(self):
        bm = Bitmap(8)
        bm.clear(4)
        assert bm.is_empty()

    def test_reset(self):
        bm = Bitmap(8)
        for i in range(8):
            bm.set(i)
        bm.reset()
        assert bm.is_empty()

    def test_width_property(self):
        assert Bitmap(32).width == 32

    @pytest.mark.parametrize("width", [0, -1, -100])
    def test_invalid_width_rejected(self, width):
        with pytest.raises(ValueError):
            Bitmap(width)

    @pytest.mark.parametrize("index", [-1, 8, 100])
    def test_out_of_range_rejected(self, index):
        bm = Bitmap(8)
        with pytest.raises(IndexError):
            bm.set(index)
        with pytest.raises(IndexError):
            bm.test(index)
        with pytest.raises(IndexError):
            bm.any_below(index)
        with pytest.raises(IndexError):
            bm.all_below_condition(index)
        assert bm.value == 0


class TestQueries:
    def test_is_full(self):
        bm = Bitmap(4)
        for i in range(4):
            assert not bm.is_full()
            bm.set(i)
        assert bm.is_full()

    def test_lowest_set(self):
        bm = Bitmap(16)
        bm.set(9)
        bm.set(4)
        bm.set(12)
        assert bm.lowest_set() == 4

    def test_any_below(self):
        bm = Bitmap(8)
        bm.set(3)
        assert not bm.any_below(3)
        assert bm.any_below(4)
        assert bm.any_below(7)
        assert not bm.any_below(0)

    def test_all_below_vacuous_for_zero(self):
        # Thread 0 has nobody to wait for at the partial barrier.
        bm = Bitmap(8)
        assert bm.all_below(0)

    def test_all_below(self):
        bm = Bitmap(8)
        bm.set(0)
        bm.set(1)
        assert bm.all_below(2)
        assert not bm.all_below(3)

    def test_all_below_condition_is_the_wait_as_data(self):
        bm = Bitmap(8)
        wait = bm.all_below_condition(3)
        assert type(wait) is MaskedWait
        assert wait.word is bm and wait.mask == 0b111
        # ...and still a plain zero-argument condition, tracking the word.
        assert not wait()
        for index in (0, 1, 2):
            bm.set(index)
        assert wait()
        bm.clear(1)
        assert not wait()

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_masked_wait_is_a_masked_compare(self, bits, mask):
        bm = Bitmap(8)
        for index in range(8):
            if bits >> index & 1:
                bm.set(index)
        assert MaskedWait(bm, mask)() == (bits & mask == mask)

    def test_set_indexes_sorted(self):
        bm = Bitmap(16)
        for i in (7, 1, 13):
            bm.set(i)
        assert bm.set_indexes() == [1, 7, 13]


class TestProperties:
    @given(st.sets(st.integers(min_value=0, max_value=31)))
    def test_popcount_matches_set(self, bits):
        bm = Bitmap(32)
        for b in bits:
            bm.set(b)
        assert bm.popcount() == len(bits)
        assert bm.set_indexes() == sorted(bits)

    @given(st.sets(st.integers(min_value=0, max_value=31), min_size=1))
    def test_lowest_set_is_minimum(self, bits):
        bm = Bitmap(32)
        for b in bits:
            bm.set(b)
        assert bm.lowest_set() == min(bits)

    @given(
        st.sets(st.integers(min_value=0, max_value=31)),
        st.integers(min_value=0, max_value=31),
    )
    def test_any_below_consistent(self, bits, idx):
        bm = Bitmap(32)
        for b in bits:
            bm.set(b)
        assert bm.any_below(idx) == any(b < idx for b in bits)
        assert bm.all_below(idx) == all(b in bits for b in range(idx))
