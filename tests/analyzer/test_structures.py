"""Tests for the emulated matching structures."""

import pytest

from repro.analyzer.structures import EmulatedMatcher
from repro.core import ANY_SOURCE, ANY_TAG, MessageEnvelope, ReceiveRequest
from repro.core.descriptor import DescriptorTableFull


class TestEmulatedMatching:
    def test_post_then_deliver_matches(self):
        m = EmulatedMatcher(bins=8)
        assert m.post_receive(ReceiveRequest(source=0, tag=0)) is False
        assert m.deliver(MessageEnvelope(source=0, tag=0)) is True
        assert m.snapshot().total_posted == 0

    def test_unexpected_then_drain(self):
        m = EmulatedMatcher(bins=8)
        assert m.deliver(MessageEnvelope(source=0, tag=0)) is False
        assert m.unexpected_total == 1
        assert m.post_receive(ReceiveRequest(source=0, tag=0)) is True
        assert m.drained_total == 1
        assert m.snapshot().unexpected == 0

    def test_c1_across_indexes(self):
        m = EmulatedMatcher(bins=8)
        m.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=7))
        m.post_receive(ReceiveRequest(source=1, tag=7))
        m.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=ANY_TAG))
        assert m.deliver(MessageEnvelope(source=1, tag=7)) is True
        # The oldest of the three candidates — the source-wildcard
        # receive — was consumed: the exact and the any/any one remain.
        snap = m.snapshot()
        assert (snap.total_posted, snap.wildcard_list_depth) == (2, 1)
        assert m.deliver(MessageEnvelope(source=2, tag=7)) is True  # not the exact one
        snap = m.snapshot()
        assert (snap.total_posted, snap.wildcard_list_depth) == (1, 0)
        assert m.deliver(MessageEnvelope(source=1, tag=7)) is True
        assert m.snapshot().total_posted == 0

    def test_collision_counting(self):
        m = EmulatedMatcher(bins=1)
        m.post_receive(ReceiveRequest(source=0, tag=0))
        m.post_receive(ReceiveRequest(source=0, tag=1))  # same single bin
        assert m.collisions == 1

    def test_no_collision_when_spread(self):
        m = EmulatedMatcher(bins=4096)
        for tag in range(4):
            m.post_receive(ReceiveRequest(source=0, tag=tag))
        assert m.collisions == 0

    def test_small_capacity_raises_and_a_drain_takes_no_slot(self):
        m = EmulatedMatcher(bins=8, capacity=2)
        m.deliver(MessageEnvelope(source=3, tag=3))  # waits unexpected
        m.post_receive(ReceiveRequest(source=0, tag=0))
        m.post_receive(ReceiveRequest(source=0, tag=1))
        # The table is full, yet a posting that drains is never indexed.
        assert m.post_receive(ReceiveRequest(source=3, tag=3)) is True
        with pytest.raises(DescriptorTableFull):
            m.post_receive(ReceiveRequest(source=0, tag=2))
        assert m.snapshot().total_posted == 2
        # A match frees its slot.
        assert m.deliver(MessageEnvelope(source=0, tag=0)) is True
        assert m.post_receive(ReceiveRequest(source=0, tag=2)) is False
        assert m.snapshot().total_posted == 2


class TestWalkMetric:
    def test_match_at_head_has_zero_depth(self):
        m = EmulatedMatcher(bins=1)
        m.post_receive(ReceiveRequest(source=0, tag=0))
        m.deliver(MessageEnvelope(source=0, tag=0))
        interval_max, interval_mean, _ = m.take_datapoint()
        assert interval_max == 0
        assert interval_mean == 0.0

    def test_match_behind_others_counts_walk(self):
        m = EmulatedMatcher(bins=1)
        for tag in range(5):
            m.post_receive(ReceiveRequest(source=0, tag=tag))
        m.deliver(MessageEnvelope(source=0, tag=4))  # walks past 4 entries
        interval_max, _, _ = m.take_datapoint()
        assert interval_max == 4

    def test_binning_reduces_walk(self):
        def max_walk(bins):
            m = EmulatedMatcher(bins=bins)
            for tag in range(16):
                m.post_receive(ReceiveRequest(source=0, tag=tag))
            for tag in reversed(range(16)):
                m.deliver(MessageEnvelope(source=0, tag=tag))
            interval_max, _, _ = m.take_datapoint()
            return interval_max

        assert max_walk(1) == 15
        assert max_walk(256) < 4

    def test_datapoint_resets_interval(self):
        m = EmulatedMatcher(bins=1)
        for tag in range(3):
            m.post_receive(ReceiveRequest(source=0, tag=tag))
        m.deliver(MessageEnvelope(source=0, tag=2))
        first, _, _ = m.take_datapoint()
        second, _, _ = m.take_datapoint()
        assert first == 2
        assert second == 0

    def test_unexpected_walk_counts_all_probed(self):
        m = EmulatedMatcher(bins=1)
        for tag in range(3):
            m.post_receive(ReceiveRequest(source=0, tag=tag))
        m.deliver(MessageEnvelope(source=9, tag=9))  # matches nothing
        interval_max, _, _ = m.take_datapoint()
        assert interval_max == 3


class TestSnapshot:
    def test_snapshot_counts(self):
        m = EmulatedMatcher(bins=8)
        m.post_receive(ReceiveRequest(source=0, tag=0))
        m.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=ANY_TAG))
        m.deliver(MessageEnvelope(source=5, tag=5))  # consumed by any/any
        snap = m.snapshot()
        assert snap.total_posted == 1
        assert snap.unexpected == 0
        assert snap.wildcard_list_depth == 0

    def test_empty_fraction_interval(self):
        m = EmulatedMatcher(bins=2)
        m.post_receive(ReceiveRequest(source=0, tag=0))
        m.deliver(MessageEnvelope(source=0, tag=0))
        _, _, snap = m.take_datapoint()
        # At the fullest moment one of the 6 buckets was occupied.
        assert snap.empty_fraction < 1.0
