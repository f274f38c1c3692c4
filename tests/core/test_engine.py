"""Behavioural tests for the optimistic matching engine."""

import pytest

from repro.core import (
    ANY_SOURCE,
    ANY_TAG,
    EngineConfig,
    MatchKind,
    MessageEnvelope,
    OptimisticMatcher,
    ReceiveRequest,
    ResolutionPath,
)
from repro.core.descriptor import DescriptorTableFull
from repro.core.engine import HintViolation
from repro.core.hashing import compute_inline_hashes
from repro.core.threadsim import RandomPolicy


def cfg(**kw):
    base = dict(bins=16, block_threads=4, max_receives=128)
    base.update(kw)
    return EngineConfig(**base)


class TestPostReceive:
    def test_indexed_when_no_unexpected(self):
        eng = OptimisticMatcher(cfg())
        assert eng.post_receive(ReceiveRequest(source=0, tag=0)) is None
        assert eng.posted_receives == 1

    def test_drains_unexpected(self):
        eng = OptimisticMatcher(cfg())
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        eng.process_all()
        assert eng.unexpected_count == 1
        event = eng.post_receive(ReceiveRequest(source=0, tag=0))
        assert event is not None and event.kind is MatchKind.UNEXPECTED_DRAIN
        assert eng.unexpected_count == 0
        assert eng.posted_receives == 0

    def test_drain_respects_arrival_order(self):
        eng = OptimisticMatcher(cfg())
        for seq in range(3):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
        eng.process_all()
        event = eng.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=ANY_TAG))
        assert event.message.send_seq == 0

    def test_wrong_comm_rejected(self):
        eng = OptimisticMatcher(cfg(), comm=1)
        with pytest.raises(ValueError, match="communicator"):
            eng.post_receive(ReceiveRequest(source=0, tag=0, comm=2))
        with pytest.raises(ValueError, match="communicator"):
            eng.submit_message(MessageEnvelope(source=0, tag=0, comm=0))

    def test_table_overflow_raises(self):
        eng = OptimisticMatcher(cfg(max_receives=2))
        eng.post_receive(ReceiveRequest(source=0, tag=0))
        eng.post_receive(ReceiveRequest(source=0, tag=1))
        with pytest.raises(DescriptorTableFull):
            eng.post_receive(ReceiveRequest(source=0, tag=2))

    def test_slots_recycled_after_match(self):
        eng = OptimisticMatcher(cfg(max_receives=2))
        for round_ in range(5):
            eng.post_receive(ReceiveRequest(source=0, tag=0))
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=round_))
            events = eng.process_all()
            assert events[0].kind is MatchKind.EXPECTED


class TestBlockProcessing:
    def test_empty_block(self):
        eng = OptimisticMatcher(cfg())
        assert eng.process_block() == []

    def test_partial_block(self):
        eng = OptimisticMatcher(cfg(block_threads=8))
        eng.post_receive(ReceiveRequest(source=0, tag=0))
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        events = eng.process_block()
        assert len(events) == 1
        assert events[0].kind is MatchKind.EXPECTED

    def test_multiple_blocks(self):
        eng = OptimisticMatcher(cfg(block_threads=2))
        for i in range(5):
            eng.post_receive(ReceiveRequest(source=0, tag=i))
        for i in range(5):
            eng.submit_message(MessageEnvelope(source=0, tag=i, send_seq=i))
        events = eng.process_all()
        assert len(events) == 5
        assert eng.stats.blocks == 3

    def test_take_pending_empties_the_queue_in_arrival_order(self):
        eng = OptimisticMatcher(cfg(block_threads=2))
        for i in range(5):
            eng.submit_message(MessageEnvelope(source=0, tag=i, send_seq=i))
        eng.process_block()  # the first two are matched, three still queued
        taken = eng.take_pending()
        assert [m.tag for m in taken] == [2, 3, 4]
        assert [m.arrival for m in taken] == sorted(m.arrival for m in taken)
        assert eng.pending_messages == 0
        assert eng.take_pending() == []
        assert eng.process_all() == []

    def test_unmatched_goes_unexpected(self):
        eng = OptimisticMatcher(cfg())
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        events = eng.process_all()
        assert events[0].kind is MatchKind.STORED_UNEXPECTED
        assert eng.unexpected_count == 1

    def test_decision_order_is_arrival_order(self):
        eng = OptimisticMatcher(cfg(block_threads=4))
        for i in range(4):
            eng.post_receive(ReceiveRequest(source=0, tag=i))
        for i in range(4):
            eng.submit_message(MessageEnvelope(source=0, tag=3 - i, send_seq=i))
        events = eng.process_all()
        orders = [e.decision_order for e in events]
        assert orders == sorted(orders)


class TestConstraintScenarios:
    def test_c1_oldest_receive_wins_across_indexes(self):
        """Wildcard receive posted before an exact one must win."""
        eng = OptimisticMatcher(cfg())
        eng.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=5))  # label 0
        eng.post_receive(ReceiveRequest(source=1, tag=5))  # label 1
        eng.submit_message(MessageEnvelope(source=1, tag=5))
        (event,) = eng.process_all()
        assert event.receive_post_label == 0

    def test_c2_same_sender_in_order(self):
        eng = OptimisticMatcher(cfg(), policy=RandomPolicy(11))
        for _ in range(4):
            eng.post_receive(ReceiveRequest(source=0, tag=0))
        for seq in range(4):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
        events = eng.process_all()
        labels = [e.receive_post_label for e in events]
        seqs = [e.message.send_seq for e in events]
        assert labels == sorted(labels)
        assert seqs == sorted(seqs)

    def test_interleaved_sequence_hazard(self):
        """§III-D.3a: receive posted between two compatible runs must
        not be jumped over by the fast path."""
        eng = OptimisticMatcher(cfg(), policy=RandomPolicy(3))
        eng.post_receive(ReceiveRequest(source=0, tag=0))  # label 0, seq 0
        eng.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=0))  # label 1, seq 1
        eng.post_receive(ReceiveRequest(source=0, tag=0))  # label 2, seq 2
        for seq in range(3):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
        events = eng.process_all()
        assert [e.receive_post_label for e in events] == [0, 1, 2]


class TestResolutionPaths:
    def test_fast_path_on_compatible_run(self):
        eng = OptimisticMatcher(
            cfg(early_booking_check=False), policy=RandomPolicy(1)
        )
        for _ in range(4):
            eng.post_receive(ReceiveRequest(source=0, tag=0))
        for seq in range(4):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
        eng.process_all()
        # With all four threads booking the head receive, conflicted
        # threads must resolve via the fast path.
        assert eng.stats.conflicts > 0
        assert eng.stats.fast_path > 0
        assert eng.stats.slow_path == 0

    def test_fast_path_disabled_uses_slow(self):
        eng = OptimisticMatcher(
            cfg(early_booking_check=False, enable_fast_path=False),
            policy=RandomPolicy(1),
        )
        for _ in range(4):
            eng.post_receive(ReceiveRequest(source=0, tag=0))
        for seq in range(4):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
        eng.process_all()
        assert eng.stats.fast_path == 0
        assert eng.stats.slow_path > 0

    def test_no_conflicts_all_optimistic(self):
        eng = OptimisticMatcher(cfg())
        for tag in range(4):
            eng.post_receive(ReceiveRequest(source=0, tag=tag))
        for tag in range(4):
            eng.submit_message(MessageEnvelope(source=0, tag=tag, send_seq=tag))
        eng.process_all()
        assert eng.stats.conflicts == 0
        assert eng.stats.optimistic_hits == 4

    def test_early_booking_check_reduces_conflicts(self):
        def conflicts(early):
            eng = OptimisticMatcher(cfg(early_booking_check=early))
            for _ in range(8):
                eng.post_receive(ReceiveRequest(source=0, tag=0))
            for seq in range(8):
                eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
            eng.process_all()
            return eng.stats.conflicts

        # Round-robin schedule: with the check, later threads see the
        # earlier bookings and sidestep the conflict entirely.
        assert conflicts(True) <= conflicts(False)


class TestHints:
    def test_no_any_source_rejects_wildcard_post(self):
        eng = OptimisticMatcher(cfg(assert_no_any_source=True))
        with pytest.raises(HintViolation):
            eng.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=0))

    def test_no_any_tag_rejects_wildcard_post(self):
        eng = OptimisticMatcher(cfg(assert_no_any_tag=True))
        with pytest.raises(HintViolation):
            eng.post_receive(ReceiveRequest(source=0, tag=ANY_TAG))

    def test_hinted_engine_probes_fewer_buckets(self):
        def buckets(**hints):
            eng = OptimisticMatcher(cfg(**hints))
            for tag in range(8):
                eng.post_receive(ReceiveRequest(source=0, tag=tag))
            for tag in range(8):
                eng.submit_message(MessageEnvelope(source=0, tag=tag, send_seq=tag))
            eng.process_all()
            return eng.stats.buckets_probed

        full = buckets()
        hinted = buckets(assert_no_any_source=True, assert_no_any_tag=True)
        assert hinted < full

    def test_allow_overtaking_matches_everything(self):
        eng = OptimisticMatcher(cfg(allow_overtaking=True), policy=RandomPolicy(5))
        for _ in range(8):
            eng.post_receive(ReceiveRequest(source=0, tag=0))
        for seq in range(8):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=seq))
        events = eng.process_all()
        assert all(e.kind is MatchKind.EXPECTED for e in events)
        # Every posted receive consumed exactly once.
        labels = sorted(e.receive_post_label for e in events)
        assert labels == list(range(8))


class TestOptimizations:
    def test_inline_hashes_skip_hash_compute(self):
        def hashes(inline):
            eng = OptimisticMatcher(cfg())
            eng.post_receive(ReceiveRequest(source=0, tag=0))
            msg = MessageEnvelope(
                source=0,
                tag=0,
                inline_hashes=compute_inline_hashes(0, 0) if inline else None,
            )
            eng.submit_message(msg)
            eng.process_all()
            return eng.stats.hashes_computed

        assert hashes(inline=True) < hashes(inline=False)

    def test_lazy_removal_defers_sweep(self):
        eng = OptimisticMatcher(cfg(lazy_removal=True, block_threads=2))
        eng.post_receive(ReceiveRequest(source=0, tag=0))
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        eng.process_all()
        # One consumed node, below the sweep threshold: still linked.
        assert eng.indexes.no_wildcard.bucket_at(0) is not None
        total_physical = sum(
            b.physical_length for b in eng.indexes.no_wildcard
        )
        assert total_physical == 1

    def test_eager_removal_sweeps_each_block(self):
        eng = OptimisticMatcher(cfg(lazy_removal=False))
        eng.post_receive(ReceiveRequest(source=0, tag=0))
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        eng.process_all()
        total_physical = sum(
            b.physical_length for b in eng.indexes.no_wildcard
        )
        assert total_physical == 0


class TestStats:
    def test_message_and_block_counts(self):
        eng = OptimisticMatcher(cfg(block_threads=4))
        for i in range(10):
            eng.submit_message(MessageEnvelope(source=0, tag=0, send_seq=i))
        eng.process_all()
        assert eng.stats.messages == 10
        assert eng.stats.blocks == 3
        assert eng.stats.unexpected_stored == 10

    def test_history_disabled_by_default(self):
        eng = OptimisticMatcher(cfg())
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        eng.process_all()
        assert eng.stats.block_history == []

    def test_history_enabled(self):
        eng = OptimisticMatcher(cfg(), keep_history=True)
        eng.submit_message(MessageEnvelope(source=0, tag=0))
        eng.process_all()
        assert len(eng.stats.block_history) == 1


class TestExportState:
    def test_export_orders_receives_and_unexpected(self):
        eng = OptimisticMatcher(cfg())
        eng.post_receive(ReceiveRequest(source=0, tag=1))
        eng.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=2))
        eng.post_receive(ReceiveRequest(source=3, tag=ANY_TAG))
        eng.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=ANY_TAG))
        for seq in range(2):
            eng.submit_message(MessageEnvelope(source=9, tag=9, send_seq=seq))
        eng.process_all()
        receives, unexpected = eng.export_state()
        # The (ANY, ANY) receive (label 3) matched the first message;
        # the second message went unexpected.
        assert [label for label, _ in receives] == [0, 1, 2]
        assert [m.send_seq for m in unexpected] == [1]
