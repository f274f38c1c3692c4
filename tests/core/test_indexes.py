"""Tests for the receive indexes and unexpected-message indexes."""

import pytest

from repro.core.constants import ANY_SOURCE, ANY_TAG, WildcardClass
from repro.core.descriptor import DescriptorTable
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.indexes import ReceiveIndexes, UnexpectedIndexes, UnexpectedMessage


@pytest.fixture
def table():
    return DescriptorTable(64, 4)


@pytest.fixture
def indexes():
    return ReceiveIndexes(bins=8)


def post(indexes, table, source, tag, label, seq=0):
    d = table.allocate(ReceiveRequest(source=source, tag=tag), label, seq)
    indexes.insert(d)
    return d


class TestReceiveIndexes:
    def test_insert_selects_structure(self, indexes, table):
        post(indexes, table, 1, 2, 0)
        post(indexes, table, ANY_SOURCE, 2, 1)
        post(indexes, table, 1, ANY_TAG, 2)
        post(indexes, table, ANY_SOURCE, ANY_TAG, 3)
        assert indexes.no_wildcard.total_live() == 1
        assert indexes.source_wildcard.total_live() == 1
        assert indexes.tag_wildcard.total_live() == 1
        assert len(indexes.both_wildcard) == 1
        assert indexes.total_live() == 4

    def test_candidate_chains_four_targets(self, indexes):
        msg = MessageEnvelope(source=1, tag=2)
        chains = indexes.candidate_chains(msg)
        assert [wc for wc, _, _ in chains] == [
            WildcardClass.NONE,
            WildcardClass.SOURCE,
            WildcardClass.TAG,
            WildcardClass.BOTH,
        ]

    def test_never_posted_classes_are_not_search_targets(self, indexes):
        msg = MessageEnvelope(source=1, tag=2)
        hinted = ReceiveIndexes(bins=8, never_posted={WildcardClass.SOURCE, WildcardClass.BOTH})
        assert [wc for wc, _, _ in hinted.candidate_chains(msg)] == [
            WildcardClass.NONE,
            WildcardClass.TAG,
        ]
        # The targets that remain are the ones an unhinted index offers.
        for (wc, chain, pred), (_, full_chain, full_pred) in zip(
            hinted.candidate_chains(msg), indexes.candidate_chains(msg)[::2]
        ):
            assert pred is full_pred
            assert type(chain) is type(full_chain)

    def test_candidate_predicates(self, indexes, table):
        d_exact = post(indexes, table, 1, 2, 0)
        d_src = post(indexes, table, ANY_SOURCE, 2, 1)
        d_tag = post(indexes, table, 1, ANY_TAG, 2)
        d_both = post(indexes, table, ANY_SOURCE, ANY_TAG, 3)
        msg = MessageEnvelope(source=1, tag=2)
        found = []
        for wc, chain, pred in indexes.candidate_chains(msg):
            for descr in chain:
                if pred(descr.request, msg):
                    found.append(descr)
                    break
        assert found == [d_exact, d_src, d_tag, d_both]

    def test_predicate_rejects_collisions(self, indexes, table):
        # Two different keys can land in the same bucket with 8 bins;
        # the predicate must filter them.
        post(indexes, table, 5, 9, 0)
        msg = MessageEnvelope(source=1, tag=2)
        for wc, chain, pred in indexes.candidate_chains(msg):
            if wc is WildcardClass.NONE:
                assert all(not pred(d.request, msg) for d in chain)

    def test_consume_lazy_then_sweep(self, indexes, table):
        d = post(indexes, table, 1, 2, 0)
        indexes.consume(d, lazy=True)
        assert d.consumed
        assert indexes.total_live() == 0
        assert d.node.owner is not None  # still physically linked
        removed = indexes.sweep()
        assert removed == 1

    def test_consume_eager_unlinks(self, indexes, table):
        d = post(indexes, table, 1, 2, 0)
        indexes.consume(d, lazy=False)
        assert d.node is None
        assert indexes.sweep() == 0


class TestUnexpectedIndexes:
    def test_message_indexed_everywhere(self):
        um_idx = UnexpectedIndexes(bins=8)
        um = UnexpectedMessage(MessageEnvelope(source=1, tag=2))
        um_idx.insert(um)
        assert len(um_idx) == 1
        assert um_idx.no_wildcard.total_live() == 1
        assert um_idx.source_wildcard.total_live() == 1
        assert um_idx.tag_wildcard.total_live() == 1
        assert len(um_idx.both_wildcard) == 1

    @pytest.mark.parametrize(
        ("source", "tag"),
        [(1, 2), (ANY_SOURCE, 2), (1, ANY_TAG), (ANY_SOURCE, ANY_TAG)],
    )
    def test_search_finds_by_any_wildcard_class(self, source, tag):
        um_idx = UnexpectedIndexes(bins=8)
        um = UnexpectedMessage(MessageEnvelope(source=1, tag=2))
        um_idx.insert(um)
        assert um_idx.search(ReceiveRequest(source=source, tag=tag)) is um

    def test_search_misses(self):
        um_idx = UnexpectedIndexes(bins=8)
        um_idx.insert(UnexpectedMessage(MessageEnvelope(source=1, tag=2)))
        assert um_idx.search(ReceiveRequest(source=1, tag=3)) is None
        assert um_idx.search(ReceiveRequest(source=2, tag=2)) is None

    def test_search_returns_oldest_arrival(self):
        um_idx = UnexpectedIndexes(bins=8)
        first = UnexpectedMessage(MessageEnvelope(source=1, tag=2, arrival=0))
        second = UnexpectedMessage(MessageEnvelope(source=1, tag=2, arrival=1))
        um_idx.insert(first)
        um_idx.insert(second)
        assert um_idx.search(ReceiveRequest(source=1, tag=2)) is first
        assert um_idx.search(ReceiveRequest(source=ANY_SOURCE, tag=ANY_TAG)) is first

    def test_remove_clears_all_structures(self):
        um_idx = UnexpectedIndexes(bins=8)
        um = UnexpectedMessage(MessageEnvelope(source=1, tag=2))
        um_idx.insert(um)
        um_idx.remove(um)
        assert len(um_idx) == 0
        assert um_idx.no_wildcard.total_live() == 0
        assert len(um_idx.both_wildcard) == 0
        assert um_idx.search(ReceiveRequest()) is None

    def test_double_remove_rejected(self):
        um_idx = UnexpectedIndexes(bins=8)
        um = UnexpectedMessage(MessageEnvelope(source=1, tag=2))
        um_idx.insert(um)
        um_idx.remove(um)
        with pytest.raises(ValueError):
            um_idx.remove(um)

    def test_probe_accounting(self):
        from repro.core.indexes import SearchProbeCount

        um_idx = UnexpectedIndexes(bins=8)
        for i in range(3):
            um_idx.insert(
                UnexpectedMessage(MessageEnvelope(source=1, tag=2, arrival=i))
            )
        probes = SearchProbeCount()
        um_idx.search(ReceiveRequest(source=9, tag=9), probes)
        assert probes.buckets == 1
        # Bucket for (9, 9) may collide with (1, 2) entries or not;
        # walked is bounded by the store size.
        assert 0 <= probes.walked <= 3


class TestHashTableStatistics:
    def test_depths_and_empty_fraction(self):
        idx = ReceiveIndexes(bins=4)
        table = DescriptorTable(16, 4)
        for i in range(4):
            post(idx, table, 1, 2, i)  # same key -> same bucket
        depths = idx.no_wildcard.depths()
        assert sum(depths) == 4
        assert max(depths) == 4
        assert idx.no_wildcard.empty_fraction() == 3 / 4
