"""Differential oracle: the flat-chain ``EmulatedMatcher`` against the
engine-backed matcher it replaced (``reference_matcher.py``), op by op.

Everything a caller can observe must agree after *every* operation:
the return value, ``snapshot()``, the five counters, and — at
interleaved progress points — the ``take_datapoint()`` triple. The op
streams cover all four wildcard classes, messages that wait unexpected
and are drained later, two communicators (the drain checks ``comm``,
the posted-side residual predicates do not — both as they always
were), keys that collide in each of the three tables at 128 bins, and
a descriptor table small enough to fill.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer.structures import EmulatedMatcher
from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.core.descriptor import DescriptorTableFull
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.hashing import compute_inline_hashes, hash_src, hash_src_tag, hash_tag
from tests.analyzer.reference_matcher import ReferenceMatcher

COMMON = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

BINS = (1, 2, 8, 128)
COUNTERS = ("collisions", "posts", "messages", "unexpected_total", "drained_total")


def _colliding(word_of, bins=128):
    """The smallest value > 1 sharing value 0's bucket at ``bins`` bins."""
    return next(v for v in range(2, 1 << 16) if word_of(v) % bins == word_of(0) % bins)


#: 0 and the third entry share a bucket of the tag-wildcard (by-source) table.
SOURCES = (0, 1, _colliding(hash_src))
#: 0 and the third share a bucket of the source-wildcard (by-tag) table;
#: (0, 0) and (0, fourth) share one of the (source, tag) table.
TAGS = (0, 1, _colliding(hash_tag), _colliding(lambda tag: hash_src_tag(0, tag)))


def op_streams(sources, tags, comms):
    posts = st.tuples(
        st.just("post"),
        st.sampled_from(sources + (ANY_SOURCE,)),
        st.sampled_from(tags + (ANY_TAG,)),
        st.sampled_from(comms),
    )
    #: The last field: whether the sender shipped §IV-D inline hashes.
    deliveries = st.tuples(
        st.just("deliver"),
        st.sampled_from(sources),
        st.sampled_from(tags),
        st.sampled_from(comms),
        st.booleans(),
    )
    return st.lists(st.one_of(posts, deliveries, st.just(("progress",))), max_size=60)


#: Few keys, so receives of different classes compete for one message
#: (C1 across structures) and messages queue behind one another (C2).
dense_streams = op_streams(SOURCES[:2], TAGS[:2], (0,))
#: Every key, bucket collisions at any bin count, a second communicator.
wide_streams = op_streams(SOURCES, TAGS, (0, 0, 0, 1))


def _apply(matcher, op):
    """One op's observable outcome on ``matcher``."""
    if op[0] == "post":
        _, source, tag, comm = op
        try:
            return matcher.post_receive(ReceiveRequest(source=source, tag=tag, comm=comm))
        except DescriptorTableFull:
            return "full"
    if op[0] == "deliver":
        _, source, tag, comm, inline = op
        hashes = compute_inline_hashes(source, tag) if inline else None
        return matcher.deliver(
            MessageEnvelope(source=source, tag=tag, comm=comm, inline_hashes=hashes)
        )
    return matcher.take_datapoint()


def _observable(matcher):
    return matcher.snapshot(), [getattr(matcher, name) for name in COUNTERS]


def _run_both(ops, bins, capacity=1 << 14):
    matcher, reference = EmulatedMatcher(bins, capacity), ReferenceMatcher(bins, capacity)
    for step, op in enumerate(ops):
        assert _apply(matcher, op) == _apply(reference, op), (step, op)
        assert _observable(matcher) == _observable(reference), (step, op)
    assert matcher.take_datapoint() == reference.take_datapoint()
    return matcher


@COMMON
@given(st.one_of(dense_streams, wide_streams), st.sampled_from(BINS))
def test_every_op_agrees_with_the_reference(ops, bins):
    _run_both(ops, bins)


@COMMON
@given(st.one_of(dense_streams, wide_streams), st.sampled_from(BINS), st.integers(1, 4))
def test_agrees_when_the_descriptor_table_fills(ops, bins, capacity):
    _run_both(ops, bins, capacity)


@pytest.mark.parametrize("bins", BINS)
@pytest.mark.parametrize("oldest", range(4))
def test_oldest_receive_across_the_four_structures_wins(bins, oldest):
    """C1: one message, a candidate in every structure; the receive
    posted first is consumed wherever it lives — which the next
    messages reveal."""
    candidates = [(0, 0), (ANY_SOURCE, 0), (0, ANY_TAG), (ANY_SOURCE, ANY_TAG)]
    candidates.insert(0, candidates.pop(oldest))
    ops = [("post", source, tag, 0) for source, tag in candidates]
    ops += [
        ("deliver", 0, 0, 0, True),
        ("progress",),
        # Which three are left decides which of these match, and whom.
        ("deliver", 1, 0, 0, True),
        ("deliver", 0, 1, 0, True),
        ("deliver", 1, 1, 0, True),
        ("deliver", 0, 0, 0, True),
    ]
    _run_both(ops, bins)


@pytest.mark.parametrize("bins", BINS)
def test_unexpected_then_drain_by_every_class(bins):
    """Four messages wait unexpected; a receive of each class drains the
    oldest it accepts, found in the one structure its class selects."""
    source, other = SOURCES[0], SOURCES[2]
    tag, other_tag = TAGS[0], TAGS[2]
    ops = [
        ("deliver", other, other_tag, 0, True),
        ("deliver", source, other_tag, 0, True),
        ("deliver", other, tag, 0, False),
        ("deliver", source, tag, 0, True),
        ("progress",),
        ("post", source, tag, 0),  # NONE: the fourth
        ("post", ANY_SOURCE, tag, 0),  # SOURCE: the third, past a colliding tag
        ("post", source, ANY_TAG, 0),  # TAG: the second, past a colliding source
        ("progress",),
        ("post", ANY_SOURCE, ANY_TAG, 0),  # BOTH: the first
        ("post", ANY_SOURCE, ANY_TAG, 0),  # nothing left: indexed
    ]
    matcher = _run_both(ops, bins)
    assert (matcher.unexpected_total, matcher.drained_total) == (4, 4)
    assert matcher.snapshot().wildcard_list_depth == 1


@pytest.mark.parametrize("bins", BINS)
def test_comm_is_checked_by_the_drain_only(bins):
    ops = [
        ("deliver", 0, 0, 1, True),  # waits unexpected on comm 1
        ("post", 0, 0, 0),  # comm 0 walks past it and is indexed
        ("progress",),
        ("deliver", 0, 0, 1, True),  # the posted side does not look at comm
        ("post", 0, 0, 1),  # and the first message is still there to drain
    ]
    matcher = _run_both(ops, bins)
    assert (matcher.unexpected_total, matcher.drained_total) == (1, 1)
    assert matcher.snapshot().total_posted == 0


def test_the_same_envelope_object_delivered_twice():
    """Removal is by identity; two arrivals of one object are two entries."""
    envelope = MessageEnvelope(source=1, tag=1)
    request = ReceiveRequest(source=1, tag=ANY_TAG)
    matcher, reference = EmulatedMatcher(2), ReferenceMatcher(2)
    for m in (matcher, reference):
        assert m.deliver(envelope) is False and m.deliver(envelope) is False
        assert m.post_receive(request) is True
    assert _observable(matcher) == _observable(reference)
    assert matcher.snapshot().unexpected == 1
    for m in (matcher, reference):
        assert m.post_receive(request) is True
        assert m.post_receive(request) is False
    assert _observable(matcher) == _observable(reference)
    assert matcher.take_datapoint() == reference.take_datapoint()
