"""Emulated matching structures for trace analysis.

The analyzer "emulat[es] the optimistic tag matching strategy and
gather[s] statistics" (§V): it maintains, per rank, the *layout* of
§III-B — three binned hash tables and the double-wildcard list for
posted receives, mirrored for unexpected messages — and matches
serially (conflict behaviour is irrelevant to queue-depth statistics;
structure occupancy is what Fig. 7 measures).

Same layout, flat containers. The engine's own indexes
(:mod:`repro.core.indexes`) exist to be shared by a block of optimistic
threads: every receive is a table-resident descriptor with a booking
bitmap and a sequence label, chains are intrusive lists that tolerate
lazy removal, and a search returns its targets for someone else to
walk. A serial matcher that only reports depths needs none of that, so
a chain here is a plain list — ``(post_label, source, tag)`` per posted
receive in posting order, the envelope itself per unexpected message in
arrival order — a table is a ``defaultdict`` from bucket to chain (a
chain exists once its bucket has been addressed, the engine's
first-touch rule), and both walks are written out in the two methods
that run per trace operation. ``tests/analyzer/reference_matcher.py``
keeps the engine-backed matcher this replaced and
``test_matcher_differential.py`` holds this one to it op by op.

Nothing here hashes unless it has to (§IV-D): a message brings its
``inline_hashes``, a posting brings its :func:`receive_key`, and the
matcher only reduces the words modulo its bin count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.constants import ANY_SOURCE, ANY_TAG, WildcardClass, classify
from repro.core.descriptor import DescriptorTableFull
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.hashing import compute_inline_hashes, receive_hash

__all__ = ["EmulatedMatcher", "DepthSnapshot", "STRUCTURES", "receive_key"]

#: The four structures in search order; a receive's *structure index*
#: is its wildcard class's position here. The first three are tables.
STRUCTURES = (WildcardClass.NONE, WildcardClass.SOURCE, WildcardClass.TAG, WildcardClass.BOTH)
_LIST = STRUCTURES.index(WildcardClass.BOTH)

#: A receive as the matcher takes it:
#: ``(source, tag, comm, structure index, hash word)``.
Posting = tuple[int, int, int, int, int]


def receive_key(source: int, tag: int) -> tuple[int, int]:
    """``(structure index, hash word)`` of a receive's ``(source, tag)``.

    Like a message's inline hashes it depends on no receiver state, so
    whoever posts the same key often resolves it once.
    """
    wildcard_class = classify(source, tag)
    return STRUCTURES.index(wildcard_class), receive_hash(wildcard_class, source, tag)


@dataclass(frozen=True, slots=True)
class DepthSnapshot:
    """Structure occupancy at one instant (a datapoint's raw input).

    ``max_depth`` is the deepest chain across the three PRQ hash
    tables plus the wildcard list — with 1 bin this is the classic
    posted-receive queue depth, which is how Fig. 7's "1 bin =
    traditional" correspondence holds.
    """

    max_depth: int
    total_posted: int
    unexpected: int
    empty_fraction: float
    wildcard_list_depth: int


class EmulatedMatcher:
    """Serial matcher over the paper's four-index layout."""

    def __init__(self, bins: int, capacity: int = 1 << 14) -> None:
        if bins <= 0:
            raise ValueError(f"bin count must be positive, got {bins}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.bins = bins
        self._capacity = capacity
        self._total_buckets = 3 * bins  # posted side; the list is not a bucket
        # Posted receives: the three tables by structure index, and the
        # double-wildcard list.
        self._posted: tuple[defaultdict[int, list[tuple[int, int, int]]], ...] = (
            defaultdict(list),
            defaultdict(list),
            defaultdict(list),
        )
        self._posted_any: list[tuple[int, int, int]] = []
        # Unexpected messages: every one is in all four (§IV-C).
        self._unexpected: tuple[defaultdict[int, list[MessageEnvelope]], ...] = (
            defaultdict(list),
            defaultdict(list),
            defaultdict(list),
        )
        self._unexpected_any: list[MessageEnvelope] = []
        #: ``_buckets_at[d]``: how many of the ``3 x bins`` posted-side
        #: buckets hold ``d`` receives, so ``_buckets_at[0]`` is the
        #: empty-bin count. Grows to the deepest chain ever seen.
        self._buckets_at = [self._total_buckets]
        self._deepest = 0
        self._posted_live = 0
        #: receives whose bucket was non-empty at insertion (hash
        #: collisions in the §V-A statistics sense).
        self.collisions = 0
        #: Also the post label: the next posting's is one more.
        self.posts = 0
        self.messages = 0
        self.unexpected_total = 0
        self.drained_total = 0
        # Interval statistics: the *queue depth experienced* by each
        # matching operation since the last datapoint — the number of
        # non-matching entries walked before the match was found. With
        # 1 bin this is the classic position-in-PRQ search depth; with
        # b bins it shrinks toward 0 as keys spread out, which is why
        # Fig. 7's per-bin averages can fall below 1. A datapoint
        # summarizes "all progress achieved since the last recorded
        # entry" (§V-A.b), so these accumulate between progress ops.
        self._interval_max = 0
        self._interval_sum = 0
        self._interval_samples = 0
        #: Fewest empty buckets seen in the interval (its fullest moment).
        self._interval_min_empty = self._total_buckets

    def post_receive(self, request: ReceiveRequest) -> bool:
        """Post a receive; returns True when it drained an unexpected
        message (and was therefore never indexed)."""
        source, tag = request.source, request.tag
        return self.post((source, tag, request.comm, *receive_key(source, tag)))

    def post(self, posting: Posting) -> bool:
        """:meth:`post_receive` of a receive whose key is resolved."""
        source, tag, comm, structure, word = posting
        self.posts += 1
        # The receive searches the one unexpected structure its class
        # selects, under the full envelope rule (comm included).
        if structure == _LIST:
            stored = self._unexpected_any
        else:
            stored = self._unexpected[structure][word % self.bins]
        walked = 0  # entries passed over; the drained one is not among them
        drained = None
        for envelope in stored:
            if (
                envelope.comm == comm
                and (source == ANY_SOURCE or envelope.source == source)
                and (tag == ANY_TAG or envelope.tag == tag)
            ):
                drained = envelope
                break
            walked += 1
        if walked > self._interval_max:
            self._interval_max = walked
        self._interval_sum += walked
        self._interval_samples += 1
        if drained is not None:
            self._forget(drained)
            self.drained_total += 1
            return True

        if self._posted_live == self._capacity:
            raise DescriptorTableFull(
                f"descriptor table exhausted at capacity {self._capacity}; "
                "fall back to software tag matching"
            )
        self._posted_live += 1
        buckets_at = self._buckets_at
        if structure == _LIST:
            chain = self._posted_any
            if chain:
                self.collisions += 1
        else:
            chain = self._posted[structure][word % self.bins]
            before = len(chain)
            if before:
                self.collisions += 1
            buckets_at[before] -= 1
            try:
                buckets_at[before + 1] += 1
            except IndexError:  # deeper than any chain so far
                buckets_at.append(1)
            if before == self._deepest:
                self._deepest = before + 1
        chain.append((self.posts, source, tag))
        if buckets_at[0] < self._interval_min_empty:
            self._interval_min_empty = buckets_at[0]
        return False

    def _forget(self, envelope: MessageEnvelope) -> None:
        """Remove a drained message from all four unexpected structures."""
        hashes = envelope.inline_hashes
        if hashes is None:
            hashes = compute_inline_hashes(envelope.source, envelope.tag)
        bins = self.bins
        by_key, by_tag, by_source = self._unexpected
        for chain in (
            by_key[hashes.src_tag % bins],
            by_tag[hashes.tag_only % bins],
            by_source[hashes.src_only % bins],
            self._unexpected_any,
        ):
            for at, stored in enumerate(chain):
                if stored is envelope:
                    del chain[at]
                    break

    def deliver(self, msg: MessageEnvelope) -> bool:
        """Deliver a message; returns True when it matched a receive.

        Chain order *is* arrival order here, so ``msg.arrival`` is the
        caller's to stamp and is never read.
        """
        self.messages += 1
        buckets_at = self._buckets_at
        if buckets_at[0] < self._interval_min_empty:
            self._interval_min_empty = buckets_at[0]
        source, tag = msg.source, msg.tag
        hashes = msg.inline_hashes
        if hashes is None:
            hashes = compute_inline_hashes(source, tag)
        bins = self.bins
        by_key, by_tag, by_source = self._posted
        # Every structure is probed with its own key (Fig. 3); a bucket
        # can hold colliding keys, so each walk applies its residual
        # predicate and stops at its first — oldest — real match. The
        # oldest across the four wins (C1). ``visited`` counts every
        # entry inspected, matches included.
        best = best_chain = None
        best_at = visited = 0

        chain = by_key[hashes.src_tag % bins]
        at = 0
        for entry in chain:
            at += 1
            if entry[1] == source and entry[2] == tag:
                best, best_chain, best_at = entry, chain, at
                break
        visited += at

        chain = by_tag[hashes.tag_only % bins]
        at = 0
        for entry in chain:
            at += 1
            if entry[2] == tag:
                if best is None or entry[0] < best[0]:
                    best, best_chain, best_at = entry, chain, at
                break
        visited += at

        chain = by_source[hashes.src_only % bins]
        at = 0
        for entry in chain:
            at += 1
            if entry[1] == source:
                if best is None or entry[0] < best[0]:
                    best, best_chain, best_at = entry, chain, at
                break
        visited += at

        any_chain = self._posted_any
        if any_chain:
            visited += 1
            entry = any_chain[0]
            if best is None or entry[0] < best[0]:
                best, best_chain, best_at = entry, any_chain, 1

        # The experienced queue depth: entries inspected that were not
        # the match itself.
        walked = visited if best is None else visited - 1
        if walked > self._interval_max:
            self._interval_max = walked
        self._interval_sum += walked
        self._interval_samples += 1

        if best is None:
            unexpected = self._unexpected
            unexpected[0][hashes.src_tag % bins].append(msg)
            unexpected[1][hashes.tag_only % bins].append(msg)
            unexpected[2][hashes.src_only % bins].append(msg)
            self._unexpected_any.append(msg)
            self.unexpected_total += 1
            return False
        if best_chain is not any_chain:
            before = len(best_chain)
            buckets_at[before] -= 1
            buckets_at[before - 1] += 1
            if before == self._deepest and not buckets_at[before]:
                # It was the only deepest bucket and is now one shallower.
                self._deepest = before - 1
        del best_chain[best_at - 1]
        self._posted_live -= 1
        return True

    def snapshot(self) -> DepthSnapshot:
        """Current structure occupancy (instantaneous, O(1))."""
        return self._snapshot(self._buckets_at[0])

    def _snapshot(self, empty: int) -> DepthSnapshot:
        wildcard_depth = len(self._posted_any)
        return DepthSnapshot(
            max_depth=max(self._deepest, wildcard_depth),
            total_posted=self._posted_live,
            unexpected=len(self._unexpected_any),
            empty_fraction=empty / self._total_buckets,
            wildcard_list_depth=wildcard_depth,
        )

    def take_datapoint(self) -> tuple[int, float, DepthSnapshot]:
        """Flush the interval statistics at a progress operation.

        Returns ``(interval_max_depth, interval_mean_depth, snapshot)``
        and resets the interval accumulators. The snapshot reports the
        fullest moment of the interval, not the (usually drained)
        instant of the progress call.
        """
        interval_max = self._interval_max
        interval_mean = (
            self._interval_sum / self._interval_samples if self._interval_samples else 0.0
        )
        snap = self._snapshot(self._interval_min_empty)
        self._interval_max = 0
        self._interval_sum = 0
        self._interval_samples = 0
        self._interval_min_empty = self._total_buckets
        return interval_max, interval_mean, snap
