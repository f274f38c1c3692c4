"""The engine-backed emulated matcher, kept verbatim as a reference model.

This is ``repro.analyzer.structures`` exactly as it stood before the
flat-chain matcher replaced it: every posting allocates a
``ReceiveDescriptor`` (with its ``Bitmap`` and sequence label) from a
``DescriptorTable`` and lands in the engine's own ``ReceiveIndexes``;
every message asks ``candidate_chains`` for its four targets and walks
``IntrusiveList`` nodes through the residual predicates; unexpected
messages live in ``UnexpectedIndexes`` and occupancy in the
``_OccupancyTracker`` histogram. It pays the optimistic engine's
machinery for a serial matcher and is therefore slow, but it is the
*definition* of the Fig. 7 depths — ``test_matcher_differential.py``
holds the production ``EmulatedMatcher`` to it op by op, and
``reference_analyze.py`` replays whole traces through it.

Only the names differ: ``EmulatedMatcher`` is ``ReferenceMatcher`` here
and the (unchanged) ``DepthSnapshot`` is imported, so snapshots compare
equal across the two.
"""

from __future__ import annotations

from repro.core.constants import WildcardClass
from repro.core.descriptor import DescriptorTable, ReceiveDescriptor
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.hashing import receive_hash
from repro.core.indexes import (
    ReceiveIndexes,
    SearchProbeCount,
    UnexpectedIndexes,
    UnexpectedMessage,
)
from repro.util.counters import MonotonicCounter, SequenceLabeler
from repro.analyzer.structures import DepthSnapshot

__all__ = ["ReferenceMatcher"]


class _OccupancyTracker:
    """Incremental depth histogram over the three PRQ hash tables."""

    __slots__ = ("_hist", "_max", "empty", "total_buckets")

    def __init__(self, total_buckets: int) -> None:
        self._hist: dict[int, int] = {}
        self._max = 0
        self.empty = total_buckets
        self.total_buckets = total_buckets

    def transition(self, old_depth: int, new_depth: int) -> None:
        if old_depth == new_depth:
            return
        if old_depth > 0:
            count = self._hist[old_depth] - 1
            if count:
                self._hist[old_depth] = count
            else:
                del self._hist[old_depth]
        else:
            self.empty -= 1
        if new_depth > 0:
            self._hist[new_depth] = self._hist.get(new_depth, 0) + 1
        else:
            self.empty += 1
        if new_depth > self._max:
            self._max = new_depth
        elif old_depth == self._max and old_depth not in self._hist:
            self._max = max(self._hist, default=0)

    @property
    def max_depth(self) -> int:
        return self._max

    @property
    def empty_fraction(self) -> float:
        return self.empty / self.total_buckets if self.total_buckets else 1.0


class ReferenceMatcher:
    """Serial matcher over the paper's four-index layout."""

    def __init__(self, bins: int, capacity: int = 1 << 14) -> None:
        self.bins = bins
        self.indexes = ReceiveIndexes(bins)
        self.unexpected = UnexpectedIndexes(bins)
        self._table = DescriptorTable(capacity, 1)
        self._labels = MonotonicCounter()
        self._sequencer = SequenceLabeler()
        self._occupancy = _OccupancyTracker(3 * bins)
        self._posted_live = 0
        #: receives whose bucket was non-empty at insertion (hash
        #: collisions in the §V-A statistics sense).
        self.collisions = 0
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
        self._interval_min_empty = 1.0

    def post_receive(self, request: ReceiveRequest) -> bool:
        """Post a receive; returns True when it drained an unexpected
        message (and was therefore never indexed)."""
        self.posts += 1
        # One hash per posting: the word addresses the receive's bucket
        # in the unexpected store and in its own index alike.
        wc = request.wildcard_class()
        word = receive_hash(wc, request.source, request.tag)
        probes = SearchProbeCount()
        stored = self.unexpected.search_chain(
            self.unexpected.chain_for(wc, word), request, probes
        )
        if stored is not None:
            self.unexpected.remove(stored)
            self.drained_total += 1
            self._labels.next()
            # Walk cost of the drain, excluding the matched entry.
            self._observe_walk(max(probes.walked - 1, 0))
            return True
        self._observe_walk(probes.walked)
        descr = self._table.allocate(
            request,
            post_label=self._labels.next(),
            sequence_id=self._sequencer.label(request.source, request.tag),
        )
        chain = self.indexes.chain_for(wc, word)
        before = len(chain)
        self.indexes.insert_at(chain, descr)
        self._posted_live += 1
        # Collision statistic: the target bucket already held entries.
        if before > 0:
            self.collisions += 1
        if wc is not WildcardClass.BOTH:
            self._occupancy.transition(before, before + 1)
        self._observe_occupancy()
        return False

    def _observe_walk(self, walked: int) -> None:
        """Record one operation's experienced search depth."""
        if walked > self._interval_max:
            self._interval_max = walked
        self._interval_sum += walked
        self._interval_samples += 1

    def _observe_occupancy(self) -> None:
        """Track the fullest moment of the interval (empty-bin stat)."""
        empty = self._occupancy.empty_fraction
        if empty < self._interval_min_empty:
            self._interval_min_empty = empty

    def deliver(self, msg: MessageEnvelope) -> bool:
        """Deliver a message; returns True when it matched a receive.

        Chain order *is* arrival order here, so ``msg.arrival`` is the
        caller's to stamp and is never read.
        """
        self.messages += 1
        self._observe_occupancy()
        best: ReceiveDescriptor | None = None
        visited = 0
        for _wc, chain, predicate in self.indexes.candidate_chains(msg):
            for node in chain.iter_nodes():
                visited += 1
                descr = node.payload
                if predicate(descr.request, msg):
                    if best is None or descr.post_label < best.post_label:
                        best = descr
                    break
        # The experienced queue depth: entries inspected that were not
        # the match itself.
        self._observe_walk(visited - 1 if best is not None else visited)
        if best is not None:
            chain = best.node.owner
            before = len(chain)
            self.indexes.consume(best, lazy=False)
            self._posted_live -= 1
            if best.wildcard_class is not WildcardClass.BOTH:
                self._occupancy.transition(before, before - 1)
            self._table.release(best)
            return True
        self.unexpected.insert(UnexpectedMessage(envelope=msg))
        self.unexpected_total += 1
        return False

    def snapshot(self) -> DepthSnapshot:
        """Current structure occupancy (instantaneous, O(1))."""
        wildcard_depth = len(self.indexes.both_wildcard)
        return DepthSnapshot(
            max_depth=max(self._occupancy.max_depth, wildcard_depth),
            total_posted=self._posted_live,
            unexpected=len(self.unexpected),
            empty_fraction=self._occupancy.empty_fraction,
            wildcard_list_depth=wildcard_depth,
        )

    def take_datapoint(self) -> tuple[int, float, DepthSnapshot]:
        """Flush the interval statistics at a progress operation.

        Returns ``(interval_max_depth, interval_mean_depth, snapshot)``
        and resets the interval accumulators.
        """
        interval_max = self._interval_max
        interval_mean = (
            self._interval_sum / self._interval_samples if self._interval_samples else 0.0
        )
        snap = self.snapshot()
        snap = DepthSnapshot(
            max_depth=snap.max_depth,
            total_posted=snap.total_posted,
            unexpected=snap.unexpected,
            # Report the fullest moment of the interval, not the
            # (usually drained) instant of the progress call.
            empty_fraction=self._interval_min_empty,
            wildcard_list_depth=snap.wildcard_list_depth,
        )
        self._interval_max = 0
        self._interval_sum = 0
        self._interval_samples = 0
        self._interval_min_empty = 1.0
        return interval_max, interval_mean, snap
