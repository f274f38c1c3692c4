"""The four receive indexes and the mirrored unexpected-message indexes.

Posted receives are split by wildcard usage into three hash tables and
one linked list (§III-B, Fig. 3):

========================  =======================  ===================
receive class             structure                key
========================  =======================  ===================
no wildcards              hash table               (source, tag)
source wildcard           hash table               tag
tag wildcard              hash table               source
source and tag wildcard   linked list              — (posting order)
========================  =======================  ===================

A receive lives in exactly **one** structure. An unexpected message,
which always has concrete source and tag, is indexed in **all** of
them (§IV-C) so that any future receive — whatever its wildcards —
finds it by searching only the single structure it itself belongs to.

Buckets are :class:`repro.util.intrusive.IntrusiveList` chains kept in
posting/arrival order, which is what makes C1/C2 hold *within* a
bucket for free.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass, field

from repro.core.constants import WildcardClass
from repro.core.descriptor import ReceiveDescriptor
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.core.hashing import message_hashes, receive_hash
from repro.util.intrusive import IntrusiveList, IntrusiveNode

__all__ = [
    "HashTable",
    "ReceiveIndexes",
    "UnexpectedMessage",
    "UnexpectedIndexes",
    "SearchProbeCount",
]


@dataclass(slots=True)
class SearchProbeCount:
    """Probe accounting for the cost model and the analyzer.

    ``walked`` counts list elements visited (the paper's *queue depth*
    cost), ``buckets`` counts bucket lookups (hash computations unless
    inline hashes are present).
    """

    walked: int = 0
    buckets: int = 0

    def merge(self, other: "SearchProbeCount") -> None:
        self.walked += other.walked
        self.buckets += other.buckets


class HashTable:
    """A binned table of intrusive chains (one of the paper's indexes).

    The modelled table has ``bins`` buckets; a chain exists host-side
    only once its bucket has been addressed, so a table costs what the
    rank touches of it and an untouched bin reads as empty.
    """

    def __init__(self, bins: int) -> None:
        if bins <= 0:
            raise ValueError(f"bin count must be positive, got {bins}")
        self._bins = bins
        self._buckets: defaultdict[int, IntrusiveList] = defaultdict(IntrusiveList)

    @property
    def bins(self) -> int:
        return self._bins

    def bucket(self, hash_word: int) -> IntrusiveList:
        return self._buckets[hash_word % self._bins]

    def bucket_at(self, index: int) -> IntrusiveList:
        if not 0 <= index < self._bins:
            raise IndexError(f"bucket {index} out of range [0, {self._bins})")
        return self._buckets[index]

    def __iter__(self) -> Iterator[IntrusiveList]:
        """The chains that exist, in bucket order."""
        return (self._buckets[index] for index in sorted(self._buckets))

    def total_live(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def depths(self) -> list[int]:
        """Live chain length per bucket (the analyzer's queue depths)."""
        depths = [0] * self._bins
        for index, chain in self._buckets.items():
            depths[index] = len(chain)
        return depths

    def empty_fraction(self) -> float:
        """Fraction of bins with no live entries (Fig. 7 statistic)."""
        occupied = sum(1 for b in self._buckets.values() if not b.is_empty())
        return (self._bins - occupied) / self._bins


def _same_source_and_tag(request: ReceiveRequest, msg: MessageEnvelope) -> bool:
    return request.source == msg.source and request.tag == msg.tag


def _same_tag(request: ReceiveRequest, msg: MessageEnvelope) -> bool:
    return request.tag == msg.tag


def _same_source(request: ReceiveRequest, msg: MessageEnvelope) -> bool:
    return request.source == msg.source


def _always(request: ReceiveRequest, msg: MessageEnvelope) -> bool:
    return True


class _FourStructures:
    """The §III-B layout: three binned tables and one ordered list."""

    def __init__(self, bins: int) -> None:
        self.no_wildcard = HashTable(bins)
        self.source_wildcard = HashTable(bins)
        self.tag_wildcard = HashTable(bins)
        #: Posting- (or arrival-) ordered list for double-wildcard receives.
        self.both_wildcard: IntrusiveList = IntrusiveList()

    @property
    def bins(self) -> int:
        return self.no_wildcard.bins

    def chain_for(self, wildcard_class: WildcardClass, hash_word: int) -> IntrusiveList:
        """The one chain a receive of this class lives in (or searches),
        given its :func:`repro.core.hashing.receive_hash` word."""
        if wildcard_class is WildcardClass.NONE:
            return self.no_wildcard.bucket(hash_word)
        if wildcard_class is WildcardClass.SOURCE:
            return self.source_wildcard.bucket(hash_word)
        if wildcard_class is WildcardClass.TAG:
            return self.tag_wildcard.bucket(hash_word)
        return self.both_wildcard


#: The order in which ``ReceiveIndexes.candidate_chains`` lists its targets.
_SEARCH_ORDER = (WildcardClass.NONE, WildcardClass.SOURCE, WildcardClass.TAG, WildcardClass.BOTH)


class ReceiveIndexes(_FourStructures):
    """The four posted-receive structures, plus insertion/search logic."""

    def __init__(self, bins: int, never_posted: Collection[WildcardClass] = ()) -> None:
        """``never_posted``: wildcard classes no receive will ever be
        posted in (communicator hints, fixed for the owner's lifetime);
        :meth:`candidate_chains` leaves their structures out."""
        super().__init__(bins)
        #: Positions of candidate_chains' four targets that are
        #: searched; None when all are (no per-message filtering).
        self._searched = (
            tuple(i for i, wc in enumerate(_SEARCH_ORDER) if wc not in never_posted)
            if never_posted
            else None
        )
        self._live = 0
        #: Chains holding lazily-marked nodes since the last sweep.
        self._dirty: set[IntrusiveList] = set()

    def insert(self, descr: ReceiveDescriptor) -> None:
        """Index a receive in the single structure its class selects."""
        wc = descr.wildcard_class
        request = descr.request
        self.insert_at(
            self.chain_for(wc, receive_hash(wc, request.source, request.tag)), descr
        )

    def insert_at(self, chain: IntrusiveList, descr: ReceiveDescriptor) -> None:
        """Index a receive in ``chain``, which the caller resolved with
        :meth:`chain_for`."""
        descr.node = chain.append(descr)
        self._live += 1

    def candidate_chains(
        self, msg: MessageEnvelope
    ) -> list[
        tuple[WildcardClass, IntrusiveList, Callable[[ReceiveRequest, MessageEnvelope], bool]]
    ]:
        """The (class, chain, envelope-predicate) search targets: four,
        less the classes declared ``never_posted``.

        For each incoming message every index is probed with the
        appropriate key (Fig. 3). Buckets can contain colliding keys,
        so each chain comes with the residual predicate
        ``predicate(request, msg)`` that a chained receive must satisfy
        to be a real match.
        """
        hashes = message_hashes(msg)
        targets = [  # in _SEARCH_ORDER
            (WildcardClass.NONE, self.no_wildcard.bucket(hashes.src_tag), _same_source_and_tag),
            (WildcardClass.SOURCE, self.source_wildcard.bucket(hashes.tag_only), _same_tag),
            (WildcardClass.TAG, self.tag_wildcard.bucket(hashes.src_only), _same_source),
            (WildcardClass.BOTH, self.both_wildcard, _always),
        ]
        if self._searched is None:
            return targets
        return [targets[i] for i in self._searched]

    def consume(self, descr: ReceiveDescriptor, *, lazy: bool) -> None:
        """Remove a matched receive from its index.

        With *lazy removal* (§IV-D) the node is only marked; a later
        :meth:`sweep` unlinks marked nodes in batch.
        """
        descr.consumed = True
        node = descr.node
        if node is None or node.owner is None:
            return
        chain = node.owner
        if not node.marked:
            self._live -= 1
        if lazy:
            chain.mark(node)
            self._dirty.add(chain)
        else:
            chain.unlink(node)
            descr.node = None

    def sweep(self) -> int:
        """Batch-remove marked nodes; only chains that were lazily
        consumed from since the last sweep can hold any."""
        removed = 0
        for chain in self._dirty:
            removed += chain.sweep()
        self._dirty.clear()
        return removed

    def total_live(self) -> int:
        """Live (unconsumed) receives across all four structures, O(1)."""
        return self._live


@dataclass(eq=False, slots=True)
class UnexpectedMessage:
    """An arrived-but-unmatched message staged in the unexpected store.

    Keeps one node reference per structure so a later match can remove
    the message from *all* indexes (§IV-C).
    """

    envelope: MessageEnvelope
    #: Bounce-buffer handle (or payload token) for protocol handling.
    buffer_token: int = 0
    nodes: dict[str, IntrusiveNode] = field(default_factory=dict, repr=False)
    removed: bool = False


class UnexpectedIndexes(_FourStructures):
    """Unexpected-message store: same shape as the receive indexes, but
    every message is inserted into all four structures (§IV-C)."""

    _STRUCTURES = ("no_wildcard", "source_wildcard", "tag_wildcard", "both_wildcard")

    def __init__(self, bins: int) -> None:
        super().__init__(bins)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, unexpected: UnexpectedMessage) -> None:
        """Index a newly unexpected message in every structure."""
        msg = unexpected.envelope
        hashes = message_hashes(msg)
        unexpected.nodes["no_wildcard"] = self.no_wildcard.bucket(hashes.src_tag).append(
            unexpected
        )
        unexpected.nodes["source_wildcard"] = self.source_wildcard.bucket(
            hashes.tag_only
        ).append(unexpected)
        unexpected.nodes["tag_wildcard"] = self.tag_wildcard.bucket(hashes.src_only).append(
            unexpected
        )
        unexpected.nodes["both_wildcard"] = self.both_wildcard.append(unexpected)
        self._count += 1

    def search(
        self, request: ReceiveRequest, probes: SearchProbeCount | None = None
    ) -> UnexpectedMessage | None:
        """Find the oldest-arrival unexpected message matching ``request``.

        Only the single structure the *receive* belongs to is searched
        (§IV-C): messages are present in all of them, and each bucket
        chain is in arrival order, so the first full-envelope match in
        the receive's own bucket is the oldest one — satisfying C2.
        """
        wc = request.wildcard_class()
        chain = self.chain_for(wc, receive_hash(wc, request.source, request.tag))
        return self.search_chain(chain, request, probes)

    def search_chain(
        self,
        chain: IntrusiveList,
        request: ReceiveRequest,
        probes: SearchProbeCount | None = None,
    ) -> UnexpectedMessage | None:
        """:meth:`search` in ``chain``, which the caller resolved with
        :meth:`chain_for`."""
        if probes is not None:
            probes.buckets += 1
        for node in chain.iter_nodes():
            if probes is not None:
                probes.walked += 1
            um: UnexpectedMessage = node.payload
            if request.matches(um.envelope):
                return um
        return None

    def remove(self, unexpected: UnexpectedMessage) -> None:
        """Remove a matched message from all four structures."""
        if unexpected.removed:
            raise ValueError("unexpected message already removed")
        for name in self._STRUCTURES:
            node = unexpected.nodes.pop(name)
            if node.owner is not None:
                node.owner.unlink(node)
        unexpected.removed = True
        self._count -= 1

    def depths(self) -> list[int]:
        """Queue depth per bucket of the (source, tag) table."""
        return self.no_wildcard.depths()
