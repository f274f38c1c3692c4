"""The optimistic matching phase (§III-C).

Each block thread searches the four receive indexes independently, as
if no other thread were matching concurrently. Within an index, C1 is
free — bucket chains are in posting order, so the first live envelope
match is the oldest in that structure. Across indexes the thread may
end up with up to four candidates and must select the one with the
minimum post label.

The search is written as a generator so the stepped executor can
interleave threads between probes; every bucket lookup and every
physical chain-node visit is one step in the cost model, and every
visit one probe. It looks ahead: it counts those steps and yields the
count (``yield n``, :mod:`repro.core.threadsim`) only before a read
whose answer can still change. A node already marked or consumed, or
failing the residual predicate, is decided when the walk reaches it
(marks and consumption only switch on within a block, and the
predicate reads frozen fields); the liveness re-check and the
early-booking test still run at the node's own step. Pricing and the
poll rule are unchanged: a skipped node still adds its probe and step.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.core.config import EngineConfig
from repro.core.constants import WildcardClass
from repro.core.descriptor import ReceiveDescriptor
from repro.core.envelope import MessageEnvelope
from repro.core.indexes import ReceiveIndexes
from repro.core.stats import BlockStats
from repro.core.threadsim import Yielded

__all__ = ["search_candidate", "skipped_classes"]


def skipped_classes(config: EngineConfig) -> frozenset[WildcardClass]:
    """Index classes the engine may skip thanks to communicator hints
    (what it builds its ``ReceiveIndexes`` with as ``never_posted``).

    ``mpi_assert_no_any_source`` / ``mpi_assert_no_any_tag`` (§VII)
    guarantee no receive will ever live in the corresponding wildcard
    index, so per-message probes of those indexes can be elided. Both
    hints together also empty the double-wildcard list.
    """
    skipped: set[WildcardClass] = set()
    if config.assert_no_any_source:
        skipped.add(WildcardClass.SOURCE)
    if config.assert_no_any_tag:
        skipped.add(WildcardClass.TAG)
    if config.assert_no_any_source and config.assert_no_any_tag:
        skipped.add(WildcardClass.BOTH)
    return frozenset(skipped)


def search_candidate(
    indexes: ReceiveIndexes,
    config: EngineConfig,
    stats: BlockStats,
    thread_id: int,
    msg: MessageEnvelope,
    *,
    early_skip: bool,
) -> Generator[Yielded, None, ReceiveDescriptor | None]:
    """Find the oldest live receive matching ``msg``, optimistically.

    Parameters
    ----------
    indexes:
        Built with ``never_posted=skipped_classes(config)``, so hinted
        classes are not among its search targets.
    early_skip:
        Apply the §IV-D early-booking check: skip candidates whose
        booking bitmap already has a bit below ``thread_id`` — some
        lower thread is guaranteed to consume them.

    Returns the selected candidate (minimum post label across the four
    index candidates) or ``None``. The caller books it.
    """
    inline = config.use_inline_hashes and msg.inline_hashes is not None

    best: ReceiveDescriptor | None = None
    owed = 0  # steps taken and not yet yielded
    for wc, chain, predicate in indexes.candidate_chains(msg):
        stats.buckets_probed += 1
        if not (inline and wc is not WildcardClass.BOTH):
            # The double-wildcard list needs no hash; the three tables
            # each cost one hash unless the sender shipped it inline.
            if wc is not WildcardClass.BOTH:
                stats.hashes_computed += 1
        owed += 1  # bucket lookup step
        # Chains only change shape between blocks, so the walk follows
        # the physical links it finds now.
        node = chain.physical_head
        while node is not None:
            stats.probes_walked += 1
            owed += 1  # chain-walk step
            descr: ReceiveDescriptor = node.payload
            # Decided by looking ahead: marking and consumption only
            # switch on within a block, and the predicate reads frozen
            # fields, so the node's own step would skip it too.
            if node.marked or descr.consumed or not predicate(descr.request, msg):
                node = node.next
                continue
            yield owed  # up to and including this node's step
            owed = 0
            if node.marked or descr.consumed:
                node = node.next
                continue  # consumed while this thread was walking
            if early_skip and descr.booking.any_below(thread_id):
                stats.early_skips += 1
                node = node.next
                continue  # a lower thread is guaranteed to consume it
            # First live match in a posting-ordered chain: the oldest
            # candidate this index can offer (C1 within the index).
            if best is None or descr.post_label < best.post_label:
                best = descr
            break
    if owed:
        yield owed
    return best
