"""The per-probe optimistic search, kept verbatim as a reference model.

This is ``repro.core.optimistic.search_candidate`` exactly as it stood
before the search learned to look ahead: it walks each chain through
``iter_nodes`` and yields one bare step per bucket lookup and per
probe, deciding every node at that node's own step. It is the
*definition* of the search's interleaving and of the per-block
``thread_steps``, ``probes_walked`` and ``early_skips`` the DPA cycle
model prices — ``test_search_differential.py`` holds the production
search to it.
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

__all__ = ["search_candidate"]


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
    for wc, chain, predicate in indexes.candidate_chains(msg):
        stats.buckets_probed += 1
        if not (inline and wc is not WildcardClass.BOTH):
            # The double-wildcard list needs no hash; the three tables
            # each cost one hash unless the sender shipped it inline.
            if wc is not WildcardClass.BOTH:
                stats.hashes_computed += 1
        yield  # bucket lookup step
        for node in chain.iter_nodes(include_marked=True):
            stats.probes_walked += 1
            yield  # chain-walk step
            descr: ReceiveDescriptor = node.payload
            if node.marked or descr.consumed:
                continue  # lazily-removed entry still physically present
            if not predicate(descr.request, msg):
                continue  # hash collision within the bucket
            if early_skip and descr.booking.any_below(thread_id):
                stats.early_skips += 1
                continue  # a lower thread is guaranteed to consume it
            # First live match in a posting-ordered chain: the oldest
            # candidate this index can offer (C1 within the index).
            if best is None or descr.post_label < best.post_label:
                best = descr
            break
    return best
