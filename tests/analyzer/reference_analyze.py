"""The per-cell trace-processing loop, kept verbatim as a reference model.

This is ``repro.analyzer.processing.analyze`` exactly as it stood before
the prepare/replay split: every ``(trace, bins)`` cell merges and sorts
the ranks' operations itself, builds a fresh ``ReceiveRequest`` /
``MessageEnvelope`` per operation (no inline hashes, no arrival stamp)
and counts tag / wildcard / kind usage as it goes. It redoes all the
bin-independent work per cell and is therefore slow, but it is the
*definition* of an ``AppAnalysis`` — ``test_prepare_differential.py``
holds the production ``prepare`` + replay to it on random traces.

Only the names differ: ``analyze`` is ``reference_analyze`` here, and it
drives ``reference_matcher.ReferenceMatcher`` — the matcher as it stood
then — so this side shares no matching code with the production replay.
"""

from __future__ import annotations

from collections import Counter

from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.traces.model import OpGroup, OpKind, Trace
from repro.analyzer.statistics import AppAnalysis, Datapoint, QueueDepthStats
from tests.analyzer.reference_matcher import ReferenceMatcher

__all__ = ["reference_analyze"]


def _merged_ops(trace: Trace):
    """All (rank, op) pairs in global walltime order.

    Ties break by (walltime, rank, intra-rank position), which is
    deterministic and keeps each rank's program order intact.
    """
    ops = []
    for rank_trace in trace.ranks:
        for position, op in enumerate(rank_trace.ops):
            ops.append((op.walltime, rank_trace.rank, position, op))
    ops.sort(key=lambda item: (item[0], item[1], item[2]))
    return [(rank, op) for _, rank, _, op in ops]


def reference_analyze(
    trace: Trace, bins: int, *, keep_datapoints: bool = False
) -> AppAnalysis:
    """Process one trace with ``bins``-bin structures."""
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    matchers = [ReferenceMatcher(bins) for _ in range(trace.nprocs)]
    datapoints: list[Datapoint] = []
    wildcard_usage: Counter = Counter()
    tag_usage: Counter = Counter()
    p2p_kinds: Counter = Counter()
    pairs: set[tuple[int, int]] = set()
    send_seq: dict[int, int] = {}

    for rank, op in _merged_ops(trace):
        group = op.group
        if group is OpGroup.P2P:
            p2p_kinds[op.kind] += 1
            if op.kind in (OpKind.IRECV, OpKind.RECV):
                request = ReceiveRequest(
                    source=op.peer, tag=op.tag, comm=op.comm, size=op.size
                )
                wildcard_usage[request.wildcard_class()] += 1
                pairs.add((op.peer, op.tag))
                if op.tag >= 0:
                    tag_usage[op.tag] += 1
                matchers[rank].post_receive(request)
            else:  # ISEND / SEND from `rank` to op.peer
                if op.tag >= 0:
                    tag_usage[op.tag] += 1
                seq = send_seq.get(rank, 0)
                send_seq[rank] = seq + 1
                matchers[op.peer].deliver(
                    MessageEnvelope(
                        source=rank,
                        tag=op.tag,
                        comm=op.comm,
                        size=op.size,
                        send_seq=seq,
                    )
                )
        elif group is OpGroup.PROGRESS:
            interval_max, _interval_mean, snap = matchers[rank].take_datapoint()
            datapoints.append(
                Datapoint(
                    rank=rank,
                    walltime=op.walltime,
                    max_depth=interval_max,
                    total_posted=snap.total_posted,
                    unexpected=snap.unexpected,
                    empty_fraction=snap.empty_fraction,
                )
            )
        # collectives / one-sided: counted via call_mix only

    depth = QueueDepthStats.from_datapoints(
        bins,
        datapoints,
        collisions=sum(m.collisions for m in matchers),
        unexpected_total=sum(m.unexpected_total for m in matchers),
        drained_total=sum(m.drained_total for m in matchers),
    )
    return AppAnalysis(
        name=trace.name,
        nprocs=trace.nprocs,
        bins=bins,
        depth=depth,
        datapoints=datapoints if keep_datapoints else [],
        call_mix=trace.call_mix(),
        wildcard_usage=wildcard_usage,
        tag_usage=tag_usage,
        p2p_kinds=p2p_kinds,
        unique_pairs=len(pairs),
        total_ops=trace.total_ops(),
    )
