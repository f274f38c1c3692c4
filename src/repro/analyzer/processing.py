"""The trace-processing stage (§V-A.b).

Operations from every rank are merged into global walltime order and
replayed against per-rank emulated matching structures:

* a posted receive first searches the destination rank's unexpected
  store, then lands in the index its wildcards select;
* a send delivers a message envelope to the destination rank, where it
  either consumes the oldest matching posted receive or is stored
  unexpected;
* a progress operation (wait/waitall/test) snapshots the issuing
  rank's structure occupancy into a datapoint.

Collectives and one-sided operations are counted for the call mix but
not matched — exactly the paper's scope ("Only p2p and progress
operations are processed, ignoring collectives and one-sided").

The work splits in two. :func:`prepare` does everything no bin count
can change, once per trace: the merge, the message envelopes and the
postings themselves, and the call-mix / tag / wildcard / kind / pair
statistics. That includes all the hashing (§IV-D): ``hash(src, tag)``,
``hash(tag)`` and ``hash(src)`` "do not depend on receiver state", so an
envelope carries its inline hashes and a posting its
:func:`~repro.analyzer.structures.receive_key`, each resolved once per
distinct ``(source, tag)`` — the receiver only reduces them modulo its
bin count. :func:`analyze` is then the replay of that list against
``bins``-bin structures, so a sweep over bin counts prepares once and
replays per count, and a replay hashes nothing.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Any

from repro.core.envelope import MessageEnvelope
from repro.core.hashing import compute_inline_hashes
from repro.traces.model import OpGroup, OpKind, Trace, call_mix, counts_by_group
from repro.analyzer.statistics import AppAnalysis, Datapoint, QueueDepthStats
from repro.analyzer.structures import STRUCTURES, EmulatedMatcher, receive_key

__all__ = ["PreparedTrace", "prepare", "analyze"]

#: Replay step codes: ``(code, rank, item)`` with ``item`` a ready-made
#: posting ``(source, tag, comm, structure, word)`` posted at ``rank``, a
#: ``MessageEnvelope`` delivered to ``rank``, or the walltime of a
#: progress operation on ``rank``.
_POST, _DELIVER, _PROGRESS = range(3)


@dataclass(frozen=True, slots=True, eq=False)
class PreparedTrace:
    """Everything :func:`analyze` needs of a trace that is the same at
    every bin count. Treat it as immutable: one is replayed many times."""

    name: str
    nprocs: int
    total_ops: int
    #: The globally ordered replay list (see the step codes above).
    steps: list[tuple[int, int, Any]]
    call_mix: dict[OpGroup, float]
    wildcard_usage: Counter
    tag_usage: Counter
    p2p_kinds: Counter
    unique_pairs: int


def prepare(trace: Trace | PreparedTrace) -> PreparedTrace:
    """The bin-independent half of the analysis, done once per trace.

    A trace that is already prepared is returned as it is, so anything
    that analyzes "a trace" takes either form. Ties in the merge break
    by (walltime, rank, intra-rank position), which is deterministic
    and keeps each rank's program order intact.
    """
    if isinstance(trace, PreparedTrace):
        return trace
    ops = [
        (op.walltime, rank_trace.rank, position, op)
        for rank_trace in trace.ranks
        for position, op in enumerate(rank_trace.ops)
    ]
    ops.sort(key=itemgetter(0, 1, 2))

    steps: list[tuple[int, int, Any]] = []
    # Kinds and wildcard classes are tallied under plain ints (ordinal,
    # structure index): hashing an enum member is a Python call per op.
    # A dict keeps first-seen order, which is the order the counters
    # iterate in and the one ``most_common`` breaks ties by.
    kind_tally: defaultdict[int, int] = defaultdict(int)
    structure_tally: defaultdict[int, int] = defaultdict(int)
    tag_usage: Counter = Counter()
    pairs: set[tuple[int, int]] = set()
    # One InlineHashes / receive key per (source, tag), shared by every
    # envelope / posting with that key.
    inline_hashes = cache(compute_inline_hashes)
    key_of = cache(receive_key)
    send_seq: defaultdict[int, int] = defaultdict(int)
    # Completion-queue position of the next message at each rank.
    arrivals: defaultdict[int, int] = defaultdict(int)

    for walltime, rank, _position, op in ops:
        kind = op.kind
        kind_tally[kind.ordinal] += 1
        group = kind.group
        if group is OpGroup.P2P:
            peer, tag = op.peer, op.tag
            if tag >= 0:
                tag_usage[tag] += 1
            if kind is OpKind.IRECV or kind is OpKind.RECV:
                structure, word = key_of(peer, tag)
                structure_tally[structure] += 1
                pairs.add((peer, tag))
                steps.append((_POST, rank, (peer, tag, op.comm, structure, word)))
            else:  # ISEND / SEND from `rank` to `peer`
                seq = send_seq[rank]
                send_seq[rank] = seq + 1
                arrival = arrivals[peer]
                arrivals[peer] = arrival + 1
                envelope = MessageEnvelope(
                    source=rank,
                    tag=tag,
                    comm=op.comm,
                    arrival=arrival,
                    size=op.size,
                    send_seq=seq,
                    inline_hashes=inline_hashes(rank, tag),
                )
                steps.append((_DELIVER, peer, envelope))
        elif group is OpGroup.PROGRESS:
            steps.append((_PROGRESS, rank, walltime))
        # collectives / one-sided: counted via call_mix only

    kinds = tuple(OpKind)
    return PreparedTrace(
        name=trace.name,
        nprocs=trace.nprocs,
        total_ops=len(ops),
        steps=steps,
        call_mix=call_mix(counts_by_group(kind_tally)),
        wildcard_usage=Counter(
            {STRUCTURES[structure]: count for structure, count in structure_tally.items()}
        ),
        tag_usage=tag_usage,
        p2p_kinds=Counter(
            {
                kinds[ordinal]: count
                for ordinal, count in kind_tally.items()
                if kinds[ordinal].group is OpGroup.P2P
            }
        ),
        unique_pairs=len(pairs),
    )


def analyze(
    trace: Trace | PreparedTrace, bins: int, *, keep_datapoints: bool = False
) -> AppAnalysis:
    """Process one trace with ``bins``-bin structures.

    Pass the :func:`prepare`-d trace when analyzing one trace at several
    bin counts; a bare ``Trace`` is prepared here, for this call only.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    prepared = prepare(trace)
    matchers = [EmulatedMatcher(bins) for _ in range(prepared.nprocs)]
    datapoints: list[Datapoint] = []

    for code, rank, item in prepared.steps:
        if code == _POST:
            matchers[rank].post(item)
        elif code == _DELIVER:
            matchers[rank].deliver(item)
        else:
            interval_max, _interval_mean, snap = matchers[rank].take_datapoint()
            datapoints.append(
                Datapoint(
                    rank=rank,
                    walltime=item,
                    max_depth=interval_max,
                    total_posted=snap.total_posted,
                    unexpected=snap.unexpected,
                    empty_fraction=snap.empty_fraction,
                )
            )

    depth = QueueDepthStats.from_datapoints(
        bins,
        datapoints,
        collisions=sum(m.collisions for m in matchers),
        unexpected_total=sum(m.unexpected_total for m in matchers),
        drained_total=sum(m.drained_total for m in matchers),
    )
    # Each analysis owns its containers; the prepared ones are shared.
    return AppAnalysis(
        name=prepared.name,
        nprocs=prepared.nprocs,
        bins=bins,
        depth=depth,
        datapoints=datapoints if keep_datapoints else [],
        call_mix=dict(prepared.call_mix),
        wildcard_usage=Counter(prepared.wildcard_usage),
        tag_usage=Counter(prepared.tag_usage),
        p2p_kinds=Counter(prepared.p2p_kinds),
        unique_pairs=prepared.unique_pairs,
        total_ops=prepared.total_ops,
    )
