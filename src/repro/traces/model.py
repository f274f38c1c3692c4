"""In-memory trace representation.

"We use a custom in-memory representation because it is easier to
integrate and tailor to our specific needs" (§V-A). A trace is a set
of per-rank operation lists; operations are classified into the four
groups the analyzer distinguishes: point-to-point, collective,
one-sided, and progress (§V-A.b).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.constants import ANY_SOURCE, ANY_TAG

__all__ = ["OpKind", "OpGroup", "TraceOp", "RankTrace", "Trace", "counts_by_group", "call_mix"]


class OpGroup(enum.Enum):
    """The analyzer's four operation groups (§V-A.b)."""

    P2P = "p2p"
    COLLECTIVE = "collective"
    ONE_SIDED = "one-sided"
    PROGRESS = "progress"


class OpKind(enum.Enum):
    """Concrete MPI call recorded in a trace.

    ``value`` is the MPI function name; ``group`` and ``ordinal`` (the
    member's position in ``tuple(OpKind)``) are plain attributes, so
    classifying an op, or tallying it under its ordinal, calls nothing.
    """

    group: OpGroup
    ordinal: int

    def __new__(cls, mpi_name: str, group: OpGroup) -> "OpKind":
        member = object.__new__(cls)
        member._value_ = mpi_name
        member.group = group
        return member

    ISEND = "MPI_Isend", OpGroup.P2P
    SEND = "MPI_Send", OpGroup.P2P
    IRECV = "MPI_Irecv", OpGroup.P2P
    RECV = "MPI_Recv", OpGroup.P2P
    WAIT = "MPI_Wait", OpGroup.PROGRESS
    WAITALL = "MPI_Waitall", OpGroup.PROGRESS
    TEST = "MPI_Test", OpGroup.PROGRESS
    BARRIER = "MPI_Barrier", OpGroup.COLLECTIVE
    BCAST = "MPI_Bcast", OpGroup.COLLECTIVE
    REDUCE = "MPI_Reduce", OpGroup.COLLECTIVE
    ALLREDUCE = "MPI_Allreduce", OpGroup.COLLECTIVE
    GATHER = "MPI_Gather", OpGroup.COLLECTIVE
    GATHERV = "MPI_Gatherv", OpGroup.COLLECTIVE
    ALLGATHER = "MPI_Allgather", OpGroup.COLLECTIVE
    ALLTOALL = "MPI_Alltoall", OpGroup.COLLECTIVE
    ALLTOALLV = "MPI_Alltoallv", OpGroup.COLLECTIVE
    SCATTER = "MPI_Scatter", OpGroup.COLLECTIVE
    PUT = "MPI_Put", OpGroup.ONE_SIDED
    GET = "MPI_Get", OpGroup.ONE_SIDED
    ACCUMULATE = "MPI_Accumulate", OpGroup.ONE_SIDED


_KINDS = tuple(OpKind)
for _ordinal, _kind in enumerate(_KINDS):
    _kind.ordinal = _ordinal


@dataclass(frozen=True, slots=True)
class TraceOp:
    """One recorded MPI call.

    Field use depends on the kind: sends use ``peer``/``tag``/``size``,
    receives use ``peer`` (or ``ANY_SOURCE``)/``tag`` (or ``ANY_TAG``),
    waits use ``request``; collectives/one-sided carry only sizes.
    """

    kind: OpKind
    peer: int = -2  #: dest for sends, source for receives, -2 = n/a
    tag: int = 0
    comm: int = 0
    size: int = 0
    request: int = -1  #: request id linking isend/irecv to wait
    walltime: float = 0.0

    @property
    def group(self) -> OpGroup:
        return self.kind.group

    def uses_wildcard(self) -> bool:
        if self.kind not in (OpKind.IRECV, OpKind.RECV):
            return False
        return self.peer == ANY_SOURCE or self.tag == ANY_TAG


@dataclass(slots=True)
class RankTrace:
    """One rank's recorded operation stream."""

    rank: int
    ops: list[TraceOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def counts_by_group(self) -> dict[OpGroup, int]:
        tally: defaultdict[int, int] = defaultdict(int)
        for op in self.ops:
            tally[op.kind.ordinal] += 1
        return counts_by_group(tally)


def counts_by_group(kind_tally: Mapping[int, int]) -> dict[OpGroup, int]:
    """Per-group totals of a tally keyed by ``OpKind.ordinal``."""
    counts = {group: 0 for group in OpGroup}
    for ordinal, count in kind_tally.items():
        counts[_KINDS[ordinal].group] += count
    return counts


def call_mix(counts: dict[OpGroup, int]) -> dict[OpGroup, float]:
    """Fractions of p2p/collective/one-sided among communication ops
    (progress excluded) — the Figure 6 quantity."""
    comm_total = counts[OpGroup.P2P] + counts[OpGroup.COLLECTIVE] + counts[OpGroup.ONE_SIDED]
    if comm_total == 0:
        return {OpGroup.P2P: 0.0, OpGroup.COLLECTIVE: 0.0, OpGroup.ONE_SIDED: 0.0}
    return {
        OpGroup.P2P: counts[OpGroup.P2P] / comm_total,
        OpGroup.COLLECTIVE: counts[OpGroup.COLLECTIVE] / comm_total,
        OpGroup.ONE_SIDED: counts[OpGroup.ONE_SIDED] / comm_total,
    }


@dataclass(slots=True)
class Trace:
    """A full application trace across all ranks."""

    name: str
    nprocs: int
    ranks: list[RankTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {self.nprocs}")

    def rank(self, index: int) -> RankTrace:
        return self.ranks[index]

    def total_ops(self) -> int:
        return sum(len(r) for r in self.ranks)

    def counts_by_group(self) -> dict[OpGroup, int]:
        totals = {group: 0 for group in OpGroup}
        for rank_trace in self.ranks:
            for group, count in rank_trace.counts_by_group().items():
                totals[group] += count
        return totals

    def call_mix(self) -> dict[OpGroup, float]:
        return call_mix(self.counts_by_group())
