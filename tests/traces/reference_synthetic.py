"""Reference trace synthesis: ``base.py`` and ``patterns.py`` kept verbatim.

This is the per-op generator as it stood before the builder learned to
write a phase at a time: ``grid_neighbors`` per rank per phase, the send
jitter per op, and ``irecv`` / ``isend`` + ``_at`` + ``_tick`` per op.
Only the imports differ from the originals: the two modules are one
file here, so ``base.py``'s ``__all__`` (which ``patterns.py``'s would
shadow) is dropped. ``test_synthetic_differential.py`` runs random programs
through both and requires the ``Trace``s to be equal, op for op.
"""

from __future__ import annotations

from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.traces.model import OpKind, RankTrace, Trace, TraceOp

#: Sub-round phase offsets (fractions of one round of virtual time).
_PHASE_RECV = 0.0
_PHASE_SEND = 0.4
_PHASE_WAIT = 0.8


class RankBuilder:
    """Accumulates one rank's operations with request bookkeeping."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.ops: list[TraceOp] = []
        self._next_request = 0
        self._time = 0.0

    def _at(self, time: float) -> float:
        # Walltime within a rank must be nondecreasing even if a
        # pattern emits phases out of order.
        self._time = max(self._time, time)
        return self._time

    def irecv(self, source: int, tag: int, time: float, size: int = 8) -> int:
        request = self._next_request
        self._next_request += 1
        self.ops.append(
            TraceOp(
                kind=OpKind.IRECV,
                peer=source,
                tag=tag,
                size=size,
                request=request,
                walltime=self._at(time),
            )
        )
        return request

    def irecv_any(self, tag: int | None, time: float, size: int = 8) -> int:
        """Wildcard receive: ANY_SOURCE, and ANY_TAG when tag is None."""
        return self.irecv(ANY_SOURCE, ANY_TAG if tag is None else tag, time, size)

    def isend(self, dest: int, tag: int, time: float, size: int = 8) -> int:
        request = self._next_request
        self._next_request += 1
        self.ops.append(
            TraceOp(
                kind=OpKind.ISEND,
                peer=dest,
                tag=tag,
                size=size,
                request=request,
                walltime=self._at(time),
            )
        )
        return request

    def wait(self, request: int, time: float) -> None:
        self.ops.append(
            TraceOp(kind=OpKind.WAIT, request=request, walltime=self._at(time))
        )

    def waitall(self, requests: list[int], time: float) -> None:
        self.ops.append(
            TraceOp(kind=OpKind.WAITALL, size=len(requests), walltime=self._at(time))
        )

    def collective(self, kind: OpKind, time: float, size: int = 8) -> None:
        self.ops.append(TraceOp(kind=kind, size=size, walltime=self._at(time)))

    def build(self) -> RankTrace:
        return RankTrace(rank=self.rank, ops=self.ops)


class TraceBuilder:
    """Whole-application builder: per-rank builders plus a round clock."""

    def __init__(self, name: str, nprocs: int) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.name = name
        self.nprocs = nprocs
        self.ranks = [RankBuilder(rank) for rank in range(nprocs)]
        self._round = 0

    def begin_round(self) -> "RoundClock":
        """Open the next time round; returns its phase clock."""
        clock = RoundClock(float(self._round))
        self._round += 1
        return clock

    def all_collective(self, kind: OpKind, size: int = 8) -> None:
        """Every rank records the same collective in one round."""
        clock = self.begin_round()
        for rank in self.ranks:
            rank.collective(kind, clock.send(), size=size)

    def build(self) -> Trace:
        return Trace(name=self.name, nprocs=self.nprocs, ranks=[r.build() for r in self.ranks])


class RoundClock:
    """Phase timestamps within one round.

    Successive calls within a phase nudge time forward by an epsilon so
    per-rank op order is stable under sorting. The send phase applies a
    deterministic per-sender *jitter*: on a real network, messages from
    different senders race and arrive out of posting order (that skew
    is what gives posted-receive queues their depth), but messages from
    one sender on one connection stay ordered (RC FIFO / C2). Jitter is
    therefore constant per (sender, round) and the intra-sender epsilon
    keeps each sender's emissions ordered.
    """

    _EPS = 1e-6
    _JITTER_SPAN = 0.3

    def __init__(self, base: float) -> None:
        self.base = base
        self._counters = [0, 0, 0]

    def _tick(self, phase_index: int, offset: float) -> float:
        value = self.base + offset + self._counters[phase_index] * self._EPS
        self._counters[phase_index] += 1
        return value

    def recv(self) -> float:
        """Pre-posting phase timestamp."""
        return self._tick(0, _PHASE_RECV)

    def send(self, sender: int | None = None) -> float:
        """Sending phase timestamp, skewed per sender."""
        jitter = 0.0
        if sender is not None:
            from repro.core.hashing import mix64

            jitter = (
                (mix64(sender * 0x9E3779B1 + int(self.base)) % 1024)
                / 1024.0
                * self._JITTER_SPAN
            )
        return self._tick(1, _PHASE_SEND) + jitter

    def wait(self) -> float:
        """Progress phase timestamp."""
        return self._tick(2, _PHASE_WAIT)


# -- patterns.py ------------------------------------------------------------

from repro.util.rng import derive_seed, make_rng

__all__ = [
    "grid_dims",
    "grid_neighbors",
    "halo_exchange_round",
    "alltoall_p2p_round",
    "manytoone_round",
    "sweep_round",
    "ring_round",
    "irregular_round",
]


def grid_dims(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Near-cubic process-grid factorization (MPI_Dims_create-like)."""
    dims = [1] * ndims
    remaining = nprocs
    for i in range(ndims):
        target = round(remaining ** (1.0 / (ndims - i)))
        best = 1
        for d in range(max(target, 1), 0, -1):
            if remaining % d == 0:
                best = d
                break
        # Also try upward for a closer factor.
        for d in range(target + 1, remaining + 1):
            if remaining % d == 0 and abs(d - target) < abs(best - target):
                best = d
                break
        dims[i] = best
        remaining //= best
    dims[-1] *= remaining
    return tuple(dims)


def grid_neighbors(
    rank: int, dims: tuple[int, ...], *, diagonals: bool = False, periodic: bool = True
) -> list[int]:
    """Neighbor ranks of ``rank`` on a Cartesian grid.

    ``diagonals=True`` yields the full stencil (3^d - 1 neighbors, the
    BoxLib CNS deep-halo case); otherwise faces only (2d neighbors).
    """
    ndims = len(dims)
    coords = []
    rest = rank
    for extent in reversed(dims):
        coords.append(rest % extent)
        rest //= extent
    coords.reverse()

    offsets: list[tuple[int, ...]]
    if diagonals:
        offsets = []

        def expand(prefix: tuple[int, ...]) -> None:
            if len(prefix) == ndims:
                if any(prefix):
                    offsets.append(prefix)
                return
            for delta in (-1, 0, 1):
                expand(prefix + (delta,))

        expand(())
    else:
        offsets = []
        for axis in range(ndims):
            for delta in (-1, 1):
                offset = [0] * ndims
                offset[axis] = delta
                offsets.append(tuple(offset))

    neighbors: list[int] = []
    for offset in offsets:
        neighbor_coords = []
        valid = True
        for coord, delta, extent in zip(coords, offset, dims):
            c = coord + delta
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                valid = False
                break
            neighbor_coords.append(c)
        if not valid:
            continue
        neighbor = 0
        for c, extent in zip(neighbor_coords, dims):
            neighbor = neighbor * extent + c
        if neighbor != rank and neighbor not in neighbors:
            neighbors.append(neighbor)
    return neighbors


def halo_exchange_round(
    builder: TraceBuilder,
    dims: tuple[int, ...],
    *,
    fields: int = 1,
    diagonals: bool = False,
    tag_base: int = 0,
    size: int = 512,
) -> None:
    """One ghost-cell exchange: pre-post all receives, send, waitall.

    PRQ depth per rank during the round = neighbors x fields — the
    knob that reproduces each app's Fig. 7 queue depth.
    """
    clock = builder.begin_round()
    pending: dict[int, list[int]] = {}
    for rank_builder in builder.ranks:
        neighbors = grid_neighbors(rank_builder.rank, dims, diagonals=diagonals)
        reqs = []
        for field in range(fields):
            for neighbor in neighbors:
                reqs.append(
                    rank_builder.irecv(neighbor, tag_base + field, clock.recv(), size=size)
                )
        pending[rank_builder.rank] = reqs
    for rank_builder in builder.ranks:
        neighbors = grid_neighbors(rank_builder.rank, dims, diagonals=diagonals)
        for field in range(fields):
            for neighbor in neighbors:
                reqs = pending[rank_builder.rank]
                reqs.append(
                    rank_builder.isend(
                        neighbor, tag_base + field, clock.send(rank_builder.rank), size=size
                    )
                )
    for rank_builder in builder.ranks:
        rank_builder.waitall(pending[rank_builder.rank], clock.wait())


def alltoall_p2p_round(
    builder: TraceBuilder, *, tag: int = 0, size: int = 256, group: list[int] | None = None
) -> None:
    """Transpose-style p2p all-to-all within ``group`` (default all).

    The BigFFT pattern: every rank exchanges with every other rank of
    its transpose group, pre-posting the full fan-in.
    """
    ranks = group if group is not None else list(range(builder.nprocs))
    clock = builder.begin_round()
    pending: dict[int, list[int]] = {}
    for rank in ranks:
        rank_builder = builder.ranks[rank]
        reqs = [
            rank_builder.irecv(peer, tag, clock.recv(), size=size)
            for peer in ranks
            if peer != rank
        ]
        pending[rank] = reqs
    for rank in ranks:
        rank_builder = builder.ranks[rank]
        for peer in ranks:
            if peer != rank:
                pending[rank].append(
                    rank_builder.isend(peer, tag, clock.send(rank), size=size)
                )
    for rank in ranks:
        builder.ranks[rank].waitall(pending[rank], clock.wait())


def manytoone_round(
    builder: TraceBuilder,
    root: int = 0,
    *,
    tag: int = 0,
    size: int = 64,
    wildcard_source: bool = False,
) -> None:
    """Gather(v)-style fan-in: everyone sends to root simultaneously.

    With ``wildcard_source`` the root posts ``MPI_ANY_SOURCE``
    receives — the serialization-hostile case §II-A discusses.
    """
    clock = builder.begin_round()
    root_builder = builder.ranks[root]
    reqs = []
    for peer in range(builder.nprocs):
        if peer == root:
            continue
        if wildcard_source:
            reqs.append(root_builder.irecv_any(tag, clock.recv(), size=size))
        else:
            reqs.append(root_builder.irecv(peer, tag, clock.recv(), size=size))
    for peer in range(builder.nprocs):
        if peer != root:
            builder.ranks[peer].isend(root, tag, clock.send(peer), size=size)
    root_builder.waitall(reqs, clock.wait())
    for peer in range(builder.nprocs):
        if peer != root:
            builder.ranks[peer].waitall([], clock.wait())


def sweep_round(
    builder: TraceBuilder,
    dims: tuple[int, int],
    *,
    tag: int = 0,
    size: int = 128,
) -> None:
    """KBA wavefront sweep (PARTISN/SNAP): each rank receives from its
    up-wind neighbors and forwards down-wind. Queue depth stays at 1-2
    but the pattern produces long chains of compatible receives —
    fast-path territory."""
    nx, ny = dims
    clock = builder.begin_round()
    for rank_builder in builder.ranks:
        rank = rank_builder.rank
        if rank >= nx * ny:
            continue
        x, y = rank % nx, rank // nx
        reqs = []
        if x > 0:
            reqs.append(rank_builder.irecv(rank - 1, tag, clock.recv(), size=size))
        if y > 0:
            reqs.append(rank_builder.irecv(rank - nx, tag, clock.recv(), size=size))
        if x < nx - 1:
            rank_builder.isend(rank + 1, tag, clock.send(rank), size=size)
        if y < ny - 1:
            rank_builder.isend(rank + nx, tag, clock.send(rank), size=size)
        rank_builder.waitall(reqs, clock.wait())


def ring_round(
    builder: TraceBuilder, *, tag: int = 0, size: int = 256, direction: int = 1
) -> None:
    """Ring shift: each rank receives from one side, sends to the other."""
    n = builder.nprocs
    clock = builder.begin_round()
    for rank_builder in builder.ranks:
        rank = rank_builder.rank
        req = rank_builder.irecv((rank - direction) % n, tag, clock.recv(), size=size)
        rank_builder.isend((rank + direction) % n, tag, clock.send(rank), size=size)
        rank_builder.wait(req, clock.wait())


def irregular_round(
    builder: TraceBuilder,
    *,
    degree: int,
    tag_space: int,
    seed: int,
    size: int = 128,
    wildcard_fraction: float = 0.0,
) -> None:
    """Irregular neighbor exchange (CrystalRouter-style): each rank
    talks to a random set of ``degree`` peers with tags drawn from
    ``tag_space``; a fraction of receives may use wildcards."""
    clock = builder.begin_round()
    n = builder.nprocs
    # A rank cannot have more distinct partners than peers exist.
    degree = min(degree, n - 1)
    if degree <= 0:
        return
    # Build a symmetric random communication graph so every send has a
    # matching receive.
    partner_sets: list[list[int]] = [[] for _ in range(n)]
    rng = make_rng(derive_seed(seed, "irregular", builder.name))
    for rank in range(n):
        while len(partner_sets[rank]) < degree:
            peer = int(rng.integers(n))
            if peer == rank or peer in partner_sets[rank]:
                continue
            partner_sets[rank].append(peer)
            if rank not in partner_sets[peer]:
                partner_sets[peer].append(rank)
    tag_of = lambda a, b: (min(a, b) * 31 + max(a, b)) % tag_space  # noqa: E731
    pending: dict[int, list[int]] = {}
    for rank in range(n):
        rank_builder = builder.ranks[rank]
        reqs = []
        for peer in partner_sets[rank]:
            tag = tag_of(rank, peer)
            if rng.random() < wildcard_fraction:
                reqs.append(rank_builder.irecv_any(tag, clock.recv(), size=size))
            else:
                reqs.append(rank_builder.irecv(peer, tag, clock.recv(), size=size))
        pending[rank] = reqs
    for rank in range(n):
        rank_builder = builder.ranks[rank]
        for peer in partner_sets[rank]:
            pending[rank].append(
                rank_builder.isend(peer, tag_of(rank, peer), clock.send(rank), size=size)
            )
    for rank in range(n):
        builder.ranks[rank].waitall(pending[rank], clock.wait())
