"""Reusable communication-pattern building blocks.

Each function emits one or more rounds of traffic into a
:class:`repro.traces.synthetic.base.TraceBuilder`. The patterns are
the structural vocabulary of the Table II mini-apps: halo exchanges on
structured grids, transpose-style all-to-all, many-to-one fan-in,
wavefront sweeps, ring shifts, and irregular neighbor exchange.

They write a phase at a time: each rank's receives (then sends) of a
round are one :meth:`~repro.traces.synthetic.base.RankBuilder.emit` call
over a list of ``(peer, tag)`` pairs, and a round's waits take their
stamps in one :meth:`~repro.traces.synthetic.base.RoundClock.stamps`
call; halo grids come from the builder's per-trace neighbour table. The
stamps are arithmetic (the base module's time model), so a round's
length grows with its ops: a phase of more than about 100 000 ops
(400 000 for receives) overruns its window — ``stamps`` records it, once
per call, and ``generate`` raises ``ValueError`` naming the app, round
and phase. The largest Table II phase is 13 824 ops (MiniFe at 1 152
ranks). ``irregular_round`` draws its wildcard choices one per receive,
in posting order, as it always has.
"""

from __future__ import annotations

from repro.core.constants import ANY_SOURCE
from repro.traces.model import OpKind
from repro.traces.synthetic.base import WAIT, RankBuilder, RoundClock, TraceBuilder
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


def _exchange(
    clock: RoundClock,
    members: list[RankBuilder],
    recv_pairs: list[list[tuple[int, int]]],
    send_pairs: list[list[tuple[int, int]]],
    size: int,
) -> None:
    """One round's three phases, a phase at a time: every member posts its
    receives, then every member sends, then each waits on all its requests."""
    recvs = [rb.emit(clock, OpKind.IRECV, p, size) for rb, p in zip(members, recv_pairs)]
    sends = [rb.emit(clock, OpKind.ISEND, p, size) for rb, p in zip(members, send_pairs)]
    for rb, r, s, stamp in zip(members, recvs, sends, clock.stamps(WAIT, len(members))):
        rb.waitall([*r, *s], stamp)


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
    tags = range(tag_base, tag_base + fields)
    pairs = [
        [(peer, tag) for tag in tags for peer in peers]
        for peers in builder.neighbor_table(dims, diagonals)
    ]
    _exchange(clock, builder.ranks, pairs, pairs, size)


def alltoall_p2p_round(
    builder: TraceBuilder, *, tag: int = 0, size: int = 256, group: list[int] | None = None
) -> None:
    """Transpose-style p2p all-to-all within ``group`` (default all).

    The BigFFT pattern: every rank exchanges with every other rank of
    its transpose group, pre-posting the full fan-in.
    """
    ranks = group if group is not None else list(range(builder.nprocs))
    clock = builder.begin_round()
    members = [builder.ranks[rank] for rank in ranks]
    pairs = [[(peer, tag) for peer in ranks if peer != rank] for rank in ranks]
    _exchange(clock, members, pairs, pairs, size)


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
    senders = [rb for rb in builder.ranks if rb.rank != root]
    pairs = [(ANY_SOURCE if wildcard_source else rb.rank, tag) for rb in senders]
    root_builder = builder.ranks[root]
    reqs = root_builder.emit(clock, OpKind.IRECV, pairs, size)
    for rb in senders:
        rb.emit(clock, OpKind.ISEND, ((root, tag),), size)
    root_stamp, *stamps = clock.stamps(WAIT, builder.nprocs)
    root_builder.waitall(reqs, root_stamp)
    for rb, stamp in zip(senders, stamps):
        rb.waitall([], stamp)


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
    active = builder.ranks[: nx * ny]
    for rank_builder, stamp in zip(active, clock.stamps(WAIT, len(active))):
        rank = rank_builder.rank
        x, y = rank % nx, rank // nx
        upwind = [(rank - 1, tag)] * (x > 0) + [(rank - nx, tag)] * (y > 0)
        downwind = [(rank + 1, tag)] * (x < nx - 1) + [(rank + nx, tag)] * (y < ny - 1)
        reqs = rank_builder.emit(clock, OpKind.IRECV, upwind, size)
        rank_builder.emit(clock, OpKind.ISEND, downwind, size)
        rank_builder.waitall(reqs, stamp)


def ring_round(
    builder: TraceBuilder, *, tag: int = 0, size: int = 256, direction: int = 1
) -> None:
    """Ring shift: each rank receives from one side, sends to the other."""
    n = builder.nprocs
    clock = builder.begin_round()
    for rank_builder, stamp in zip(builder.ranks, clock.stamps(WAIT, n)):
        rank = rank_builder.rank
        (req,) = rank_builder.emit(clock, OpKind.IRECV, (((rank - direction) % n, tag),), size)
        rank_builder.emit(clock, OpKind.ISEND, (((rank + direction) % n, tag),), size)
        rank_builder.wait(req, stamp)


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
    pairs = [[(peer, tag_of(rank, peer)) for peer in partner_sets[rank]] for rank in range(n)]
    # One draw per receive, in posting order: ANY_SOURCE or the peer.
    recv_pairs = [
        [(ANY_SOURCE if rng.random() < wildcard_fraction else peer, tag) for peer, tag in p]
        for p in pairs
    ]
    _exchange(clock, builder.ranks, recv_pairs, pairs, size)
