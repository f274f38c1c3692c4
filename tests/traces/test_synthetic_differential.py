"""Differential oracle: the phase-at-a-time generator against the per-op
one it replaced (``reference_synthetic.py``) on random programs.

A program is 1-6 rounds drawn from every pattern, ``all_collective`` and
the per-op public calls (``irecv`` / ``isend`` / ``RoundClock``) that
``net/cluster.py``'s hotspot workload makes, plus a round that sends
before it posts, which only the walltime clamp keeps in order. Both
generators run it, and the two ``Trace``s must be equal op for op —
walltimes compared exactly, as ``float.hex``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.traces.model import OpKind
from repro.traces.synthetic import base, patterns
from repro.traces.synthetic.patterns import grid_dims
from tests.traces import reference_synthetic as reference

COMMON = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])

COLLECTIVES = (OpKind.ALLREDUCE, OpKind.BCAST, OpKind.BARRIER, OpKind.GATHERV)
KINDS = (
    "halo", "alltoall", "manytoone", "sweep", "ring", "irregular",
    "collective", "fan_in", "send_first",
)


def _fan_in(_mod, builder, tag: int, size: int) -> None:
    """``net/cluster.py``'s hotspot round, through the per-op calls."""
    clock = builder.begin_round()
    root = builder.ranks[0]
    reqs = [root.irecv(src, tag, clock.recv(), size=size) for src in range(1, builder.nprocs)]
    for src in range(1, builder.nprocs):
        builder.ranks[src].isend(0, tag, clock.send(src), size=size)
    root.waitall(reqs, clock.wait())


def _send_first(_mod, builder, tag: int, size: int) -> None:
    """A ring shift that sends before it posts: each rank's receive is
    stamped before its send, so the walltime clamp has to hold it back."""
    clock = builder.begin_round()
    n = builder.nprocs
    for rank_builder in builder.ranks:
        rank = rank_builder.rank
        rank_builder.isend((rank + 1) % n, tag, clock.send(rank), size=size)
        req = rank_builder.irecv((rank - 1) % n, tag, clock.recv(), size=size)
        rank_builder.wait(req, clock.wait())


def _collective(_mod, builder, kind: OpKind, size: int) -> None:
    builder.all_collective(kind, size=size)


def _pattern(name: str):
    return lambda mod, builder, *args, **kwargs: getattr(mod, name)(builder, *args, **kwargs)


@st.composite
def rounds(draw, n: int):
    kind = draw(st.sampled_from(KINDS))
    size = draw(st.integers(0, 4096))
    tag = draw(st.integers(0, 40))
    if kind == "halo":
        return _pattern("halo_exchange_round"), (grid_dims(n, draw(st.integers(1, 3))),), {
            "fields": draw(st.integers(1, 4)),
            "diagonals": draw(st.booleans()),
            "tag_base": tag,
            "size": size,
        }
    if kind == "alltoall":
        group = draw(st.one_of(st.none(), st.lists(st.integers(0, n - 1), unique=True)))
        return _pattern("alltoall_p2p_round"), (), {"tag": tag, "size": size, "group": group}
    if kind == "manytoone":
        return _pattern("manytoone_round"), (draw(st.integers(0, n - 1)),), {
            "tag": tag,
            "size": size,
            "wildcard_source": draw(st.booleans()),
        }
    if kind == "sweep":
        return _pattern("sweep_round"), (grid_dims(n, 2),), {"tag": tag, "size": size}
    if kind == "ring":
        return _pattern("ring_round"), (), {
            "tag": tag,
            "size": size,
            "direction": draw(st.sampled_from([1, -1, 2])),
        }
    if kind == "irregular":
        return _pattern("irregular_round"), (), {
            "degree": draw(st.integers(0, 12)),
            "tag_space": draw(st.integers(1, 6)),
            "seed": draw(st.integers(0, 10_000)),
            "size": size,
            "wildcard_fraction": draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        }
    if kind == "collective":
        return _collective, (draw(st.sampled_from(COLLECTIVES)), size), {}
    if kind == "fan_in":
        return _fan_in, (tag, size), {}
    return _send_first, (tag, size), {}


@st.composite
def programs(draw):
    n = draw(st.integers(1, 80))
    return n, draw(st.lists(rounds(n), min_size=1, max_size=6))


def _run(mod, builder_mod, program):
    n, steps = program
    builder = builder_mod.TraceBuilder("differential", n)
    for emit, args, kwargs in steps:
        emit(mod, builder, *args, **kwargs)
    return builder.build()


def _assert_same(got, want):
    assert (got.name, got.nprocs, len(got.ranks)) == (want.name, want.nprocs, len(want.ranks))
    for got_rank, want_rank in zip(got.ranks, want.ranks):
        assert got_rank.rank == want_rank.rank
        assert len(got_rank.ops) == len(want_rank.ops), got_rank.rank
        for index, (a, b) in enumerate(zip(got_rank.ops, want_rank.ops)):
            where = (got_rank.rank, index)
            assert a == b, (where, a, b)
            assert a.walltime.hex() == b.walltime.hex(), (where, a.walltime, b.walltime)


@COMMON
@given(programs())
def test_phase_at_a_time_equals_per_op(program):
    _assert_same(_run(patterns, base, program), _run(reference, reference, program))


def test_the_reference_is_a_separate_generator():
    assert reference.TraceBuilder is not base.TraceBuilder
    assert reference.halo_exchange_round is not patterns.halo_exchange_round
