"""Tests for the synthetic pattern library and the app registry."""

import pytest

from repro.core.constants import ANY_SOURCE, ANY_TAG
from repro.net.cluster import cluster_workload
from repro.traces.model import OpGroup, OpKind
from repro.traces.synthetic import (
    APPLICATIONS,
    AppSpec,
    TraceBuilder,
    alltoall_p2p_round,
    app_names,
    generate,
    grid_dims,
    grid_neighbors,
    halo_exchange_round,
    irregular_round,
    manytoone_round,
    ring_round,
    sweep_round,
)


class TestGridHelpers:
    @pytest.mark.parametrize(
        ("n", "d", "expected"),
        [(8, 3, (2, 2, 2)), (64, 3, (4, 4, 4)), (16, 2, (4, 4)), (12, 2, (3, 4)), (7, 2, (1, 7))],
    )
    def test_grid_dims_factorize(self, n, d, expected):
        dims = grid_dims(n, d)
        assert len(dims) == d
        product = 1
        for extent in dims:
            product *= extent
        assert product == n
        assert sorted(dims) == sorted(expected)

    def test_face_neighbors_3d(self):
        neighbors = grid_neighbors(13, (3, 3, 3))  # centre of 3x3x3
        assert len(neighbors) == 6

    def test_diagonal_neighbors_3d(self):
        neighbors = grid_neighbors(13, (3, 3, 3), diagonals=True)
        assert len(neighbors) == 26

    def test_periodic_wraps(self):
        neighbors = grid_neighbors(0, (4, 4), periodic=True)
        assert len(neighbors) == 4

    def test_non_periodic_corner(self):
        neighbors = grid_neighbors(0, (4, 4), periodic=False)
        assert len(neighbors) == 2

    def test_small_grid_dedupes(self):
        # On a 2-wide axis, +1 and -1 reach the same rank.
        neighbors = grid_neighbors(0, (2, 2))
        assert sorted(neighbors) == [1, 2]


def sends_and_recvs(trace):
    sends, recvs = [], []
    for rank_trace in trace.ranks:
        for op in rank_trace.ops:
            if op.kind is OpKind.ISEND:
                sends.append((rank_trace.rank, op.peer, op.tag))
            elif op.kind is OpKind.IRECV:
                recvs.append((op.peer, rank_trace.rank, op.tag))
    return sends, recvs


def can_match(recv, send) -> bool:
    (source, dest, tag), (src, dst, send_tag) = recv, send
    return (
        dest == dst
        and source in (src, ANY_SOURCE)
        and tag in (send_tag, ANY_TAG)
    )


def unmatched_sends(sends, recvs) -> list:
    """Sends left over by a maximum matching of sends to distinct
    receives that can match them (augmenting paths)."""
    owner: dict[int, int] = {}  # receive index -> send index

    def place(s: int, seen: set) -> bool:
        for r, recv in enumerate(recvs):
            if r not in seen and can_match(recv, sends[s]):
                seen.add(r)
                if r not in owner or place(owner[r], seen):
                    owner[r] = s
                    return True
        return False

    return [sends[s] for s in range(len(sends)) if not place(s, set())]


#: One round of each of the six patterns, wildcard variants included.
PATTERNS = [
    lambda b: halo_exchange_round(b, grid_dims(b.nprocs, 2)),
    lambda b: halo_exchange_round(b, grid_dims(b.nprocs, 3), diagonals=True),
    lambda b: alltoall_p2p_round(b),
    lambda b: manytoone_round(b),
    lambda b: manytoone_round(b, wildcard_source=True),
    lambda b: sweep_round(b, grid_dims(b.nprocs, 2)),
    lambda b: ring_round(b),
    lambda b: irregular_round(b, degree=3, tag_space=4, seed=1),
    lambda b: halo_exchange_round(b, grid_dims(b.nprocs, 2), fields=3, tag_base=5),
    lambda b: alltoall_p2p_round(b, group=[1, 4, 6, 11]),
    lambda b: manytoone_round(b, root=3, wildcard_source=True),
    lambda b: ring_round(b, direction=-1),
    lambda b: irregular_round(b, degree=5, tag_space=3, seed=2, wildcard_fraction=0.5),
]


class TestPatternsBalance:
    """Every send must have a matching posted receive: traces that
    violate this would poison the analyzer with phantom unexpecteds."""

    @pytest.mark.parametrize("emit", PATTERNS)
    def test_sends_match_recvs(self, emit):
        builder = TraceBuilder("pattern", 16)
        emit(builder)
        sends, recvs = sends_and_recvs(builder.build())
        assert sends
        assert len(sends) == len(recvs)
        # Each send pairs with a distinct receive that can match it.
        assert unmatched_sends(sends, recvs) == []

    def test_unmatched_send_is_found(self):
        sends = [(0, 1, 5), (2, 1, 5)]
        assert unmatched_sends(sends, [(ANY_SOURCE, 1, 5), (ANY_SOURCE, 1, 6)]) == [(2, 1, 5)]
        assert unmatched_sends(sends, [(0, 1, ANY_TAG), (ANY_SOURCE, 1, 5)]) == []

    def test_recvs_posted_before_sends(self):
        """Every pattern, two rounds, per rank and per round: receives,
        then sends, then the wait, in op order and in walltime (across
        ranks too); walltimes never decrease."""
        phase_of = {OpKind.IRECV: 0, OpKind.ISEND: 1, OpKind.WAIT: 2, OpKind.WAITALL: 2}
        for index, emit in enumerate(PATTERNS):
            builder = TraceBuilder("order", 16)
            emit(builder)
            emit(builder)
            # round -> phase -> walltimes, over every rank
            windows: dict[int, dict[int, list[float]]] = {}
            for rank_trace in builder.build().ranks:
                times = [op.walltime for op in rank_trace.ops]
                assert times == sorted(times), (index, rank_trace.rank)
                last = {}
                for op in rank_trace.ops:
                    round_index, phase = int(op.walltime), phase_of[op.kind]
                    assert phase >= last.get(round_index, 0), (index, rank_trace.rank, op)
                    last[round_index] = phase
                    windows.setdefault(round_index, {}).setdefault(phase, []).append(
                        op.walltime
                    )
            assert sorted(windows) == [0, 1], index
            for round_index, phases in windows.items():
                for early, late in ((0, 1), (1, 2)):
                    if early in phases and late in phases:
                        assert max(phases[early]) < min(phases[late]), (index, round_index)


class TestPhaseBound:
    """A round's receives, sends and waits keep to their windows; an app
    big enough to overrun one is refused by ``generate``, by name."""

    def test_overrunning_round_is_refused(self, monkeypatch):
        # 340 x 339 sends run 0.115 past the send phase's start; with the
        # senders' jitter (up to 0.3) the late ones cross into the waits.
        spec = AppSpec(
            "Transpose340", "a 340-rank all-to-all", 340, 340,
            lambda builder, rounds: alltoall_p2p_round(builder), 339,
        )
        monkeypatch.setitem(APPLICATIONS, spec.name, spec)
        with pytest.raises(ValueError, match=r"Transpose340: round 0 overruns its send phase"):
            generate(spec.name, rounds=1)

    def test_cluster_workloads_are_not_checked(self):
        # Cluster drivers replay in program order and never read walltimes.
        trace = cluster_workload("alltoall", 340, rounds=1)
        assert trace.total_ops() == 340 * (2 * 339 + 1)

    @pytest.mark.parametrize("name", app_names())
    def test_every_app_keeps_to_its_windows(self, name):
        generate(name, rounds=2)
        generate(name, processes=APPLICATIONS[name].table_processes, rounds=1)


class TestRegistry:
    def test_sixteen_applications(self):
        assert len(APPLICATIONS) == 16

    def test_table2_process_counts(self):
        expected = {
            "AMG": 8,
            "AMR MiniApp": 64,
            "BigFFT": 1024,
            "BoxLib CNS": 64,
            "BoxLib MultiGrid": 64,
            "CrystalRouter": 100,
            "FillBoundary": 1000,
            "HILO": 256,
            "HILO 2D": 256,
            "LULESH": 64,
            "MiniFe": 1152,
            "MOCFE": 64,
            "MultiGrid": 1000,
            "Nekbone": 64,
            "PARTISN": 168,
            "SNAP": 168,
        }
        assert {n: s.table_processes for n, s in APPLICATIONS.items()} == expected

    def test_alphabetical_order(self):
        names = app_names()
        assert names == sorted(names, key=str.lower)

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError, match="unknown application"):
            generate("NoSuchApp")

    def test_all_apps_generate(self):
        for name in app_names():
            trace = generate(name, rounds=2)
            assert trace.total_ops() > 0
            assert trace.nprocs == APPLICATIONS[name].default_processes

    def test_call_mix_matches_figure6(self):
        """Fig. 6: 3 apps exclusively p2p, HILO's two versions
        exclusively collectives, nobody one-sided."""
        pure_p2p, pure_coll = [], []
        for name in app_names():
            mix = generate(name, rounds=6).call_mix()
            assert mix[OpGroup.ONE_SIDED] == 0.0
            if mix[OpGroup.COLLECTIVE] == 0.0 and mix[OpGroup.P2P] > 0:
                pure_p2p.append(name)
            if mix[OpGroup.P2P] == 0.0 and mix[OpGroup.COLLECTIVE] > 0:
                pure_coll.append(name)
        assert len(pure_p2p) == 3
        assert sorted(pure_coll) == ["HILO", "HILO 2D"]

    def test_generation_deterministic(self):
        a = generate("CrystalRouter", rounds=3)
        b = generate("CrystalRouter", rounds=3)
        assert a.total_ops() == b.total_ops()
        for ra, rb in zip(a.ranks, b.ranks):
            assert ra.ops == rb.ops

    def test_custom_scale(self):
        trace = generate("AMG", processes=27, rounds=1)
        assert trace.nprocs == 27
