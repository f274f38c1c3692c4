"""The Table II application registry and per-app trace generators.

Each entry reproduces one NERSC "Characterization of DOE mini-apps"
trace *structurally*: the communication pattern (halo exchange,
transpose, fan-in, sweep), its intensity (neighbors x fields — the
queue-depth driver of Fig. 7), and the MPI call mix (Fig. 6: three
apps pure p2p, HILO's two versions pure collectives, nobody
one-sided). ``table_processes`` records the paper's trace scale;
generators accept a smaller ``processes`` so tests and benchmarks run
in seconds while keeping the per-rank structure intact.

The pattern assignments follow each mini-app's published communication
behaviour; where the paper is silent (exact neighbor counts per app)
values are chosen to land the Fig. 7 shape — BoxLib CNS deepest
(~25 at 1 bin), sweep codes shallowest — and are documented here
rather than hidden in code.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.traces.model import OpKind, Trace
from repro.traces.synthetic.base import TraceBuilder
from repro.traces.synthetic.patterns import (
    alltoall_p2p_round,
    grid_dims,
    halo_exchange_round,
    irregular_round,
    manytoone_round,
    ring_round,
    sweep_round,
)

__all__ = ["AppSpec", "APPLICATIONS", "generate", "app_names"]


@dataclass(frozen=True, slots=True)
class AppSpec:
    """One Table II row plus its generator."""

    name: str
    description: str
    #: Process count of the NERSC trace (Table II).
    table_processes: int
    #: Default generation scale (kept small enough for CI).
    default_processes: int
    generator: Callable[[TraceBuilder, int], None]
    #: Approximate PRQ depth at 1 bin this pattern produces (per rank,
    #: at progress points) — documents the Fig. 7 expectation.
    nominal_depth: int


def _amg(builder: TraceBuilder, rounds: int) -> None:
    """Algebraic multigrid: sparse neighbor exchange per level plus a
    convergence allreduce — modest depth, visible collective share."""
    dims = grid_dims(builder.nprocs, 3)
    for level in range(rounds):
        halo_exchange_round(builder, dims, fields=3, tag_base=level % 4)
        if level % 2 == 0:
            builder.all_collective(OpKind.ALLREDUCE)


def _amr(builder: TraceBuilder, rounds: int) -> None:
    """Single-step AMR hydro: face halo plus periodic regrid fan-in."""
    dims = grid_dims(builder.nprocs, 2)
    for step in range(rounds):
        halo_exchange_round(builder, dims, fields=4, tag_base=step % 3)
        if step % 3 == 0:
            manytoone_round(builder, root=0, tag=9)
            builder.all_collective(OpKind.BCAST)


def _bigfft(builder: TraceBuilder, rounds: int) -> None:
    """Distributed FFT: pure-p2p row/column transposes."""
    import math

    n = builder.nprocs
    side = max(int(math.isqrt(n)), 1)
    for step in range(rounds):
        # Row groups, then column groups.
        for row_start in range(0, side * side, side):
            group = list(range(row_start, row_start + side))
            alltoall_p2p_round(builder, tag=step % 2, group=group)
        for col in range(side):
            group = list(range(col, side * side, side))
            alltoall_p2p_round(builder, tag=2 + step % 2, group=group)


def _boxlib_cns(builder: TraceBuilder, rounds: int) -> None:
    """Compressible Navier-Stokes: full 3^3-1 = 26-neighbor halo —
    the deepest queues of the dataset (paper: max 25 at 1 bin)."""
    dims = grid_dims(builder.nprocs, 3)
    for step in range(rounds):
        halo_exchange_round(builder, dims, fields=1, diagonals=True, tag_base=step % 4)
        if step % 4 == 3:
            builder.all_collective(OpKind.ALLREDUCE)


def _boxlib_mg(builder: TraceBuilder, rounds: int) -> None:
    """BoxLib linear solver: face halos across V-cycle levels."""
    dims = grid_dims(builder.nprocs, 3)
    for level in range(rounds):
        halo_exchange_round(builder, dims, fields=2, tag_base=level % 8)
        if level % 3 == 2:
            builder.all_collective(OpKind.ALLREDUCE)


def _crystal_router(builder: TraceBuilder, rounds: int) -> None:
    """Nek5000 crystal router proxy: staged irregular exchange, pure
    p2p, bursts of same-partner messages (compatible-receive runs)."""
    for stage in range(rounds):
        irregular_round(
            builder, degree=10, tag_space=4, seed=stage, wildcard_fraction=0.1
        )


def _fill_boundary(builder: TraceBuilder, rounds: int) -> None:
    """MultiFab ghost exchange proxy: pure p2p face halos."""
    dims = grid_dims(builder.nprocs, 3)
    for step in range(rounds):
        halo_exchange_round(builder, dims, fields=1, tag_base=step % 2)


def _hilo(builder: TraceBuilder, rounds: int) -> None:
    """HILO neutron transport: collectives only (Fig. 6)."""
    for step in range(rounds):
        builder.all_collective(OpKind.ALLREDUCE)
        builder.all_collective(OpKind.BCAST)
        if step % 2 == 0:
            builder.all_collective(OpKind.ALLGATHER)


def _hilo_2d(builder: TraceBuilder, rounds: int) -> None:
    """HILO 2D multinode variant: also pure collectives."""
    for _ in range(rounds):
        builder.all_collective(OpKind.ALLREDUCE)
        builder.all_collective(OpKind.GATHERV)
        builder.all_collective(OpKind.BARRIER)


def _lulesh(builder: TraceBuilder, rounds: int) -> None:
    """Hydro proxy: 27-point stencil but staged by axis (moderate
    simultaneous depth), allreduce for dt."""
    dims = grid_dims(builder.nprocs, 3)
    for step in range(rounds):
        halo_exchange_round(builder, dims, fields=3, tag_base=step % 3)
        halo_exchange_round(builder, dims, fields=2, tag_base=3 + step % 3)
        builder.all_collective(OpKind.ALLREDUCE)


def _minife(builder: TraceBuilder, rounds: int) -> None:
    """Finite elements CG: small halo + dot-product allreduces."""
    dims = grid_dims(builder.nprocs, 3)
    for iteration in range(rounds):
        halo_exchange_round(builder, dims, fields=2, tag_base=iteration % 2)
        builder.all_collective(OpKind.ALLREDUCE)
        builder.all_collective(OpKind.ALLREDUCE)


def _mocfe(builder: TraceBuilder, rounds: int) -> None:
    """MOC reactor proxy: angular ring pipelines + reductions."""
    for step in range(rounds):
        ring_round(builder, tag=step % 4)
        ring_round(builder, tag=4 + step % 4, direction=-1)
        if step % 2 == 1:
            builder.all_collective(OpKind.REDUCE)


def _multigrid(builder: TraceBuilder, rounds: int) -> None:
    """BoxLib MultiGrid at scale: face halos, light collectives."""
    dims = grid_dims(builder.nprocs, 3)
    for level in range(rounds):
        halo_exchange_round(builder, dims, fields=2, tag_base=level % 6)
        if level % 4 == 3:
            builder.all_collective(OpKind.ALLREDUCE)


def _nekbone(builder: TraceBuilder, rounds: int) -> None:
    """Nek5000 Poisson proxy: CG with gather-scatter neighbor
    exchange and frequent reductions."""
    for iteration in range(rounds):
        irregular_round(builder, degree=8, tag_space=2, seed=100 + iteration)
        builder.all_collective(OpKind.ALLREDUCE)


def _partisn(builder: TraceBuilder, rounds: int) -> None:
    """Discrete-ordinates transport: KBA sweeps in 4 octant passes."""
    dims = grid_dims(builder.nprocs, 2)
    for step in range(rounds):
        for octant in range(4):
            sweep_round(builder, dims, tag=octant)
        if step % 2 == 1:
            builder.all_collective(OpKind.ALLREDUCE)


def _snap(builder: TraceBuilder, rounds: int) -> None:
    """PARTISN communication proxy: pure sweep pipelines, minimal
    collectives."""
    dims = grid_dims(builder.nprocs, 2)
    for step in range(rounds):
        for octant in range(8):
            sweep_round(builder, dims, tag=octant)
        if step % 4 == 3:
            builder.all_collective(OpKind.ALLREDUCE)


APPLICATIONS: dict[str, AppSpec] = {
    spec.name: spec
    for spec in [
        AppSpec("AMG", "Algebraic MultiGrid. Linear equation solver", 8, 8, _amg, 12),
        AppSpec("AMR MiniApp", "Single step AMR for hydrodynamics", 64, 16, _amr, 12),
        AppSpec("BigFFT", "Distributed Fast Fourier Transform", 1024, 16, _bigfft, 3),
        AppSpec(
            "BoxLib CNS",
            "Compressible Navier Stokes equations integrator",
            64,
            27,
            _boxlib_cns,
            26,
        ),
        AppSpec(
            "BoxLib MultiGrid", "Single step BoxLib linear solver", 64, 27, _boxlib_mg, 12
        ),
        AppSpec(
            "CrystalRouter",
            "Proxy application for the Nek5000 scalable communication pattern",
            100,
            16,
            _crystal_router,
            7,
        ),
        AppSpec(
            "FillBoundary",
            "Proxy application for ghost cell exchange using MultiFabs",
            1000,
            27,
            _fill_boundary,
            6,
        ),
        AppSpec(
            "HILO", "Modeling of Neutron Transport Evaluation and Test Suite", 256, 16, _hilo, 0
        ),
        AppSpec(
            "HILO 2D",
            "Modeling of Neutron Transport Evaluation and Test Suite in 2D multinode",
            256,
            16,
            _hilo_2d,
            0,
        ),
        AppSpec(
            "LULESH", "Proxy application for hydrodynamic codes", 64, 27, _lulesh, 18
        ),
        AppSpec(
            "MiniFe", "Proxy application for finite elements codes", 1152, 27, _minife, 6
        ),
        AppSpec(
            "MOCFE",
            "Proxy application for Method of Characteristics (MOC) reactor simulator",
            64,
            16,
            _mocfe,
            2,
        ),
        AppSpec("MultiGrid", "MultiGrid solver based on BoxLib", 1000, 27, _multigrid, 6),
        AppSpec(
            "Nekbone",
            "Proxy application for the Nek5000 poison equation solver",
            64,
            16,
            _nekbone,
            5,
        ),
        AppSpec(
            "PARTISN",
            "Discrete-ordinates neutral-particle transport equation solver",
            168,
            16,
            _partisn,
            2,
        ),
        AppSpec(
            "SNAP",
            "Proxy application for the PARTISN communication pattern",
            168,
            16,
            _snap,
            2,
        ),
    ]
}


def app_names() -> list[str]:
    """Registry keys in Table II (alphabetical) order."""
    return list(APPLICATIONS)


def generate(name: str, *, processes: int | None = None, rounds: int = 6) -> Trace:
    """Generate the named application's synthetic trace.

    ``processes`` defaults to the spec's CI-friendly scale; pass
    ``APPLICATIONS[name].table_processes`` for the paper's scale.
    Raises ``ValueError`` naming the round and phase if a round's
    phases overlap (the bound in :mod:`repro.traces.synthetic.base`).
    """
    spec = APPLICATIONS.get(name)
    if spec is None:
        raise KeyError(f"unknown application {name!r}; known: {app_names()}")
    nprocs = processes if processes is not None else spec.default_processes
    builder = TraceBuilder(spec.name, nprocs)
    spec.generator(builder, rounds)
    builder.check_phases()
    return builder.build()
