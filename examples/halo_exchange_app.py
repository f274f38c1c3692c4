#!/usr/bin/env python3
"""A realistic mini-application on the MPI runtime simulator.

Runs a 2-D Jacobi-style halo exchange over 16 simulated ranks, with
matching per rank handled by the offloaded optimistic engine (with
automatic software fallback). Demonstrates communicator hints: the
same program runs once on a default communicator and once on one that
declares ``mpi_assert_no_any_source``/``no_any_tag``, and the example
reports the matching-cost difference the hints buy (§VII).

Run:  python examples/halo_exchange_app.py
"""

import numpy as np

from repro.core import EngineConfig
from repro.mpisim import MpiSim
from repro.traces.synthetic import grid_dims, grid_neighbors


def run_jacobi(sim: MpiSim, comm, steps: int, edge: int) -> float:
    """Jacobi sweeps with halo exchange; returns the final residual."""
    dims = grid_dims(sim.size, 2)
    rng = np.random.default_rng(7)
    grids = {rank: rng.random((edge, edge)) for rank in range(sim.size)}

    for step in range(steps):
        tag = step % 4
        # Pre-post all halo receives, then send edges, then wait.
        requests = {
            rank: [
                sim.irecv(rank, source=neighbor, tag=tag, comm=comm)
                for neighbor in grid_neighbors(rank, dims)
            ]
            for rank in range(sim.size)
        }
        for rank in range(sim.size):
            edge_bytes = grids[rank][0].tobytes()
            for neighbor in grid_neighbors(rank, dims):
                sim.isend(rank, neighbor, tag, edge_bytes, comm=comm)
        for rank in range(sim.size):
            sim.waitall(requests[rank])
            # Fold received halos into the local grid (toy update).
            halos = [
                np.frombuffer(req.payload, dtype=grids[rank].dtype)
                for req in requests[rank]
            ]
            boundary = np.mean(halos, axis=0)
            grids[rank][0, :] = 0.5 * (grids[rank][0, :] + boundary)
            grids[rank][1:, :] *= 0.999

    return float(np.mean([g.std() for g in grids.values()]))


def matching_probes(sim: MpiSim, comm) -> int:
    """Total bucket probes across every rank's matcher — each probe is
    a hash + index read the §VII hints can elide."""
    total = 0
    for rank in range(sim.size):
        matcher = sim.matcher_of(rank, comm)
        if getattr(matcher, "offloaded", False):  # not a software communicator
            total += matcher.stats.buckets_probed
    return total


def main() -> None:
    config = EngineConfig(bins=64, block_threads=8, max_receives=512)

    sim = MpiSim(16, config=config)
    residual = run_jacobi(sim, sim.world, steps=6, edge=32)
    default_probes = matching_probes(sim, sim.world)
    print(f"default communicator:  residual={residual:.4f}, "
          f"bucket probes={default_probes}")

    sim2 = MpiSim(16, config=config)
    hinted = sim2.comm_create(
        {"mpi_assert_no_any_source": "true", "mpi_assert_no_any_tag": "true"}
    )
    residual2 = run_jacobi(sim2, hinted, steps=6, edge=32)
    hinted_probes = matching_probes(sim2, hinted)
    print(f"hinted communicator:   residual={residual2:.4f}, "
          f"bucket probes={hinted_probes}")

    assert abs(residual - residual2) < 1e-12, "hints must not change results"
    saved = default_probes - hinted_probes
    print(f"\nthe hints let every message skip the three wildcard "
          f"structures: {saved} bucket probes "
          f"({saved / default_probes:.0%}) avoided")


if __name__ == "__main__":
    main()
