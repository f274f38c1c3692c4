#!/usr/bin/env python3
"""Deployment sizing workflow: from trace to DPA configuration.

Walks the decision an MPI implementation would make at communicator
creation for a given application:

1. sweep the matching structures to find the smallest bin count
   meeting a queue-depth target,
2. sanity-check the measured occupancy against balls-in-bins theory,
3. price the chosen configuration against the DPA memory budget —
   or fall back to software if it cannot fit.

Run:  python examples/sizing_workflow.py [app-name]
"""

import sys

from repro.analyzer import BIN_SWEEP, predict, sweep_trace
from repro.core import EngineConfig
from repro.core.manager import OffloadManager
from repro.traces.synthetic import app_names, generate

TARGET_DEPTH = 1.0


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "BoxLib CNS"
    if name not in app_names():
        raise SystemExit(f"unknown app {name!r}; choose from {app_names()}")

    trace = generate(name, rounds=5)
    print(f"application: {name} ({trace.nprocs} ranks, {trace.total_ops()} trace ops)\n")

    # 1. Size the bins for a sub-1 mean experienced depth (the largest
    #    swept count if none reaches it).
    sweep = sweep_trace(trace, BIN_SWEEP)
    bins = next(
        (b for b in BIN_SWEEP if sweep[b].depth.mean_depth <= TARGET_DEPTH), BIN_SWEEP[-1]
    )
    analysis = sweep[bins]
    print(
        f"sizing: {bins} bins reach mean depth {analysis.depth.mean_depth:.2f} "
        f"(max {analysis.depth.max_depth}; target {TARGET_DEPTH})"
    )

    # 2. Check measurement against balls-in-bins theory.
    theory = predict(analysis.unique_pairs, bins)
    print(
        f"theory check: {analysis.unique_pairs} unique keys in {bins} bins "
        f"-> predicted max load {theory.expected_max_load:.1f}, "
        f"measured {analysis.depth.max_depth}"
    )

    # 3. Allocate against the DPA budget (§III-E).
    manager = OffloadManager()
    config = EngineConfig(bins=bins, block_threads=32, max_receives=8192)
    allocation = manager.comm_create(0, config=config)
    if allocation.offloaded:
        print(
            f"allocation: offloaded; {allocation.bytes_reserved / 1024:.0f} KiB of "
            f"{manager.budget_bytes / 1024:.0f} KiB DPA budget "
            f"({manager.utilization():.0%} used)"
        )
    else:
        print("allocation: does not fit the DPA budget -> software matching")


if __name__ == "__main__":
    main()
