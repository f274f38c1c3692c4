#!/usr/bin/env python3
"""A halo exchange across a simulated cluster fabric.

Sixteen ranks run the 2-D halo workload end-to-end through the full
RDMA stack (queue pairs, reliability, eager/rendezvous) — but every
byte crosses a shared network: a 2x2 torus of hosts, four ranks per
host, flows contending for links. The run is repeated under each
baseline placement (block keeps halo neighbours on one host,
round-robin scatters them) to show what placement costs on the wire.

Run:  python examples/cluster_halo.py
"""

from repro.net.cluster import ClusterSim, cluster_workload
from repro.net.placement import PLACEMENT_SCHEMES
from repro.net.topology import torus2d


def describe(label, report):
    results = report.results
    busiest = max(
        results["links"].items(), key=lambda kv: kv[1]["busy_ticks"]
    )
    print(f"{label:>12}: {results['sends']} sends in "
          f"{results['elapsed_ticks']} ticks, "
          f"max link utilization {results['fabric']['max_utilization']:.2f}, "
          f"busiest link {busiest[0]} "
          f"(peak queue wait {busiest[1]['peak_wait']} ticks)")
    cons = results["conservation"]
    assert not results["violations"], "ordering violated!"
    assert cons["exact"] == cons["checked"], "wire time not conserved!"


def main():
    trace = cluster_workload("halo", 16, rounds=3, size=2048)
    topology = torus2d(2, 2)  # 4 hosts for 16 ranks: placement matters

    elapsed = {}
    for scheme in PLACEMENT_SCHEMES:
        report = ClusterSim(trace, topology=topology, placement=scheme).run()
        describe(scheme, report)
        elapsed[scheme] = report.results["elapsed_ticks"]

    saved = elapsed["round_robin"] - elapsed["block"]
    print(f"\nblock placement saved {saved} ticks of makespan "
          f"({saved / elapsed['round_robin']:.0%}) over round-robin; every message "
          "delivered in order, per-hop wire time conserved exactly.")


if __name__ == "__main__":
    main()
