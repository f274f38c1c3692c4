"""repro.net — the cluster-fabric layer.

Everything below this package models a *shared* network: topology
graphs with per-link bandwidth and latency, static routing with
hop-by-hop occupancy (contending flows see queuing delay), rank→node
placement maps, and :class:`repro.net.fabricwire.FabricWire` — a
drop-in for :class:`repro.rdma.wire.Wire` so the whole RDMA stack
(reliability, credits, pressure, recovery) runs unchanged over the
fabric. :class:`repro.net.cluster.ClusterSim` drives synthetic app
traces end-to-end across N simulated nodes through that stack.
"""

from repro.util.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "fabric": "Fabric LinkStats Transfer",
    "fabricwire": "FabricWire",
    "faults": "LinkFaultPlan",
    "placement": "Placement",
    "routing": "RouteTable",
    "topology": "Topology fat_tree ring topology_by_name torus2d",
})
