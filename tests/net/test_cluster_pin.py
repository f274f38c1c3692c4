"""Cluster pin: every simulated byte of the RC-over-fabric path.

A cluster run's *simulated* output — tick values, link stats, phase
totals, conservation, the whole flight ledger, each rank's
``EngineStats`` and each connection's ``ReliabilityStats`` — is a pure
function of the trace, the topology and the fault plans. The polling
loop *is* simulated time (one fabric tick per raw receive), so any
change to who polls what, in which order, moves these bytes; a change
that only makes a packet cheaper to carry must move none of them. The
fixture under ``fixtures/`` was generated at the commit *before* the
per-packet diet of ``net`` / ``rdma`` / ``obs`` landed and is the
contract the event-kernel work (ROADMAP item 1) inherits.

Cases: ring / torus / fat-tree x eager / rendezvous x clean / one link
flap through :class:`ClusterSim`; one rank kill (shrink and respawn)
through :class:`ResilientClusterSim`; one ``MpiSim`` program over
``FabricTransport`` — the other consumer of ``Fabric.inject`` /
``tick`` / ``deliver``. Each case pins one sha-256 per artefact, so a
drift names its topology *and* the artefact that moved; the plain
``headline`` numbers beside the digests say roughly what.

Re-pin (``PYTHONPATH=src python -m tests.net.test_cluster_pin``) only
in a PR that changes a simulated quantity on purpose.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.mpisim import MpiSim
from repro.mpisim.transport import FabricTransport
from repro.net.cluster import ClusterSim, cluster_workload
from repro.net.fabric import Fabric
from repro.net.faults import LinkFaultPlan
from repro.net.placement import Placement
from repro.net.topology import topology_by_name
from repro.resilience.cluster import ResilientClusterSim
from repro.resilience.faults import RankFaultPlan
from repro.resilience.heartbeat import HeartbeatConfig

FIXTURE = Path(__file__).parent / "fixtures" / "cluster_pin.json"

RANKS = 8
ROUNDS = 3
TOPOLOGIES = ("ring", "torus", "fattree")
#: protocol -> message size (DEFAULT_EAGER_THRESHOLD is 1024).
PROTOCOLS = {"eager": 512, "rndv": 4096}
#: topology -> the one-link flap whose window drops packets of both
#: protocols' runs (``test_flaps_are_not_vacuous``). A fat-tree has
#: many links a halo never crosses, hence its own seed.
FLAPS = {
    "ring": LinkFaultPlan(seed=2, flap_links=1, flap_ticks=48, flap_horizon=64),
    "torus": LinkFaultPlan(seed=4, flap_links=1, flap_ticks=48, flap_horizon=64),
    "fattree": LinkFaultPlan(seed=12, flap_links=1, flap_ticks=48, flap_horizon=64),
}
KILL = RankFaultPlan(victims=(3,), kill_ticks=(50,))

CLUSTER_CASES = [
    f"{topology}-{protocol}-{fault}"
    for topology in TOPOLOGIES
    for protocol in PROTOCOLS
    for fault in ("clean", "flap")
]
KILL_CASES = ["kill-shrink", "kill-respawn"]
MPISIM_CASE = "mpisim-fabric"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cluster(case: str) -> tuple[ClusterSim, dict]:
    topology, protocol, fault = case.split("-")
    sim = ClusterSim(
        cluster_workload("halo", RANKS, rounds=ROUNDS, size=PROTOCOLS[protocol]),
        topology=topology,
        plan=FLAPS[topology] if fault == "flap" else None,
    )
    report = sim.run()
    results = report.results
    return sim, {
        "report": _digest(report.to_dict()),
        "ledger": _digest(sim.recorder.export(case).to_dict()),
        "engines": _digest([node.matcher.stats.to_dict() for node in sim.ranks]),
        "wires": _digest([asdict(wire.stats) for wire in sim.wires]),
        "links": _digest(sim.fabric.link_report()),
        "headline": {
            "ok": report.ok,
            "deliveries": results["deliveries"],
            "elapsed_ticks": results["elapsed_ticks"],
            "fabric": results["fabric"],
            "transport": results["transport"],
            "conservation": results["conservation"],
        },
    }


def _kill(case: str) -> dict:
    sim = ResilientClusterSim(
        "halo",
        RANKS,
        rounds=ROUNDS,
        plan=KILL,
        heartbeat=HeartbeatConfig(),
        recovery=case.split("-")[1],
    )
    report = sim.run()
    results = report.results
    return {
        "report": _digest(report.to_dict()),
        "ledgers": _digest([ledger.to_dict() for ledger in sim.ledgers]),
        "headline": {
            "ok": report.ok,
            "final_group": results["final_group"],
            "detections": len(results["detections"]),
            "deliveries": results["deliveries"],
            "elapsed_ticks": results["elapsed_ticks"],
            "conservation": results["conservation"],
        },
    }


def _mpisim() -> dict:
    """Nearest- and next-nearest-neighbour sends on a 2x2 torus, driven
    through the runtime's own progress loop."""
    size = 4
    topology = topology_by_name("torus", size)
    fabric = Fabric(topology)
    sim = MpiSim(
        size, transport=FabricTransport(fabric, Placement.block(size, topology.hosts))
    )
    for rank in range(size):
        for step in (1, 2):
            for i in range(3):
                payload = f"{rank}+{step}:{i}".encode() * (1 + 40 * i)
                sim.isend(rank, (rank + step) % size, tag=i, payload=payload)
    reqs = [
        sim.irecv(rank, source=(rank - step) % size, tag=i)
        for rank in range(size)
        for step in (1, 2)
        for i in range(3)
    ]
    sim.waitall(reqs)
    completions = [
        [req.rank, req.status.source, req.status.tag, req.payload.decode()]
        for req in reqs
    ]
    return {
        "completions": _digest(completions),
        "links": _digest(fabric.link_report()),
        "headline": {
            "clock": fabric.clock,
            "injected": fabric.injected,
            "delivered": fabric.delivered,
            "dropped": fabric.dropped,
            "max_utilization": fabric.max_utilization(),
        },
    }


def _pinned(case: str) -> dict:
    return json.loads(FIXTURE.read_text())[case]


@pytest.mark.parametrize("case", CLUSTER_CASES)
def test_cluster_run_byte_identical(case):
    assert _cluster(case)[1] == _pinned(case)


@pytest.mark.parametrize("case", KILL_CASES)
def test_rank_kill_byte_identical(case):
    assert _kill(case) == _pinned(case)


def test_mpisim_over_fabric_byte_identical():
    assert _mpisim() == _pinned(MPISIM_CASE)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_flaps_are_not_vacuous(topology):
    """Each pinned flap must drop packets that go-back-N then recovers
    (a congested clean run retransmits on timeouts too, so the count
    moves either way; the drops are the flap's own signature)."""
    for protocol in PROTOCOLS:
        flap = _pinned(f"{topology}-{protocol}-flap")["headline"]
        clean = _pinned(f"{topology}-{protocol}-clean")["headline"]
        assert flap["ok"] and clean["ok"]
        assert flap["fabric"]["dropped"] > 0 and clean["fabric"]["dropped"] == 0
        assert flap["transport"]["retransmits"] > 0
        assert flap["transport"] != clean["transport"]


def test_kills_are_not_vacuous():
    shrink, respawn = (_pinned(case)["headline"] for case in KILL_CASES)
    assert shrink["ok"] and respawn["ok"]
    assert shrink["final_group"] == [0, 1, 2, 4, 5, 6, 7] and shrink["detections"]
    assert respawn["final_group"] == list(range(RANKS)) and respawn["detections"]


if __name__ == "__main__":  # pragma: no cover - re-pin entry point
    FIXTURE.parent.mkdir(exist_ok=True)
    pins = {case: _cluster(case)[1] for case in CLUSTER_CASES}
    pins.update({case: _kill(case) for case in KILL_CASES})
    pins[MPISIM_CASE] = _mpisim()
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
