"""FabricWire: the Wire contract, ledger coupling, reliability stack."""

import json

from repro.net.cluster import ClusterSim, cluster_workload
from repro.net.fabric import Fabric
from repro.net.fabricwire import FabricWire
from repro.net.faults import LinkFaultPlan
from repro.net.topology import ring, torus2d
from repro.obs.ledger import FlightRecorder
from repro.rdma.reliability import ReliabilityConfig, ReliableWire
from repro.rdma.wire import Packet


def pump(wire, name, limit=10_000):
    """Poll ``name`` until the wire goes quiet; returns received packets."""
    got, idle = [], 0
    for _ in range(limit):
        packet = wire.receive(name)
        if packet is None:
            idle += 1
            if idle > 64 and wire.in_flight() == 0:
                break
        else:
            idle = 0
            got.append(packet)
    return got


class TestWireContract:
    def test_names_and_peers(self):
        fabric = Fabric(ring(2))
        wire = FabricWire(fabric, "A", "B", node_a="h0", node_b="h1")
        assert set(wire.names) == {"A", "B"}
        assert wire.peer_of("A").name == "B"
        assert wire.endpoint("A").name == "A"

    def test_fifo_delivery_both_directions(self):
        fabric = Fabric(ring(2))
        wire = FabricWire(fabric, "A", "B", node_a="h0", node_b="h1")
        for i in range(10):
            wire.transmit("A", Packet("send", ("to-b", i), size=64))
            wire.transmit("B", Packet("send", ("to-a", i), size=64))
        at_b = [p.payload[1] for p in pump(wire, "B")]
        at_a = [p.payload[1] for p in pump(wire, "A")]
        assert at_b == list(range(10))
        assert at_a == list(range(10))

    def test_pending_counts_in_flight(self):
        fabric = Fabric(ring(2))
        wire = FabricWire(fabric, "A", "B", node_a="h0", node_b="h1")
        wire.transmit("A", Packet("send", "x", size=64))
        assert wire.endpoint("B").pending() == 1
        assert wire.in_flight() == 1
        pump(wire, "B")
        assert wire.in_flight() == 0

    def test_drain(self):
        fabric = Fabric(ring(2))
        wire = FabricWire(fabric, "A", "B", node_a="h0", node_b="h1")
        for i in range(5):
            wire.transmit("A", Packet("send", i, size=32))
        while wire.in_flight():
            wire.receive("B")  # tick until everything arrives
            for p in wire.drain("B"):
                pass
            if not fabric.pending("B"):
                break


class TestMidExtraction:
    """``transmit`` reads a packet's ledger mid once; the ``fabric_hops``
    note it files under that mid shows what it read."""

    class _Header:
        def __init__(self, mid):
            self.mid = mid

    @staticmethod
    def noted(packet):
        """The mids ``transmit`` filed a ``fabric_hops`` note under."""
        recorder = FlightRecorder()
        for _ in range(8):
            recorder.open(source=0, tag=0)
        wire = FabricWire(
            Fabric(ring(2)), "A", "B", node_a="h0", node_b="h1", recorder=recorder
        )
        wire.transmit("A", packet)
        columns = recorder.columns()
        return [
            mid
            for mid, name in zip(columns.note_mids, columns.note_names)
            if name == "fabric_hops"
        ]

    def test_send_and_rts_carry_mid(self):
        header = self._Header(6)
        assert self.noted(Packet("send", (header, b"x"))) == [6]
        assert self.noted(Packet("rts", (header,))) == [6]

    def test_rc_data_unwraps(self):
        inner = Packet("send", (self._Header(7), b"y"))
        assert self.noted(Packet("rc_data", (3, inner))) == [7]

    def test_control_traffic_has_no_mid(self):
        assert self.noted(Packet("ack", 5)) == []
        assert self.noted(Packet("rc_data", (1, Packet("ack", 2)))) == []


class TestLedgerCoupling:
    def test_staged_stamped_at_arrival_tick(self):
        recorder = FlightRecorder()
        fabric = Fabric(ring(2))
        recorder.set_clock(lambda: float(fabric.clock))
        wire = FabricWire(
            fabric, "A", "B", node_a="h0", node_b="h1", recorder=recorder
        )
        mid = recorder.open(source=0, tag=0, size=64)
        recorder.stamp(mid, "wire")
        header = type("H", (), {"mid": mid})()
        transfers = []
        inject = fabric.inject
        fabric.inject = lambda *args: transfers.append(inject(*args)) or transfers[-1]
        wire.transmit("A", Packet("send", (header, b"z"), size=64))
        pump(wire, "B")
        rec = recorder.records[mid]
        staged = [ts for ts, phase, _ in rec.transitions if phase == "staged"]
        assert staged == [float(transfers[0].arrival)]


def fabric_hops_detail(transfer):
    """The ``fabric_hops`` note's detail as ``FabricWire.transmit`` built
    it from each injection's transfer when the note was a dict (its
    ``node`` / ``peer_node`` are the transfer's ``src`` / ``dst``)."""
    times = transfer.times
    return dict(
        src=transfer.src,
        dst=transfer.dst,
        inject=transfer.inject,
        arrival=transfer.arrival,
        dropped=transfer.dropped,
        drop_link=transfer.drop_link,
        hops=[
            [link, t_in, t_out]
            for link, t_in, t_out in zip(transfer.route, times, times[1:])
        ],
    )


class TestFabricHopsNote:
    #: A one-link flap that drops exactly one message-bearing packet of
    #: this 4-rank halo; go-back-N delivers a retransmitted copy.
    PLAN = LinkFaultPlan(seed=3, flap_links=1, flap_ticks=16, flap_horizon=64)

    def test_notes_read_as_the_transfers_they_describe(self, monkeypatch):
        injected = []
        inject = Fabric.inject

        def spy(self, src, dst, port, packet, size):
            transfer = inject(self, src, dst, port, packet, size)
            injected.append((packet, transfer))
            return transfer

        monkeypatch.setattr(Fabric, "inject", spy)
        sim = ClusterSim(
            cluster_workload("halo", 4, rounds=2), topology="torus", plan=self.PLAN
        )
        report = sim.run()
        assert report.ok
        assert report.results["conservation"]["recovered"] == 1
        expected: dict[int, list[dict]] = {}
        for (_, mid), transfer in injected:  # FabricWire injects (packet, mid)
            if mid >= 0:
                expected.setdefault(mid, []).append(fabric_hops_detail(transfer))
        # The dropped copy stops short of its route; its retransmission lands.
        [(victim, copies)] = [
            (mid, copies) for mid, copies in expected.items()
            if any(copy["dropped"] for copy in copies)
        ]
        lost, landed = copies
        assert lost["dropped"] and lost["drop_link"]
        assert len(lost["hops"]) < len(landed["hops"])
        assert not landed["dropped"] and landed["drop_link"] == ""

        exported = json.loads(sim.recorder.export("halo").to_json())
        records = exported["scenarios"]["halo"]["records"]
        assert {rec["mid"] for rec in records} == set(expected)
        for rec in records:
            noted = [d for _, name, d in rec["events"] if name == "fabric_hops"]
            assert noted == expected[rec["mid"]], rec["label"]
            passport = sim.recorder.passport(rec["label"])
            noted = [d for _, name, d in passport["events"] if name == "fabric_hops"]
            assert noted == expected[rec["mid"]], rec["label"]
        assert len(expected[victim]) == 2


class TestUnderReliability:
    def test_reliable_delivery_over_shared_fabric(self):
        """Two ReliableWires share a fabric; both deliver in order."""
        fabric = Fabric(torus2d(2, 2))
        cfg = ReliabilityConfig(retry_timeout=16, max_timeout=256, max_retries=64)
        w1 = ReliableWire(
            FabricWire(fabric, "A", "B", node_a="h0", node_b="h3"), config=cfg
        )
        w2 = ReliableWire(
            FabricWire(fabric, "C", "D", node_a="h1", node_b="h2"), config=cfg
        )
        for i in range(8):
            w1.transmit("A", Packet("send", ("w1", i), size=256))
            w2.transmit("C", Packet("send", ("w2", i), size=256))
        got1 = [p.payload[1] for p in pump(w1, "B")]
        got2 = [p.payload[1] for p in pump(w2, "D")]
        assert got1 == list(range(8))
        assert got2 == list(range(8))
        assert w1.stats.retransmits == 0  # clean fabric: no recovery
