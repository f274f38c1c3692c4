"""FabricWire: the Wire contract over a shared fabric.

A :class:`FabricWire` is a drop-in for :class:`repro.rdma.wire.Wire`
— same ``transmit`` / ``receive`` / ``drain`` / ``endpoint`` /
``peer_of`` surface — whose packets actually cross a
:class:`repro.net.fabric.Fabric`: they are routed hop by hop, wait in
link queues behind other flows' traffic, and can be dropped by link
faults. Wrap one in a :class:`repro.rdma.reliability.ReliableWire`
and the whole RDMA stack (go-back-N recovery, RNR, queue
pairs) runs unchanged over a congested, lossy, *shared* network.

Ledger coupling: the reliability layer stamps a message's ``wire``
transition at transmit; when the message-bearing packet pops out of
the fabric here, the ``staged`` transition is stamped *at the exact
arrival tick* (``FlightRecorder.stamp_at``), so the ledger's wire
phase equals the fabric transit time — which the fabric's telescoping
hop schedule splits exactly into per-hop components. At inject the
schedule is copied into the fabric's :class:`repro.net.fabric.HopLog`
and a ``fabric_hops`` note points at its row; the note's dict is built
only when the ledger is read. Conservation is structural, not
reconciled after the fact.

Per-pair FIFO survives end to end: each direction of a FabricWire is
one (src-node, dst-node) flow, flows follow static routes, links are
FIFO — so delivery order here matches transmit order and the C2
completion-order precondition holds exactly as it does on the perfect
in-memory wire.
"""

from __future__ import annotations

from heapq import heappop

from repro.net.fabric import Fabric
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.rdma.wire import Packet

__all__ = ["FabricWire", "fabric_mid_of"]


def fabric_mid_of(packet: Packet) -> int:
    """The ledger mid a packet carries, unwrapping RC framing.

    ``rc_data`` frames hold ``(psn, inner)``; message-bearing inner
    packets (``send`` / ``rts``) lead with a header that has a mid.
    Control traffic (ACK/NAK/read protocol) has no mid: returns -1.
    """
    try:
        if packet.opcode == "rc_data":
            packet = packet.payload[1]
        if packet.opcode in ("send", "rts"):
            return int(packet.payload[0].mid)
    except (AttributeError, TypeError, IndexError):
        pass
    return -1


class _Port:
    """One side of a FabricWire; ``pending`` counts in-flight + arrived
    (everything injected toward this port and not yet consumed)."""

    __slots__ = ("name", "_fabric")

    def __init__(self, name: str, fabric: Fabric) -> None:
        self.name = name
        self._fabric = fabric

    def pending(self) -> int:
        return self._fabric.pending(self.name)


class FabricWire:
    """Two named endpoints on a shared :class:`Fabric`.

    ``a`` / ``b`` are the endpoint names the RDMA stack addresses
    (globally unique per fabric — they double as fabric port ids);
    ``node_a`` / ``node_b`` are the topology hosts they live on.
    Several FabricWires share one fabric, which is the whole point:
    their flows contend on common links.

    Each receive poll advances the shared fabric clock one tick: the
    polling loop *is* simulated time.
    """

    def __init__(
        self,
        fabric: Fabric,
        a: str,
        b: str,
        *,
        node_a: str,
        node_b: str,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        if a == b:
            raise ValueError(f"wire endpoints must be distinct, both named {a!r}")
        self.fabric = fabric
        self._ports = {a: _Port(a, fabric), b: _Port(b, fabric)}
        #: endpoint -> its arrival heap on the fabric.
        self._heaps = {a: fabric.attach(a), b: fabric.attach(b)}
        #: endpoint -> (its host, the peer's host, the peer's port):
        #: everything ``transmit`` needs of the connection.
        self._flows = {a: (node_a, node_b, b), b: (node_b, node_a, a)}
        self.delivered = 0
        self.dropped = 0
        self._recorder = recorder

    @property
    def names(self) -> tuple[str, str]:
        names = tuple(self._ports)
        return names  # type: ignore[return-value]

    @property
    def now(self) -> float:
        return self.fabric.now()

    def endpoint(self, name: str) -> _Port:
        return self._ports[name]

    def peer_of(self, name: str) -> _Port:
        try:
            return self._ports[self._flows[name][2]]
        except KeyError:
            raise KeyError(f"unknown endpoint {name!r}") from None

    def transmit(self, src: str, packet: Packet) -> None:
        """Route ``packet`` across the fabric toward ``src``'s peer.

        The ledger mid is read off the packet here, once, and rides the
        fabric beside it, so the arrival stamp needs no second look."""
        try:
            node, peer_node, port = self._flows[src]
        except KeyError:
            raise KeyError(f"unknown endpoint {src!r}") from None
        recorder = self._recorder
        mid = fabric_mid_of(packet) if recorder.enabled else -1
        transfer = self.fabric.inject(
            node, peer_node, port, (packet, mid), packet.size
        )
        if transfer.dropped:
            self.dropped += 1
        if mid >= 0:
            # The schedule goes into the fabric's hop log; the note
            # points at its row and the dict is built on read.
            hop_log = self.fabric.hop_log
            recorder.note(mid, "fabric_hops", hop_log, hop_log.keep(mid, transfer))

    def receive(self, dst: str) -> Packet | None:
        """Pop the next *arrived* packet at ``dst`` (None when the
        queue is empty or the head is still in transit)."""
        fabric = self.fabric
        fabric.clock = now = fabric.clock + 1
        heap = self._heaps[dst]
        if heap and heap[0][0] <= now:
            return self._take(heap)
        return None

    def drain(self, dst: str) -> list[Packet]:
        """Pop everything already arrived at ``dst``."""
        fabric = self.fabric
        fabric.clock = now = fabric.clock + 1
        heap = self._heaps[dst]
        out: list[Packet] = []
        while heap and heap[0][0] <= now:
            out.append(self._take(heap))
        return out

    def in_flight(self) -> int:
        """Packets injected on this wire and not yet consumed."""
        return sum(len(heap) for heap in self._heaps.values())

    def _take(self, heap: list) -> Packet:
        """Pop ``heap``'s arrived head and account for it."""
        _, _, (packet, mid), transfer = heappop(heap)
        self.fabric.delivered += 1
        self.delivered += 1
        # Close the wire phase at the true arrival tick (the pop may
        # happen later). The phase guard makes duplicates and stale
        # retransmit copies harmless: only the first arrival of a
        # message still in its wire phase stamps.
        if mid >= 0 and self._recorder.phase_of(mid) == "wire":
            self._recorder.stamp_at(
                mid,
                "staged",
                transfer.arrival,
                ("where", "fabric", "hops", len(transfer.times) - 1),
            )
        return packet
