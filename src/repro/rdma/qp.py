"""Queue pairs and memory registration.

A :class:`QueuePair` binds one endpoint of the wire to a completion
queue and a bounce-buffer pool, and implements the three verbs the
offloaded design needs (§IV-A/B):

* ``post_send`` — sender pushes an eager message or an RTS,
* inbound ``send``/``rts`` packets are staged into bounce buffers and
  produce completions,
* ``rdma_read`` — the receiver-side (DPA) fetches rendezvous payloads
  from sender memory registered under an rkey; the response completes
  locally without involving the remote CPU (one-sided semantics).

Resource exhaustion has two graceful escapes (and one hard failure
mode for the bare-wire configuration, preserving the historical
semantics):

* When the wire is a :class:`repro.rdma.reliability.ReliableWire`, the
  queue pair registers a receiver-ready probe so an exhausted bounce
  pool or full completion queue answers RNR NAK at the transport and
  the sender retries — nothing is lost, nothing raises.
* With ``host_spill=True``, a payload that finds no free bounce buffer
  is staged in host memory instead (counted in ``host_spills``); the
  DPA degrades to host resources rather than failing, per the sPIN
  rule that NIC-resource exhaustion must spill to the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.rdma.bounce import BounceBuffer, BounceBufferPool, BouncePoolExhausted
from repro.rdma.cq import Completion, CompletionQueue
from repro.rdma.wire import Packet, Wire

__all__ = ["MemoryRegion", "MemoryRegistry", "QueuePair", "StagedMessage"]


@dataclass(frozen=True, slots=True)
class MemoryRegion:
    """A registered sender-side buffer addressable by rkey."""

    rkey: int
    data: bytes


class MemoryRegistry:
    """rkey -> registered memory, as an RNIC's MTT would resolve it."""

    def __init__(self) -> None:
        self._regions: dict[int, MemoryRegion] = {}
        self._next_rkey = 1

    def register(self, data: bytes) -> MemoryRegion:
        region = MemoryRegion(self._next_rkey, data)
        self._regions[region.rkey] = region
        self._next_rkey += 1
        return region

    def resolve(self, rkey: int) -> MemoryRegion:
        try:
            return self._regions[rkey]
        except KeyError:
            raise KeyError(f"rkey {rkey} is not registered") from None

    def deregister(self, rkey: int) -> None:
        del self._regions[rkey]

    def __len__(self) -> int:
        return len(self._regions)


@dataclass(slots=True)
class StagedMessage:
    """An inbound message staged in NIC memory, as seen by the CQE.

    ``host_data`` is the degraded path: the payload landed in host
    memory because the bounce pool was exhausted (``host_spill``).
    Exactly one of ``bounce`` / ``host_data`` is set for payload-
    bearing messages; both are ``None`` for header-only packets.
    """

    header: Any
    bounce: BounceBuffer | None
    host_data: bytes | None = None


class QueuePair:
    """One side's transport context."""

    def __init__(
        self,
        wire: Wire,
        side: str,
        *,
        cq: CompletionQueue | None = None,
        bounce_pool: BounceBufferPool | None = None,
        host_spill: bool = False,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        self.wire = wire
        self.side = side
        self.recorder = recorder
        self.cq = cq if cq is not None else CompletionQueue()
        self.bounce_pool = bounce_pool if bounce_pool is not None else BounceBufferPool(4096)
        self.memory = MemoryRegistry()
        #: Degraded mode: stage payloads in host memory when the
        #: bounce pool is exhausted instead of raising/RNR-backpressure.
        self.host_spill = host_spill
        #: Payloads staged in host memory so far (degradation counter).
        self.host_spills = 0
        register = getattr(wire, "register_rnr_probe", None)
        if register is not None:
            register(side, self._receiver_ready)

    def _receiver_ready(self, packet: Packet, backlog: int) -> bool:
        """RNR probe: can this endpoint absorb one more packet now?

        ``backlog`` counts packets the reliability layer has sequenced
        but the queue pair has not yet staged; headroom checks are
        offset by it so a burst admitted in one poll cannot overshoot
        the pool or the completion queue.
        """
        queued = len(self.cq.entries)
        if queued + backlog >= self.cq.depth:
            return False
        if packet.opcode in ("send", "rts"):
            _, payload = packet.payload
            slots = self.bounce_pool.slots
            if (
                payload
                and not self.host_spill
                and slots.capacity - slots.in_use <= backlog
            ):
                return False
            meter = self.bounce_pool.pressure
            if meter is not None:
                # Budget-aware backpressure: admitting this message may
                # cost one bounce buffer (payload-bearing) plus one
                # unexpected-store header if no receive is waiting.
                # Reserve that much for it, plus the *worst case* for
                # every already-admitted packet still in the backlog
                # (their payloads are invisible here — a header-only
                # RTS probed after a payload send must not claim the
                # headroom that send is about to charge), plus the
                # header charge every CQ-staged message still owes
                # (its bounce bytes are charged, its header is not
                # until the engine flushes it).
                from repro.pressure.budget import UNEXPECTED_HEADER_BYTES

                need = UNEXPECTED_HEADER_BYTES
                if payload:
                    need += self.bounce_pool.buffer_bytes
                per_backlog = (
                    UNEXPECTED_HEADER_BYTES + self.bounce_pool.buffer_bytes
                )
                owed = UNEXPECTED_HEADER_BYTES * queued
                if meter.headroom() < need + backlog * per_backlog + owed:
                    return False
        return True

    # -- sender verbs ---------------------------------------------------

    def post_send(self, opcode: str, header: Any, payload: bytes = b"") -> None:
        """Transmit an eager message ('send') or an RTS ('rts')."""
        self.wire.transmit(self.side, Packet(opcode, (header, payload), len(payload)))

    # -- receiver-side processing ---------------------------------------

    def process_inbound(self) -> int:
        """Drain inbound packets: stage messages, serve RDMA reads.

        Returns the number of packets processed. Message packets
        allocate a bounce buffer and push a CQE; ``read_request``
        packets are served from registered memory without a CQE (the
        remote NIC handles them autonomously).
        """
        processed = 0
        while (packet := self.wire.receive(self.side)) is not None:
            processed += 1
            if packet.opcode in ("send", "rts"):
                header, payload = packet.payload
                bounce: BounceBuffer | None = None
                host_data: bytes | None = None
                if payload:
                    try:
                        bounce = self.bounce_pool.allocate()
                    except BouncePoolExhausted:
                        if not self.host_spill:
                            raise
                        # Degrade: NIC memory is full, stage on the host.
                        host_data = payload
                        self.host_spills += 1
                    else:
                        bounce.write(payload)
                if self.recorder.enabled:
                    where = "host" if host_data else (
                        "bounce" if bounce is not None else "inline"
                    )
                    self.recorder.stamp_staged(header.mid, ("where", where))
                self.cq.push(packet.opcode, StagedMessage(header, bounce, host_data))
            elif packet.opcode == "read_request":
                rkey, token = packet.payload
                region = self.memory.resolve(rkey)
                self.wire.transmit(
                    self.side,
                    Packet("read_response", (token, region.data), len(region.data)),
                )
            elif packet.opcode == "read_response":
                token, data = packet.payload
                self.cq.push("read_response", (token, data))
            elif packet.opcode == "ack":
                self.cq.push("ack", packet.payload)
            else:
                raise ValueError(f"unknown opcode {packet.opcode!r}")
        return processed

    def rdma_read(self, rkey: int, token: Any) -> None:
        """Issue a one-sided read of remote memory ``rkey``.

        The response arrives as a ``read_response`` completion carrying
        ``token`` back, so callers can correlate it with the matched
        receive (§IV-B rendezvous)."""
        self.wire.transmit(self.side, Packet("read_request", (rkey, token)))

    def post_ack(self, payload: Any = None) -> None:
        self.wire.transmit(self.side, Packet("ack", payload))

    def poll(self, limit: int = 64) -> list[Completion]:
        """Process inbound traffic then drain up to ``limit`` CQEs, in
        order."""
        self.process_inbound()
        entries = self.cq.entries
        if len(entries) <= limit:
            out = list(entries)
            entries.clear()
            return out
        return [entries.popleft() for _ in range(limit)]
