"""RC-style reliability protocol over a faulty wire.

:class:`ReliableWire` presents the exact :class:`repro.rdma.wire.Wire`
interface — ``transmit`` / ``receive`` / ``drain`` / ``endpoint`` /
``peer_of`` — while running a reliable-connection recovery protocol
underneath, so :class:`repro.rdma.qp.QueuePair` and everything above
it observe exactly-once FIFO delivery even when the underlying link
(typically a :class:`repro.rdma.faultwire.FaultyWire`) drops,
duplicates, reorders, or corrupts packets. This is the machinery real
RC NICs implement in hardware (cf. MPICH2-over-InfiniBand's use of RC
semantics and the sPIN model's insistence that resource exhaustion
degrade, not crash):

* **Packet sequence numbers** — every application packet is framed as
  ``rc_data`` with a per-direction PSN and a checksum.
* **Cumulative ACK / NAK** — the receiver acks the highest in-order
  PSN; a gap triggers a NAK carrying the expected PSN (go-back-N).
* **Retransmission timer with exponential backoff** — simulated time
  advances one tick per ``receive`` call (each progress poll is a
  tick); an unacked window times out, is retransmitted in order, and
  the timeout doubles up to a cap.
* **Bounded retry budget** — ``max_retries`` consecutive recovery
  rounds without cumulative-ACK progress raise
  :class:`TransportError`; the channel then fails sticky. A faulty
  wire can therefore slow the stack down but never hang it.
* **Duplicate suppression** — stale PSNs are discarded and re-acked.
* **RNR NAK** — before an in-sequence packet is handed up, an optional
  receiver-ready probe is consulted (the queue pair registers one that
  checks completion-queue room and bounce-pool headroom). A not-ready
  receiver answers ``rc_rnr``; the sender backs off ``rnr_timeout``
  ticks and retransmits, bounded by the same retry budget.

Control frames (ACK/NAK/RNR) are themselves checksummed and can be
lost or duplicated; the protocol recovers via the timer, and duplicate
cumulative ACKs are harmless by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.rdma.wire import Endpoint, Packet, Wire, control_frame, packet_checksum

__all__ = [
    "ReliabilityConfig",
    "ReliabilityStats",
    "ReliableWire",
    "TransportError",
]

#: Receiver-ready probe: (application packet, undelivered backlog) ->
#: whether the endpoint can accept one more message right now.
RnrProbe = Callable[[Packet, int], bool]


class TransportError(RuntimeError):
    """The retry budget is exhausted: the peer is unreachable (or so
    congested that RC gives up). Surfaces instead of a hang."""


@dataclass(frozen=True, slots=True)
class ReliabilityConfig:
    """Tunables of the recovery protocol (simulated-tick units)."""

    #: Ticks an unacked window waits before its first retransmission.
    retry_timeout: int = 4
    #: Timeout multiplier per consecutive no-progress retransmission.
    backoff: float = 2.0
    #: Ceiling on the backed-off timeout.
    max_timeout: int = 64
    #: Consecutive recovery rounds without cumulative-ACK progress
    #: before the channel fails with :class:`TransportError`.
    max_retries: int = 16
    #: Ticks the sender waits after an RNR NAK before retrying.
    rnr_timeout: int = 2

    def __post_init__(self) -> None:
        if self.retry_timeout < 1:
            raise ValueError(f"retry_timeout must be >= 1, got {self.retry_timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.rnr_timeout < 1:
            raise ValueError(f"rnr_timeout must be >= 1, got {self.rnr_timeout}")


@dataclass(slots=True)
class ReliabilityStats:
    """Aggregated protocol accounting across both directions."""

    data_sent: int = 0
    delivered: int = 0
    retransmits: int = 0
    timeouts: int = 0
    acks_sent: int = 0
    naks_sent: int = 0
    rnr_naks: int = 0
    duplicates_dropped: int = 0
    out_of_order_dropped: int = 0
    corrupt_dropped: int = 0


class _TxState:
    """Sender-side go-back-N state for one direction."""

    __slots__ = (
        "next_psn",
        "unacked",
        "timer",
        "timeout",
        "retries",
        "rnr_wait",
        "failed",
    )

    def __init__(self, base_timeout: int) -> None:
        self.next_psn = 0
        self.unacked: deque[tuple[int, Packet]] = deque()
        self.timer = 0
        self.timeout = base_timeout
        self.retries = 0
        self.rnr_wait = 0
        self.failed = False


class _RxState:
    """Receiver-side sequencing state for one direction."""

    __slots__ = ("expected", "deliverable", "nak_pending_for", "probe")

    def __init__(self) -> None:
        self.expected = 0
        self.deliverable: deque[Packet] = deque()
        #: PSN the last NAK asked for, to damp NAK storms on bursts of
        #: out-of-order arrivals.
        self.nak_pending_for = -1
        #: Receiver-ready probe of this endpoint (None: always ready).
        self.probe: RnrProbe | None = None


class ReliableWire:
    """Exactly-once FIFO delivery over an unreliable raw wire.

    Drop-in for :class:`Wire` wherever one is consumed; wraps the raw
    (usually faulty) wire rather than subclassing it so the same
    instance can carry framed and recovery traffic without re-entering
    the fault schedule twice.
    """

    def __init__(
        self,
        raw: Wire,
        *,
        config: ReliabilityConfig | None = None,
        tracer: SpanTracer = NULL_TRACER,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        self.raw = raw
        self.config = config if config is not None else ReliabilityConfig()
        self.stats = ReliabilityStats()
        self._tx: dict[str, _TxState] = {
            name: _TxState(self.config.retry_timeout) for name in raw.names
        }
        self._rx: dict[str, _RxState] = {name: _RxState() for name in raw.names}
        #: Simulated time: one tick per progress poll (every ``receive``
        #: call), the same clock the retransmission timers count in.
        self.clock = 0
        self._tracer = tracer
        #: (kind, endpoint) -> span currently open on that track.
        self._open_spans: set[tuple[str, str]] = set()
        self._recorder = recorder
        #: Per-direction PSN -> ledger mid of message-bearing frames,
        #: so retransmit/RNR/timeout rounds attribute to the message
        #: occupying the head of the go-back-N window.
        self._psn_mids: dict[str, dict[int, int]] = {
            name: {} for name in raw.names
        }

    @property
    def now(self) -> float:
        """Current simulated time in ticks (1 tick = 1 us in traces)."""
        return float(self.clock)

    # -- trace emission (no-ops when the tracer is disabled) ------------

    def _span_begin(self, kind: str, src: str, **args) -> None:
        if not self._tracer.enabled or (kind, src) in self._open_spans:
            return
        track = self._tracer.track("rc", f"{src}:{kind}")
        self._tracer.begin(track, kind, self.now, args=args or None)
        self._open_spans.add((kind, src))

    def _span_end(self, kind: str, src: str) -> None:
        if not self._tracer.enabled or (kind, src) not in self._open_spans:
            return
        self._tracer.end(self._tracer.track("rc", f"{src}:{kind}"), self.now)
        self._open_spans.discard((kind, src))

    def _trace_instant(self, name: str, src: str, **args) -> None:
        if not self._tracer.enabled:
            return
        track = self._tracer.track("rc", f"{src}:events")
        self._tracer.instant(track, name, self.now, args=args or None)

    # -- Wire interface -------------------------------------------------

    @property
    def names(self) -> tuple[str, str]:
        return self.raw.names

    @property
    def delivered(self) -> int:
        return self.stats.delivered

    def endpoint(self, name: str) -> Endpoint:
        return self.raw.endpoint(name)

    def peer_of(self, name: str) -> Endpoint:
        return self.raw.peer_of(name)

    def register_rnr_probe(self, name: str, probe: RnrProbe) -> None:
        """Install the receiver-ready probe for endpoint ``name``."""
        if name not in self._rx:
            raise KeyError(f"unknown endpoint {name!r}")
        self._rx[name].probe = probe

    def transmit(self, src: str, packet: Packet) -> None:
        """Frame an application packet with a PSN and send it."""
        tx = self._tx[src]
        if tx.failed:
            raise TransportError(f"channel from {src!r} already failed")
        psn = tx.next_psn
        tx.next_psn += 1
        body = (psn, packet)
        frame = Packet("rc_data", body, packet.size, packet_checksum("rc_data", body))
        if not tx.unacked:
            tx.timer = 0
        tx.unacked.append((psn, frame))
        self.stats.data_sent += 1
        if self._recorder.enabled and packet.opcode in ("send", "rts"):
            mid = packet.payload[0].mid
            if mid >= 0:
                self._psn_mids[src][psn] = mid
                self._recorder.stamp(mid, "wire", ("psn", psn))
        self.raw.transmit(src, frame)

    def receive(self, dst: str) -> Packet | None:
        """One progress poll at ``dst``: advance timers, process every
        raw inbound frame, then hand up the next in-order packet."""
        tx = self._tx[dst]
        if tx.failed:
            raise TransportError(f"channel from {dst!r} already failed")
        self.clock += 1
        if not tx.unacked:
            tx.timer = 0
        elif tx.rnr_wait > 0 or tx.timer + 1 >= tx.timeout:
            self._advance_timer(dst, tx)
        else:
            tx.timer += 1  # the common tick: nothing fires
        raw_receive = self.raw.receive
        while (frame := raw_receive(dst)) is not None:
            opcode = frame.opcode
            if frame.checksum is None or frame.checksum != packet_checksum(
                opcode, frame.payload
            ):
                # Corrupt frame: indistinguishable from loss. Data gaps
                # are NAKed when the next good frame arrives; lost
                # control frames are covered by the sender's timer.
                self.stats.corrupt_dropped += 1
            elif opcode == "rc_data":
                self._process_data(dst, frame)
            elif opcode == "rc_ack":
                self._process_ack(dst, frame.payload)
            else:
                self._process_control(dst, frame)
        rx = self._rx[dst]
        return rx.deliverable.popleft() if rx.deliverable else None

    def drain(self, dst: str) -> list[Packet]:
        out: list[Packet] = []
        while (packet := self.receive(dst)) is not None:
            out.append(packet)
        return out

    def in_flight(self) -> int:
        """Frames not yet known-delivered: drives pump quiescence."""
        total = 0
        for name in self.raw.names:
            total += len(self._tx[name].unacked)
            total += len(self._rx[name].deliverable)
            total += self.raw.endpoint(name).pending()
        return total

    # -- protocol internals ---------------------------------------------

    def _process_control(self, dst: str, frame: Packet) -> None:
        """A checked frame that is neither data nor ACK: NAK or RNR."""
        if frame.opcode == "rc_nak":
            self._retransmit_from(dst, frame.payload)
        elif frame.opcode == "rc_rnr":
            tx = self._tx[dst]
            tx.rnr_wait = self.config.rnr_timeout
            tx.timer = 0
            self._span_begin("rnr_stall", dst, wait=self.config.rnr_timeout)
            if self._recorder.enabled and tx.unacked:
                head = self._psn_mids[dst].get(tx.unacked[0][0], -1)
                if head >= 0:
                    self._recorder.note(
                        head, "rnr", ("wait", self.config.rnr_timeout)
                    )
        else:
            raise ValueError(f"unknown reliability opcode {frame.opcode!r}")

    def _process_data(self, dst: str, frame: Packet) -> None:
        psn, inner = frame.payload
        rx = self._rx[dst]
        if psn < rx.expected:
            # Duplicate (retransmission overlap): re-ack so the sender
            # can advance even if the original ACK was lost.
            self.stats.duplicates_dropped += 1
            self.stats.acks_sent += 1
            self.raw.transmit(dst, control_frame("rc_ack", rx.expected - 1))
            return
        if psn > rx.expected:
            # Gap: go-back-N discards everything until the missing PSN
            # shows up again. NAK once per missing PSN.
            self.stats.out_of_order_dropped += 1
            if rx.nak_pending_for != rx.expected:
                rx.nak_pending_for = rx.expected
                self.stats.naks_sent += 1
                self.raw.transmit(dst, control_frame("rc_nak", rx.expected))
            return
        probe = rx.probe
        if probe is not None and not probe(inner, len(rx.deliverable)):
            # Receiver not ready: hold the sender off without losing
            # FIFO order — the PSN is not consumed.
            self.stats.rnr_naks += 1
            self.raw.transmit(dst, control_frame("rc_rnr", rx.expected))
            return
        rx.deliverable.append(inner)
        rx.expected += 1
        rx.nak_pending_for = -1
        self.stats.delivered += 1
        self.stats.acks_sent += 1
        self.raw.transmit(dst, control_frame("rc_ack", psn))

    def _process_ack(self, src: str, psn: int) -> None:
        """Cumulative ACK: everything up to ``psn`` arrived at the peer."""
        tx = self._tx[src]
        progressed = False
        while tx.unacked and tx.unacked[0][0] <= psn:
            acked_psn = tx.unacked.popleft()[0]
            self._psn_mids[src].pop(acked_psn, None)
            progressed = True
        if progressed:
            tx.retries = 0
            tx.timeout = self.config.retry_timeout
            tx.timer = 0
            tx.rnr_wait = 0
            if self._open_spans:
                self._span_end("retransmit", src)
                self._span_end("rnr_stall", src)

    def _advance_timer(self, src: str, tx: _TxState) -> None:
        """One tick of ``src``'s retransmission timer; its window is
        not empty. ``receive`` ticks the timer itself unless an RNR
        wait is pending or this tick fires it."""
        if tx.rnr_wait > 0:
            tx.rnr_wait -= 1
            if tx.rnr_wait == 0:
                self._span_end("rnr_stall", src)
                self._retransmit_from(src, tx.unacked[0][0])
            return
        tx.timer += 1
        if tx.timer >= tx.timeout:
            self.stats.timeouts += 1
            tx.timeout = min(int(tx.timeout * self.config.backoff), self.config.max_timeout)
            self._trace_instant(
                "timeout", src, backoff_to=tx.timeout, unacked=len(tx.unacked)
            )
            if self._recorder.enabled:
                head = self._psn_mids[src].get(tx.unacked[0][0], -1)
                if head >= 0:
                    self._recorder.note(head, "timeout", ("backoff_to", tx.timeout))
            self._retransmit_from(src, tx.unacked[0][0])

    def _retransmit_from(self, src: str, psn: int) -> None:
        """Go-back-N: resend every unacked frame from ``psn`` on."""
        tx = self._tx[src]
        if not tx.unacked:
            return
        tx.retries += 1
        tx.timer = 0
        self._span_begin(
            "retransmit", src, from_psn=tx.unacked[0][0], window=len(tx.unacked)
        )
        if tx.retries > self.config.max_retries:
            tx.failed = True
            raise TransportError(
                f"retry budget exhausted after {self.config.max_retries} "
                f"recovery rounds from {src!r}; first unacked PSN "
                f"{tx.unacked[0][0]}"
            )
        cause = self._psn_mids[src].get(tx.unacked[0][0], -1)
        for unacked_psn, frame in tx.unacked:
            if unacked_psn >= psn:
                self.stats.retransmits += 1
                if self._recorder.enabled:
                    mid = self._psn_mids[src].get(unacked_psn, -1)
                    if mid >= 0:
                        # ``cause`` is the head-of-window message the
                        # go-back-N round is actually recovering; every
                        # later frame rides the same retransmit chain.
                        self._recorder.note(
                            mid, "retransmit", ("psn", unacked_psn, "cause", cause)
                        )
                self.raw.transmit(src, frame)
