"""Eager and rendezvous protocols over the simulated RDMA substrate
(§IV-B), glued to a matching engine.

* **Eager** — small messages travel inline; after matching, the
  payload is copied from the bounce buffer into the user buffer.
* **Rendezvous** — the sender registers its buffer and sends a
  Ready-To-Send carrying the rkey; after matching, the receiver (the
  DPA, in the offloaded design) issues an RDMA read directly into the
  user buffer, never touching the host CPU.

:class:`RdmaSender` and :class:`RdmaReceiver` wrap the two sides.
The receiver drives any :class:`repro.core.engine.OptimisticMatcher`
(or a serial matcher via duck typing: ``post_receive`` /
``submit_message`` / ``process_all``) and resolves deliveries into a
``completed`` list of (receive handle, payload) records — the final
observable behaviour of the whole offload pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import OptimisticMatcher
from repro.core.envelope import InlineHashes, MessageEnvelope, ReceiveRequest
from repro.core.events import MatchEvent, MatchKind
from repro.core.hashing import compute_inline_hashes
from repro.obs.ledger import NULL_RECORDER, FlightRecorder
from repro.rdma.qp import QueuePair, StagedMessage

__all__ = [
    "MessageHeader",
    "RdmaSender",
    "RdmaReceiver",
    "Delivery",
    "DEFAULT_EAGER_THRESHOLD",
    "pump",
]

#: Eager/rendezvous switchover (bytes); typical RDMA MPI default.
DEFAULT_EAGER_THRESHOLD = 1024

#: What the staged store answers for a token it does not hold.
_NOT_STAGED = (None, None)


@dataclass(frozen=True, slots=True)
class MessageHeader:
    """The wire header the matcher sees (envelope + protocol info)."""

    source: int
    tag: int
    comm: int
    size: int
    send_seq: int
    protocol: str  #: "eager" | "rndv"
    rkey: int = 0  #: rendezvous only
    inline_hashes: tuple[int, int, int] | None = None
    #: Flight-recorder message id (:mod:`repro.obs.ledger`); -1 = none.
    mid: int = -1


@dataclass(slots=True)
class Delivery:
    """One completed receive: the pipeline's end product."""

    handle: int  #: ReceiveRequest.handle of the matched receive
    payload: bytes
    protocol: str
    unexpected: bool  #: True when drained from the unexpected store


class RdmaSender:
    """Sender-side protocol engine."""

    def __init__(
        self,
        qp: QueuePair,
        rank: int,
        *,
        eager_threshold: int = DEFAULT_EAGER_THRESHOLD,
        inline_hashes: bool = True,
        demote_probe=None,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        """``demote_probe`` (optional) is consulted with the payload
        size for every eager-eligible send; returning True demotes the
        send to rendezvous so the payload stays registered in sender
        memory instead of landing in a receiver bounce buffer — the
        memory-pressure relief valve of :mod:`repro.pressure`."""
        self.qp = qp
        self.rank = rank
        self.eager_threshold = eager_threshold
        self.inline_hashes = inline_hashes
        self.demote_probe = demote_probe
        self.recorder = recorder
        #: Eager-eligible sends demoted to rendezvous by the probe.
        self.demotions = 0
        self._send_seq: dict[tuple[int, int], int] = {}
        #: tag -> the §IV-D inline hash words of (this rank, tag).
        self._tag_hashes: dict[int, tuple[int, int, int]] = {}

    def send(self, tag: int, payload: bytes, comm: int = 0) -> MessageHeader:
        """Send one message; protocol chosen by size (and, under
        memory pressure, by the demotion probe)."""
        key = (comm, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        hashes = None
        if self.inline_hashes:
            hashes = self._tag_hashes.get(tag)
            if hashes is None:
                ih = compute_inline_hashes(self.rank, tag)
                hashes = self._tag_hashes[tag] = (ih.src_tag, ih.tag_only, ih.src_only)
        size = len(payload)
        eager = eager_eligible = size <= self.eager_threshold
        if eager and self.demote_probe is not None and self.demote_probe(size):
            eager = False
            self.demotions += 1
        protocol = "eager" if eager else "rndv"
        mid = -1
        if self.recorder.enabled:
            mid = self.recorder.open(
                source=self.rank, tag=tag, size=size, protocol=protocol
            )
            if eager_eligible and not eager:
                self.recorder.note(mid, "demoted", ("size", size))
        # An eager message travels with its payload; a rendezvous one
        # registers it and sends the rkey in a header-only RTS ("might
        # include some message data", §IV-B; header-only here, for
        # clarity).
        rkey = 0 if eager else self.qp.memory.register(payload).rkey
        header = MessageHeader(
            self.rank, tag, comm, size, seq, protocol, rkey, hashes, mid
        )
        if eager:
            self.qp.post_send("send", header, payload)
        else:
            self.qp.post_send("rts", header)
        return header


class RdmaReceiver:
    """Receiver-side pipeline: CQ -> matcher -> protocol completion.

    A receiver drives one matcher fed by *one or more* queue pairs —
    one on a point-to-point wire in the single-link scenarios, one per
    peer rank on a cluster fabric (an RC NIC holds one QP per
    connection but a single matching engine). Tokens, the staged
    store, and the completed list are shared across all queue pairs;
    protocol actions (rendezvous reads, bounce release) are routed to
    the queue pair the message arrived on.
    """

    def __init__(
        self,
        qp: QueuePair | None,
        matcher: OptimisticMatcher,
        *,
        recorder: FlightRecorder = NULL_RECORDER,
    ) -> None:
        self.qps: list[QueuePair] = []
        self.matcher = matcher
        self.recorder = recorder
        self.completed: list[Delivery] = []
        #: bounce-token -> (staged message awaiting protocol, the
        #: queue pair it was staged by).
        self._staged: dict[int, tuple[StagedMessage, QueuePair]] = {}
        self._next_token = 0
        #: outstanding rendezvous reads: token -> match event.
        self._pending_reads: dict[int, MatchEvent] = {}
        #: Deliveries completed from host-spilled staging (degraded).
        self.host_staged_deliveries = 0
        #: Per-qp last observed wire counters ``[retransmits,
        #: rnr_naks]`` (delta mirroring), parallel to ``qps``.
        self._wire_seen: list[list[int]] = []
        #: Header hash words -> the engine's view of them: a sender
        #: ships the same three words with every message of a tag.
        self._inline: dict[tuple[int, int, int], InlineHashes] = {}
        if qp is not None:
            self.add_qp(qp)

    @property
    def qp(self) -> QueuePair | None:
        """The first (single-link scenarios: the only) queue pair."""
        return self.qps[0] if self.qps else None

    def add_qp(self, qp: QueuePair) -> QueuePair:
        """Attach another queue pair feeding this receiver's matcher."""
        self.qps.append(qp)
        self._wire_seen.append([0, 0])
        return qp

    def post_receive(self, request: ReceiveRequest) -> None:
        """Post a receive; an unexpected drain completes immediately."""
        if self.recorder.enabled:
            self.recorder.open_receive(
                request.handle, source=request.source, tag=request.tag
            )
        event = self.matcher.post_receive(request)
        if event is not None:
            self._complete(event, unexpected=True)

    def progress(self) -> int:
        """One progress round: drain CQ, match, run protocols.

        Returns the number of completions processed.
        """
        completions = [
            (qp, cqe) for qp in self.qps for cqe in qp.poll(limit=1_000_000)
        ]
        recorder = self.recorder
        for qp, cqe in completions:
            if cqe.opcode in ("send", "rts"):
                staged: StagedMessage = cqe.payload
                header: MessageHeader = staged.header
                token = self._next_token
                self._next_token += 1
                self._staged[token] = (staged, qp)
                words = header.inline_hashes
                inline = None
                if words is not None:
                    inline = self._inline.get(words)
                    if inline is None:
                        inline = self._inline[words] = InlineHashes(*words)
                mid = header.mid
                if recorder.enabled:
                    recorder.stamp(mid, "engine")
                # The token doubles as arrival id: an engine fed by this
                # receiver alone stamps the same number and keeps the
                # envelope as it is.
                self.matcher.submit_message(
                    MessageEnvelope(
                        header.source,
                        header.tag,
                        header.comm,
                        token,
                        header.size,
                        token,
                        inline,
                        mid,
                    )
                )
            elif cqe.opcode == "read_response":
                token, data = cqe.payload
                event = self._pending_reads.pop(token)
                if self.recorder.enabled:
                    self.recorder.complete(event.message.mid, event.receive.handle)
                self.completed.append(
                    Delivery(
                        handle=event.receive.handle,
                        payload=data,
                        protocol="rndv",
                        unexpected=False,
                    )
                )
        for event in self.matcher.process_all():
            if event.kind is MatchKind.EXPECTED:
                self._complete(event, unexpected=False)
            elif event.kind is MatchKind.UNEXPECTED_DRAIN:
                # A deferred post admitted (or a host-parked evictee
                # recalled) inside the matcher's progress hook drained
                # an unexpected message; complete it like the inline
                # drain path would have.
                self._complete(event, unexpected=True)
            # STORED_UNEXPECTED: stays staged until a receive drains it.
        self._mirror_transport_stats()
        return len(completions)

    def spill_staged(self, token: int) -> bool:
        """Move a staged eager payload out of NIC bounce memory into
        host memory (the degraded staging path ``QueuePair(host_spill=
        True)`` takes when the pool is exhausted), releasing its bounce
        buffer — what evicting the message's header to the host must do
        for its payload. Returns False, touching nothing, when ``token``
        holds no bounce buffer: rendezvous (header-only), already
        host-staged, or unknown."""
        staged, qp = self._staged.get(token, _NOT_STAGED)
        if staged is None or staged.bounce is None:
            return False
        staged.host_data = staged.bounce.read()
        qp.bounce_pool.release(staged.bounce)
        staged.bounce = None
        return True

    def _mirror_transport_stats(self) -> None:
        """Fold reliability-layer counters into the engine's stats so
        one object reports the whole stack's health (degraded matches,
        retransmits, RNR backpressure).

        Mirroring is *additive*: only the delta since the last sync is
        applied, so the engine counters stay cumulative across repeated
        syncs, across engine generations (the stats object is carried
        over spill/recovery), and across wire replacement (a fresh wire
        restarts its counters at zero; the delta tracker treats the new
        value as pure growth rather than clobbering history)."""
        for qp, seen in zip(self.qps, self._wire_seen):
            try:
                wire_stats = qp.wire.stats
                current = [wire_stats.retransmits, wire_stats.rnr_naks]
            except AttributeError:
                continue  # no stats, or ones without RC counters (FaultStats)
            if current == seen:
                continue
            stats = getattr(self.matcher, "stats", None)
            if stats is None:
                return
            for name, now, last in zip(("retransmits", "rnr_naks"), current, seen):
                # A counter below its last-seen value means the wire
                # (and its stats) was replaced: the whole value is new
                # growth.
                delta = now if now < last else now - last
                if delta:
                    setattr(stats, name, getattr(stats, name, 0) + delta)
            seen[:] = current

    def _complete(self, event: MatchEvent, *, unexpected: bool) -> None:
        token = event.message.send_seq
        staged, qp = self._staged.pop(token, _NOT_STAGED)
        if qp is None:
            qp = self.qp
        header: MessageHeader | None = staged.header if staged is not None else None
        if self.recorder.enabled:
            # Engines stamp "matched" with the resolution path; this
            # dedupes against that. Software matchers only get this one.
            self.recorder.stamp(event.message.mid, "matched")
        if header is not None and header.protocol == "rndv":
            # DPA-issued one-sided read into the user buffer (§IV-B),
            # issued on the queue pair the RTS arrived on — on a
            # fabric, the read must travel back to *that* sender.
            self._pending_reads[token] = event
            if self.recorder.enabled:
                self.recorder.stamp(event.message.mid, "rdma_read")
            qp.rdma_read(header.rkey, token)
            return
        payload = b""
        if staged is not None and staged.bounce is not None:
            payload = staged.bounce.read()
            qp.bounce_pool.release(staged.bounce)
        elif staged is not None and staged.host_data is not None:
            # Degraded path: the payload was spilled to host memory
            # because the bounce pool was exhausted at staging time.
            payload = staged.host_data
            self.host_staged_deliveries += 1
            stats = getattr(self.matcher, "stats", None)
            if stats is not None:
                stats.degraded_stagings += 1
                stats.degraded_matches += 1
        if self.recorder.enabled:
            self.recorder.complete(event.message.mid, event.receive.handle)
        self.completed.append(
            Delivery(
                handle=event.receive.handle,
                payload=payload,
                protocol="eager",
                unexpected=unexpected,
            )
        )

    @property
    def pending_reads(self) -> int:
        return len(self._pending_reads)


def pump(receiver: RdmaReceiver, *peer_qps: QueuePair, max_rounds: int = 64) -> None:
    """Progress both sides until the link is quiescent.

    Rendezvous requires the *sender's* NIC to serve inbound RDMA read
    requests; a driver loop must therefore alternate receiver progress
    with peer ``process_inbound`` until nothing moves.

    Over a reliable wire "nothing moves" is not enough: a lost packet
    means several silent rounds while the retransmission timer counts
    down, so the loop also waits for the wire itself to report no
    frames in flight. A :class:`repro.rdma.reliability.TransportError`
    (retry budget exhausted) propagates to the caller — the loop never
    converts an unreachable peer into a silent hang.
    """
    wires = {id(qp.wire): qp.wire for qp in receiver.qps}
    for qp in peer_qps:
        wires.setdefault(id(qp.wire), qp.wire)
    for _ in range(max_rounds):
        moved = receiver.progress()
        for qp in peer_qps:
            moved += qp.process_inbound()
        if moved or receiver.pending_reads:
            continue
        if any(
            in_flight() > 0
            for wire in wires.values()
            if (in_flight := getattr(wire, "in_flight", None)) is not None
        ):
            continue
        return
    if receiver.pending_reads:
        raise RuntimeError(
            f"link did not quiesce in {max_rounds} rounds; "
            f"{receiver.pending_reads} rendezvous reads outstanding"
        )
