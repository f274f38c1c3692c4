"""Message envelopes and receive requests.

A :class:`MessageEnvelope` is what the matcher sees of an incoming
message: the MPI envelope fields (source, tag, communicator) plus the
transport metadata the offloaded design carries with it — the arrival
stamp that defines matching precedence (C2) and the optional
sender-computed *inline hash values* (§IV-D) that spare the SmartNIC
from computing bucket indexes.

A :class:`ReceiveRequest` is the user-visible receive posting; it is
turned into a :class:`repro.core.descriptor.ReceiveDescriptor` when it
is accepted by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constants import ANY_SOURCE, ANY_TAG, WildcardClass, classify

__all__ = ["InlineHashes", "MessageEnvelope", "ReceiveRequest"]


@dataclass(frozen=True, slots=True)
class InlineHashes:
    """Sender-side precomputed bucket hashes (§IV-D, *inline hash values*).

    The sender can compute ``hash(src, tag)``, ``hash(tag)`` and
    ``hash(src)`` because they do not depend on receiver state, and
    ship them in the message header. Values here are the *raw* hash
    words; the receiver reduces them modulo its bin count, so the same
    header works for any receiver-side table size.
    """

    src_tag: int
    tag_only: int
    src_only: int


@dataclass(frozen=True, slots=True)
class MessageEnvelope:
    """An incoming point-to-point message as seen by the matcher."""

    source: int
    tag: int
    comm: int = 0
    #: Monotonic arrival stamp assigned by the completion queue; defines
    #: the precedence order used for C2 (non-overtaking).
    arrival: int = 0
    #: Payload size in bytes; selects eager vs rendezvous protocol.
    size: int = 0
    #: Per-sender send sequence number (diagnostics / C2 auditing).
    send_seq: int = 0
    inline_hashes: InlineHashes | None = None
    #: Flight-recorder message id (:mod:`repro.obs.ledger`); -1 when no
    #: recorder is attached. Excluded from equality/hash so ledger
    #: instrumentation can never change matching behaviour.
    mid: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.source < 0:
            raise ValueError(
                f"messages must carry a concrete source rank, got {self.source} "
                "(the MPI specification does not allow wildcard sends)"
            )
        if self.tag < 0:
            raise ValueError(f"messages must carry a concrete tag, got {self.tag}")

    def key(self) -> tuple[int, int]:
        return (self.source, self.tag)

    def with_arrival(self, arrival: int) -> "MessageEnvelope":
        """This envelope stamped with its completion-queue position:
        itself when it already carries that stamp (envelopes are
        immutable, so the copy would be indistinguishable), else a
        copy — spelled out because every message passes through here
        and ``dataclasses.replace`` costs more than twice as much."""
        if arrival == self.arrival:
            return self
        return MessageEnvelope(
            self.source,
            self.tag,
            self.comm,
            arrival,
            self.size,
            self.send_seq,
            self.inline_hashes,
            self.mid,
        )


@dataclass(frozen=True, slots=True)
class ReceiveRequest:
    """A receive posting (``MPI_Recv`` / ``MPI_Irecv`` envelope part)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    comm: int = 0
    #: Size of the user-provided buffer in bytes.
    size: int = 0
    #: Opaque user handle propagated to the match event (request id).
    handle: int = field(default=0, compare=False)

    def wildcard_class(self) -> WildcardClass:
        return classify(self.source, self.tag)

    def matches(self, msg: MessageEnvelope) -> bool:
        """Envelope matching rule: wildcards accept anything."""
        if self.comm != msg.comm:
            return False
        if self.source != ANY_SOURCE and self.source != msg.source:
            return False
        if self.tag != ANY_TAG and self.tag != msg.tag:
            return False
        return True
