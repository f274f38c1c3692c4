"""The simulated wire: an ordered link between two endpoints.

Models the transport at the level the matcher observes: packets posted
at one end appear at the other end in order, each generating a
completion at the receiver. The *base* :class:`Wire` is perfect — it
neither loses nor reorders — which is the service a reliable-connection
(RC) RDMA transport presents to its consumers. What RC NICs actually
do to *provide* that service over a faulty physical link (PSN
sequencing, go-back-N retransmission, RNR NAKs) is no longer out of
scope: :mod:`repro.rdma.faultwire` injects seeded drop / duplicate /
reorder / corruption faults below this abstraction, and
:mod:`repro.rdma.reliability` rebuilds exactly-once FIFO delivery on
top of them. The FIFO-per-direction guarantee — the property that
makes completion-queue arrival order a valid C2 precedence order — is
therefore an *implemented* invariant here, not an assumed one.
"""

from __future__ import annotations

import dataclasses
import marshal
import zlib
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, lru_cache
from operator import attrgetter
from typing import Any

__all__ = ["Packet", "Wire", "Endpoint", "control_frame", "packet_checksum"]


@dataclass(frozen=True, slots=True)
class Packet:
    """One transport unit: an opcode plus opaque payload.

    ``checksum``, when set, covers the opcode and payload (see
    :func:`packet_checksum`); the reliability layer stamps it on every
    frame so payload corruption injected by a faulty wire is
    detectable at the receiver. ``None`` means "unprotected" — the
    base wire never corrupts, so bare packets don't need one.
    """

    opcode: str  #: "send" | "rts" | "read_request" | "read_response" | "ack" | "rc_*"
    payload: Any
    size: int = 0
    checksum: int | None = None


#: Types written into the image as they are.
_LEAVES = frozenset({int, str, bytes, bytearray, float, bool, type(None)})


@cache
def _record_fields(kind: type) -> Callable[[Any], tuple]:
    """The getter of a dataclass type's field values, in declaration order."""
    if not dataclasses.is_dataclass(kind):
        raise TypeError(f"cannot checksum a {kind.__name__}: not plain data or a dataclass")
    names = [f.name for f in dataclasses.fields(kind)]
    if len(names) == 1:
        names.append(names[0])  # attrgetter returns a bare value for one name
    return attrgetter(*names)


def _mirror(value: Any) -> list:
    """The plain-data mirror of a non-leaf ``value``: a sequence as a
    list, a dataclass instance as a list of its type name and field
    values, a dict as a list of ``"dict"`` and its items in insertion
    order — leaves inside as they are, everything else mirrored in
    turn. One comprehension per level: of the ways to walk a frame
    (this, a worklist, appending leaf by leaf) it is the cheapest on
    the host by a clear margin, which is what a function run twice
    per message is chosen on."""
    kind = type(value)
    if kind is tuple or kind is list:
        return [item if type(item) in _LEAVES else _mirror(item) for item in value]
    if kind is dict:
        return ["dict", *[_mirror(pair) for pair in value.items()]]
    fields = _record_fields(kind)(value)
    return [kind.__name__, *[item if type(item) in _LEAVES else _mirror(item) for item in fields]]


#: Bound on the two by-value memos below: PSNs of live windows recur,
#: old ones age out.
_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=_MEMO_SIZE)
def _scalar_checksum(opcode: str, value: int) -> int:
    """:func:`packet_checksum` of an opcode and a bare int: a pure
    function of the two values, so it is computed once per pair."""
    return zlib.crc32(marshal.dumps([opcode, value], 0))


def packet_checksum(opcode: str, payload: Any) -> int:
    """Deterministic 32-bit checksum over an opcode/payload pair.

    The CRC runs over a canonical byte image of every field: the
    payload is mirrored as nested lists of builtin scalars and byte
    strings (:func:`_mirror`; frames nest a PSN, the inner packet,
    its header dataclass and its payload bytes) and written with
    ``marshal`` format 0, which encodes those types by value alone —
    no ``__repr__`` takes part, so changing how a header prints cannot
    change what the wire accepts. Anything that is neither plain data
    nor a dataclass raises ``TypeError`` rather than going unprotected.

    An ``rc_data`` body of a PSN and an inner packet is imaged without
    a call for its outer level, to the same bytes; any other shape, a
    damaged one too, takes the generic mirror. A bare-int payload
    (every RC control frame carries just a PSN) is memoised *by
    value*: whoever asks — the sender stamping a frame or the receiver
    checking one — gets the CRC of the opcode and int it passed in,
    never of an object it happens to share.
    """
    kind = type(payload)
    if kind is int:
        return _scalar_checksum(opcode, payload)
    if kind is tuple and opcode == "rc_data":
        match payload:
            case (psn, Packet() as inner) if type(psn) is int:
                # The image ``_mirror`` gives a data frame's body.
                return zlib.crc32(marshal.dumps([opcode, [psn, _mirror(inner)]], 0))
    image = [opcode, payload if kind in _LEAVES else _mirror(payload)]
    return zlib.crc32(marshal.dumps(image, 0))


@lru_cache(maxsize=_MEMO_SIZE)
def control_frame(opcode: str, psn: int) -> Packet:
    """The checksummed zero-size frame ``opcode`` carrying ``psn``.

    A control frame is a value — two scalars and their CRC — and
    :class:`Packet` is frozen, so every sender of the same
    (opcode, PSN) shares one instance; whatever alters a frame in
    transit has to build a new one.
    """
    return Packet(opcode, psn, 0, packet_checksum(opcode, psn))


@dataclass(slots=True)
class Endpoint:
    """One side of the wire: an inbound packet queue."""

    name: str
    inbound: deque[Packet] = field(default_factory=deque)

    def pending(self) -> int:
        return len(self.inbound)


class Wire:
    """A bidirectional FIFO link between endpoints ``a`` and ``b``."""

    def __init__(self, a: str = "a", b: str = "b") -> None:
        if a == b:
            raise ValueError(f"wire endpoints must be distinct, both named {a!r}")
        self._ends = {a: Endpoint(a), b: Endpoint(b)}
        # Precomputed peer map: peer_of is on the per-packet hot path.
        self._peers = {a: self._ends[b], b: self._ends[a]}
        self.delivered = 0

    @property
    def names(self) -> tuple[str, str]:
        names = tuple(self._ends)
        assert len(names) == 2
        return names  # type: ignore[return-value]

    def endpoint(self, name: str) -> Endpoint:
        return self._ends[name]

    def peer_of(self, name: str) -> Endpoint:
        try:
            return self._peers[name]
        except KeyError:
            raise KeyError(f"unknown endpoint {name!r}") from None

    def transmit(self, src: str, packet: Packet) -> None:
        """Post a packet from ``src``; it lands at the peer in order."""
        self.peer_of(src).inbound.append(packet)
        self.delivered += 1

    def receive(self, dst: str) -> Packet | None:
        """Pop the next inbound packet at ``dst`` (None when idle)."""
        queue = self._ends[dst].inbound
        return queue.popleft() if queue else None

    def drain(self, dst: str) -> list[Packet]:
        """Pop everything currently inbound at ``dst``."""
        queue = self._ends[dst].inbound
        out = list(queue)
        queue.clear()
        return out
