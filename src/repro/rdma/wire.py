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
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cache
from operator import attrgetter
from typing import Any

__all__ = ["Packet", "Wire", "Endpoint", "packet_checksum"]


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


def _flatten(items: Iterable[Any], out: list) -> None:
    """Append the plain-data mirror of each of ``items`` to ``out``:
    leaves as they are, a sequence as a list, a dataclass instance as
    a list of its type name and field values, a dict as a list of its
    items in insertion order."""
    for item in items:
        kind = type(item)
        if kind in _LEAVES:
            out += (item,)
            continue
        if kind is tuple or kind is list:
            sub: list = []
        elif kind is dict:
            sub, item = ["dict"], item.items()
        else:
            sub, item = [kind.__name__], _record_fields(kind)(item)
        _flatten(item, sub)
        out += (sub,)


def packet_checksum(opcode: str, payload: Any) -> int:
    """Deterministic 32-bit checksum over an opcode/payload pair.

    The CRC runs over a canonical byte image of every field: the
    payload is mirrored as nested lists of builtin scalars and byte
    strings (:func:`_flatten`; frames nest a PSN, the inner packet,
    its header dataclass and its payload bytes) and written with
    ``marshal`` format 0, which encodes those types by value alone —
    no ``__repr__`` takes part, so changing how a header prints cannot
    change what the wire accepts. Anything that is neither plain data
    nor a dataclass raises ``TypeError`` rather than going unprotected.
    """
    image = [opcode]
    _flatten((payload,), image)
    return zlib.crc32(marshal.dumps(image, 0))


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
