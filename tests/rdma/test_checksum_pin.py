"""Pin of ``packet_checksum``'s bytes: literal CRC32 values.

The reliable wire stamps every frame with this CRC and checks it at the
receiver, so its byte image is a wire format: a change to how a frame is
imaged (an ``rc_data`` body built without a ``_mirror`` call for its
outer level, say) must give the same value for every payload shape. The
values were computed before that fast path existed; the fallback shapes
below (a third item, a ``bool`` PSN, a list body) take the generic mirror.
"""

from dataclasses import dataclass

import pytest

from repro.rdma.protocol import MessageHeader
from repro.rdma.wire import Packet, packet_checksum


@dataclass(frozen=True)
class Hop:
    link: str
    ticks: tuple


@dataclass(frozen=True)
class Route:
    hops: list
    weight: float
    tail: Hop | None = None


HEADER = MessageHeader(3, 17, 0, 64, 5, "eager", 0, (11, 22, 33), 42)
RTS = MessageHeader(1, 2, 7, 4096, 0, "rndv", 9, None, 8)
SEND = Packet("send", (HEADER, b"payload" * 9), 63)

#: name -> (opcode, payload, CRC32).
PINNED = {
    "rc_data/send": ("rc_data", (4, SEND), 160851746),
    "rc_data/rts": ("rc_data", (0, Packet("rts", (RTS, b""), 0)), 197452173),
    "rc_data/read_request": ("rc_data", (12, Packet("read_request", (9, 3))), 2116752075),
    "rc_data/read_response": (
        "rc_data", (13, Packet("read_response", (3, b"remote"), 6)), 2897071262
    ),
    "dict": ("ack", {"done": True, "hops": [1, 2], "who": ("a", None)}, 2042518440),
    "nested dataclass": ("note", Route([Hop("l0", (0, 1))], 0.5, Hop("l1", (1, 3))), 2868412946),
    "scalar ack": ("rc_ack", 7, 290071509),
    "rc_data/three items": (
        "rc_data", (1, Packet("send", (HEADER, b"x"), 1), "extra"), 795033129
    ),
    "rc_data/bool psn": ("rc_data", (True, Packet("read_request", (9, 3))), 684254551),
    "rc_data/list body": ("rc_data", [4, SEND], 160851746),
}


@pytest.mark.parametrize("name", PINNED)
def test_checksum_bytes_are_pinned(name):
    opcode, payload, crc = PINNED[name]
    assert packet_checksum(opcode, payload) == crc
