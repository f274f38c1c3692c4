"""NIC-memory bounce buffers (§IV-A).

"Incoming messages are staged into bounce buffers in NIC memory,
which are pointed by the RDMA receive operations posted by the
receiver. Bounce buffers are necessary because we only know the
address of the user-provided receive buffer once the matching is
performed."

The pool is fixed-size, like NIC SRAM: exhaustion models the
backpressure a real receiver exerts by not reposting RDMA receives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.slotpool import SlotPool

__all__ = ["BounceBuffer", "BounceBufferPool", "BouncePoolExhausted"]


class BouncePoolExhausted(Exception):
    """No free bounce buffer: the receiver must stop posting receives
    (RNR backpressure) until matching drains the pool."""


@dataclass(eq=False, slots=True)
class BounceBuffer:
    """One staging buffer in NIC memory."""

    index: int
    capacity: int
    data: bytes = b""
    in_use: bool = False

    def write(self, data: bytes) -> None:
        if len(data) > self.capacity:
            raise ValueError(
                f"payload of {len(data)} B exceeds bounce capacity {self.capacity} B"
            )
        self.data = data

    def read(self) -> bytes:
        return self.data


class BounceBufferPool:
    """Fixed pool of equal-size bounce buffers with O(1) alloc/free.

    ``pressure`` (optional) is a
    :class:`repro.pressure.budget.PressureMeter`: each allocated buffer
    charges its full capacity to the meter's ``bounce`` account and
    releases it on free, so the meter's gauge mirrors ``in_use``
    exactly. A buffer the budget cannot absorb is reported as pool
    exhaustion — the same RNR/host-spill escapes the fixed pool already
    has handle the budget, too.
    """

    def __init__(self, count: int, buffer_bytes: int = 4096, *, pressure=None) -> None:
        #: The buffer numbers, free and taken: read-only outside the pool
        #: (the RNR probe reads its free count straight off it).
        self.slots = SlotPool(count)
        #: Buffers that have been allocated at least once, by index; the
        #: rest of the modelled pool is built when first handed out.
        self._buffers: dict[int, BounceBuffer] = {}
        self.buffer_bytes = buffer_bytes
        self.pressure = pressure

    @property
    def capacity(self) -> int:
        return self.slots.capacity

    @property
    def in_use(self) -> int:
        return self.slots.in_use

    @property
    def high_water(self) -> int:
        """Peak simultaneous occupancy (sizing diagnostics)."""
        return self.slots.high_water

    def allocate(self) -> BounceBuffer:
        if not self.slots.available:
            raise BouncePoolExhausted(
                f"all {self.slots.capacity} bounce buffers in use"
            )
        if self.pressure is not None and not self.pressure.would_fit(self.buffer_bytes):
            raise BouncePoolExhausted(
                f"memory budget cannot absorb another {self.buffer_bytes} B "
                f"bounce buffer ({self.pressure.headroom()} B headroom)"
            )
        index = self.slots.take()
        buf = self._buffers.get(index)
        if buf is None:
            buf = self._buffers[index] = BounceBuffer(index, self.buffer_bytes)
        buf.in_use = True
        if self.pressure is not None:
            self.pressure.charge("bounce", self.buffer_bytes)
        return buf

    def release(self, buf: BounceBuffer) -> None:
        if not buf.in_use:
            raise ValueError(f"bounce buffer {buf.index} is not allocated")
        buf.in_use = False
        buf.data = b""
        self.slots.give(buf.index)
        if self.pressure is not None:
            self.pressure.release("bounce", self.buffer_bytes)
