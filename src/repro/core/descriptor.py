"""Receive descriptors and the fixed-size descriptor table.

"Receive descriptors are stored in a fixed-size table, where the size
of the table determines the maximum number of receives that can be
posted at the same time. If the number of posted receives exceeds this
capacity, the application must fall back to software tag matching."
(§III-B). Each descriptor carries the 64-byte record the paper costs
out in §III-E: the envelope fields, the monotonic post label (C1
ordering across indexes), the sequence ID (fast-path eligibility), and
the N-bit booking bitmap (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.constants import WildcardClass
from repro.core.envelope import ReceiveRequest
from repro.util.bitmap import Bitmap
from repro.util.slotpool import SlotPool

if TYPE_CHECKING:  # circular-at-runtime only for typing
    from repro.util.intrusive import IntrusiveNode

__all__ = ["ReceiveDescriptor", "DescriptorTable", "DescriptorTableFull"]

#: Modelled size of one receive descriptor in bytes (§III-E).
DESCRIPTOR_BYTES = 64


class DescriptorTableFull(Exception):
    """Raised when the fixed-size table cannot accept another receive.

    The engine converts this into a software-tag-matching fallback
    signal rather than letting it escape to the application.
    """


@dataclass(eq=False, slots=True)
class ReceiveDescriptor:
    """One posted receive, as stored in DPA memory."""

    request: ReceiveRequest
    #: Monotonically increasing posting label; the candidate with the
    #: minimum label wins across indexes (constraint C1).
    post_label: int
    #: Sequence ID of the run of compatible receives this one belongs
    #: to (§III-D.3a); consecutive same-(source, tag) posts share it.
    sequence_id: int
    wildcard_class: WildcardClass
    #: N-bit booking bitmap; thread ``i`` sets bit ``i`` to tentatively
    #: book this receive (§III-C).
    booking: Bitmap
    #: Slot index inside the fixed table (stable identity).
    slot: int
    #: Set once a thread definitively consumed this receive.
    consumed: bool = False
    #: Back-pointer to the index-structure node holding this
    #: descriptor, so consumption can unlink/mark it in O(1).
    node: "IntrusiveNode[ReceiveDescriptor] | None" = field(default=None, repr=False)

    @property
    def source(self) -> int:
        return self.request.source

    @property
    def tag(self) -> int:
        return self.request.tag

    def is_live(self) -> bool:
        return not self.consumed

    def compatible_with(self, other: "ReceiveDescriptor") -> bool:
        """Same-(source, tag) compatibility used by sequence runs."""
        return (
            self.request.source == other.request.source
            and self.request.tag == other.request.tag
        )


class DescriptorTable:
    """Fixed-capacity pool of receive descriptors with a free list.

    Mirrors the hardware table: slots are recycled, capacity overflow
    raises :class:`DescriptorTableFull`, and occupancy statistics feed
    the memory-footprint model (:mod:`repro.dpa.memory`). The modelled
    table is ``capacity`` slots wide; the host-side one holds only the
    slots in use (:class:`repro.util.slotpool.SlotPool`).
    """

    def __init__(self, capacity: int, block_threads: int) -> None:
        if block_threads <= 0:
            raise ValueError(f"block width must be positive, got {block_threads}")
        self._block_threads = block_threads
        self._pool = SlotPool(capacity)  # rejects a non-positive capacity
        self._slots: dict[int, ReceiveDescriptor] = {}

    @property
    def capacity(self) -> int:
        return self._pool.capacity

    @property
    def in_use(self) -> int:
        return self._pool.in_use

    @property
    def high_water(self) -> int:
        """Peak simultaneous occupancy (sizing diagnostics)."""
        return self._pool.high_water

    @property
    def footprint_bytes(self) -> int:
        """Memory the table consumes in the §III-E cost model."""
        return self._pool.capacity * DESCRIPTOR_BYTES

    def allocate(
        self,
        request: ReceiveRequest,
        post_label: int,
        sequence_id: int,
    ) -> ReceiveDescriptor:
        """Allocate a descriptor for an accepted receive posting."""
        slot = self._pool.take()
        if slot < 0:
            raise DescriptorTableFull(
                f"descriptor table exhausted at capacity {self._pool.capacity}; "
                "fall back to software tag matching"
            )
        descr = ReceiveDescriptor(
            request=request,
            post_label=post_label,
            sequence_id=sequence_id,
            wildcard_class=request.wildcard_class(),
            booking=Bitmap(self._block_threads),
            slot=slot,
        )
        self._slots[slot] = descr
        return descr

    def release(self, descr: ReceiveDescriptor) -> None:
        """Return a consumed descriptor's slot to the free list."""
        slot = descr.slot
        if slot not in self._slots or self._slots[slot] is not descr:
            raise ValueError(f"descriptor in slot {slot} is not table-resident")
        del self._slots[slot]
        self._pool.give(slot)

    def get(self, slot: int) -> ReceiveDescriptor | None:
        return self._slots.get(slot)
