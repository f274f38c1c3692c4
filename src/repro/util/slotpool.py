"""Fixed-capacity slot pool, allocated on first touch.

The paper's fixed-size resources — the receive-descriptor table
(§III-B) and the NIC bounce buffers (§IV-A) — are pools of ``capacity``
numbered slots with a LIFO free list. Most simulated ranks touch a
handful of slots out of thousands, so the free list is not built:
never-used slots come from a counter, released ones from a stack. That
hands out exactly the sequence ``list(range(capacity - 1, -1, -1)).pop()``
would — ``0, 1, 2, ...`` with the most recently released slot first —
in O(slots touched) memory.
"""

from __future__ import annotations

__all__ = ["SlotPool"]


class SlotPool:
    """Slot numbers ``0 .. capacity-1`` with O(1) take / give."""

    __slots__ = ("capacity", "in_use", "high_water", "_fresh", "_released")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.in_use = 0
        #: Peak simultaneous occupancy (sizing diagnostics).
        self.high_water = 0
        self._fresh = 0  # slots below this have been handed out at least once
        self._released: list[int] = []

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def take(self) -> int:
        """The next free slot, or ``-1`` when every slot is in use."""
        if self._released:
            slot = self._released.pop()
        elif self._fresh < self.capacity:
            slot = self._fresh
            self._fresh += 1
        else:
            return -1
        self.in_use += 1
        if self.in_use > self.high_water:
            self.high_water = self.in_use
        return slot

    def give(self, slot: int) -> None:
        """Return ``slot`` to the pool; the owner vouches it was taken."""
        self._released.append(slot)
        self.in_use -= 1
