"""Fixed-width bitmaps modelling the hardware bitmaps of the paper.

The optimistic engine uses two kinds of bitmaps (paper §III-C/D):

* a *booking bitmap* of ``N`` bits per receive descriptor, where thread
  ``i`` sets bit ``i`` to tentatively book the receive, and
* a *partial-barrier bitmap*, where thread ``i`` sets its own bit when
  it enters the barrier and waits for all bits ``j < i`` to be set.

On the DPA these are words updated with atomic fetch-or; here they are
plain Python integers wrapped in a small class that enforces the fixed
width and exposes exactly the queries the algorithm needs (lowest set
bit, "all bits below i set", population count). Operations are O(1)
on machine words for the widths used in practice (N <= 64).
"""

from __future__ import annotations

__all__ = ["Bitmap", "MaskedWait"]


class Bitmap:
    """A fixed-width bitmap with the query set used by the matcher.

    Parameters
    ----------
    width:
        Number of addressable bits. Bit indexes are ``0 .. width-1``.
    """

    __slots__ = ("_width", "_bits")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"bitmap width must be positive, got {width}")
        self._width = width
        self._bits = 0

    @property
    def width(self) -> int:
        return self._width

    @property
    def value(self) -> int:
        """The raw integer value (useful for snapshots in tests)."""
        return self._bits

    def _check(self, index: int) -> None:
        if not 0 <= index < self._width:
            raise IndexError(f"bit {index} out of range [0, {self._width})")

    # set / test / any_below run once or more per message on the
    # engine's hot path, so they test the range inline and leave the
    # call to _check for the failing case.

    def set(self, index: int) -> None:
        """Set bit ``index`` (models atomic fetch-or)."""
        if not 0 <= index < self._width:
            self._check(index)
        self._bits |= 1 << index

    def clear(self, index: int) -> None:
        """Clear bit ``index``."""
        self._check(index)
        self._bits &= ~(1 << index)

    def test(self, index: int) -> bool:
        """Return whether bit ``index`` is set."""
        if not 0 <= index < self._width:
            self._check(index)
        return bool(self._bits >> index & 1)

    def reset(self) -> None:
        """Clear every bit."""
        self._bits = 0

    def popcount(self) -> int:
        """Number of set bits."""
        return self._bits.bit_count()

    def is_empty(self) -> bool:
        return self._bits == 0

    def is_full(self) -> bool:
        """Whether every bit of the bitmap is set.

        Used by the fast-path eligibility check: "if all threads
        selected it, then conflicted threads can try this strategy".
        """
        return self._bits == (1 << self._width) - 1

    def lowest_set(self) -> int | None:
        """Index of the lowest set bit, or ``None`` when empty.

        Conflict detection resolves ties by lowest thread ID — the
        thread processing the earliest-arrived message wins (C2).
        """
        if self._bits == 0:
            return None
        return (self._bits & -self._bits).bit_length() - 1

    def any_below(self, index: int) -> bool:
        """Whether any bit strictly below ``index`` is set.

        This is the early-booking-check primitive (§IV-D): if a lower
        thread already booked the receive, a higher thread can skip it.
        """
        if not 0 <= index < self._width:
            self._check(index)
        return bool(self._bits & ((1 << index) - 1))

    def all_below(self, index: int) -> bool:
        """Whether *all* bits strictly below ``index`` are set.

        This is the partial-barrier wait condition for thread ``index``.
        """
        self._check(index)
        mask = (1 << index) - 1
        return (self._bits & mask) == mask

    def all_below_condition(self, index: int) -> MaskedWait:
        """:meth:`all_below` as a wait condition for spin waits.

        The range check and the mask are paid once here; what comes
        back says *which word* the waiter re-reads and under *which
        mask*, so a scheduler can tell when a poll could change its
        answer.
        """
        if not 0 <= index < self._width:
            self._check(index)
        return MaskedWait(self, (1 << index) - 1)

    def set_indexes(self) -> list[int]:
        """Sorted list of set bit indexes (diagnostics/tests)."""
        bits, out = self._bits, []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Bitmap(width={self._width}, bits={self._bits:#x})"


class MaskedWait:
    """The wait "every bit of ``mask`` is set in ``word``", as data.

    Calling it evaluates the condition, so it is a valid wait for any
    scheduler that only knows zero-argument predicates. A scheduler
    that looks inside (:class:`repro.core.threadsim.SteppedExecutor`)
    reads ``word._bits`` itself: the answer can only change when that
    integer does, which is what lets it skip the polls in between.
    """

    __slots__ = ("word", "mask")

    def __init__(self, word: Bitmap, mask: int) -> None:
        self.word = word
        self.mask = mask

    def __call__(self) -> bool:
        return self.word._bits & self.mask == self.mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MaskedWait({self.word!r}, mask={self.mask:#x})"
