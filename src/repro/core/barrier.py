"""The partial barrier (§III-D.1).

"A thread must wait only on threads processing earlier messages. …
As threads move over blocks of the incoming message stream, this
barrier can be implemented by letting a thread *i* wait on all threads
*j* with *j* < *i*. We implement the partial barrier with a bitmap,
where each thread sets its own bit whenever it enters the barrier."

The same bitmap mechanism is reused a second time per block to publish
conflict-detection status: thread *i* must know whether any lower
thread detected a conflict before it may consume its candidate without
resolution (paper §III-D.2: "if a thread *i* detects a conflict, then
all other threads *j* > *i* need to enter the conflict resolution
phase"). A third bitmap per block publishes *resolution*: a thread on
the slow path, or one about to store its message as unexpected, waits
until every lower thread has settled its own message (§III-D.3b).

All three waits are the same primitive: :meth:`PartialBarrier.wait_condition`
hands the executor the bitmap word and the mask the thread waits on, so
a waiter is re-examined only when that word changes.
"""

from __future__ import annotations

from repro.util.bitmap import Bitmap, MaskedWait

__all__ = ["PartialBarrier"]


class PartialBarrier:
    """Bitmap-based partial barrier over ``width`` block threads."""

    def __init__(self, width: int) -> None:
        self._bitmap = Bitmap(width)

    @property
    def width(self) -> int:
        return self._bitmap.width

    def enter(self, thread_id: int) -> None:
        """Thread ``thread_id`` publishes that it reached the barrier."""
        self._bitmap.set(thread_id)

    def entered(self, thread_id: int) -> bool:
        return self._bitmap.test(thread_id)

    def passed(self, thread_id: int) -> bool:
        """Whether every thread below ``thread_id`` has entered.

        Thread 0 passes immediately — it has nobody to wait for.
        """
        return self._bitmap.all_below(thread_id)

    def wait_condition(self, thread_id: int) -> MaskedWait:
        """:meth:`passed` as a wait for the stepped executor: a
        condition callable that also names the word it watches."""
        return self._bitmap.all_below_condition(thread_id)

    def reset(self) -> None:
        self._bitmap.reset()
