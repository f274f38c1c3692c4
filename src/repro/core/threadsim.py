"""Deterministic stepped-thread executor.

The DPA runs one hardware thread per in-flight message in a
run-to-completion fashion; the relative progress of those threads is
arbitrary. CPython cannot reproduce that concurrency natively (the
GIL serializes everything anyway), so the engine models each matching
thread as a *generator* that yields control at every
synchronization-relevant step. A scheduler then interleaves the
generators under a pluggable policy:

* :class:`RoundRobinPolicy` — fair lockstep (the default),
* :class:`RandomPolicy` — seeded adversarial interleavings,
* :class:`ScriptedPolicy` — an explicit choice sequence, which is what
  lets hypothesis drive the scheduler in property tests and *prove*
  the booking/barrier protocol under arbitrary schedules.

Yield protocol: a thread yields ``None`` to mark one step of work, a
positive int ``n`` to mark ``n`` (``yield 1`` is ``yield None``), or a
zero-argument callable ``cond`` meaning "block me until ``cond()`` is
true" (engine threads yield a ``MaskedWait``, see below). A blocked
thread whose condition never becomes true while every other thread is
blocked or finished is a deadlock and raises :class:`DeadlockError` —
turning liveness bugs into test failures instead of hangs.

``yield n`` is a promise: the thread's next ``n`` steps read nothing
another thread writes and write nothing. The step that yields it is
the first; each of the other ``n − 1`` is charged when the policy
picks the thread, without resuming it. Under :class:`RoundRobinPolicy`,
when every runnable thread owes steps and no plain callable is
blocked, whole rotations are charged at once: nothing is written, so
nobody wakes; a rotation leaves the next pick where it was; and the
shortcut stops short of ``max_steps``. The other policies pick once
per step, because their draws *are* the schedule. A count below 1
raises ``ValueError``. Owed steps are steps like any other to the
poll rule below and to the cycle model.

Poll rule (the cycle model prices it, see docs/CALIBRATION.md): a
blocked thread polls its condition once per scheduler step taken by
*any* thread, first on the step after it blocked; each poll is one
``wait_poll``. A wait whose condition is already true therefore still
costs exactly one poll, and a thread that blocks on step *b* and is
found runnable by the poll of step *w* has paid *w − b*.

That is what is *charged*; it is not what the host does. The executor
counts polls — ``wait_polls[tid] += w − b`` at the wake — and evaluates
a condition only when its answer can have changed. An engine wait is
data, a :class:`repro.util.bitmap.MaskedWait` naming the bitmap word
the thread re-reads and its mask: blocked threads are grouped by word,
and a group is looked at (one read of the word, then an inline masked
compare per member) only on a step where the word differs from what
the group's last evaluation saw, or where a newcomer joined it. Any
other callable is the general case of the same loop: nothing is known
about it, so it is called on every step, in ascending thread-ID order
— and charged by the same subtraction. Conditions are predicates: one
must not change what another reads.

``tests/core/reference_executor.py`` is the model that really does
poll every blocked thread on every step, and the executor must match
it step for step (``test_threadsim_differential.py``, which spells
each ``yield n`` out as ``n`` bare yields for it).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field

from repro.util.bitmap import MaskedWait
from repro.util.rng import make_rng

__all__ = [
    "DeadlockError",
    "SchedulePolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "ScriptedPolicy",
    "SteppedExecutor",
    "ThreadStats",
]

#: What a simulated thread may yield: a bare step (``None``), a count
#: of steps that touch nothing shared (a positive int), or a wait
#: condition.
Yielded = Callable[[], bool] | int | None
ThreadProc = Generator[Yielded, None, None]


class DeadlockError(RuntimeError):
    """All live threads are blocked on conditions that cannot progress."""


class SchedulePolicy:
    """Chooses which runnable thread advances next."""

    def pick(self, runnable: Sequence[int]) -> int:
        """Return one element of ``runnable``.

        ``runnable`` is never empty and is strictly ascending by
        thread ID (policies may rely on that, e.g. to bisect). It is
        the executor's own working list: a policy must treat it as
        read-only and must not keep a reference past the call.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Called once per executor run; stateful policies rewind here."""


class RoundRobinPolicy(SchedulePolicy):
    """Advance runnable threads in cyclic thread-ID order."""

    def __init__(self) -> None:
        self._last = -1

    def reset(self) -> None:
        self._last = -1

    def pick(self, runnable: Sequence[int]) -> int:
        # First thread above the last one picked, wrapping around.
        index = bisect_right(runnable, self._last)
        tid = self._last = runnable[index if index < len(runnable) else 0]
        return tid


class RandomPolicy(SchedulePolicy):
    """Seeded uniformly-random interleaving (adversarial stress)."""

    def __init__(self, seed: int | None = None) -> None:
        self._seed = seed
        self._rng = make_rng(seed)

    def reset(self) -> None:
        self._rng = make_rng(self._seed)

    def pick(self, runnable: Sequence[int]) -> int:
        return runnable[int(self._rng.integers(len(runnable)))]


class ScriptedPolicy(SchedulePolicy):
    """Follows an explicit choice script; used by hypothesis.

    Each script entry is an arbitrary non-negative integer reduced
    modulo the number of runnable threads, so any integer list is a
    valid schedule. When the script runs out the policy falls back to
    picking the lowest runnable thread.
    """

    def __init__(self, script: Sequence[int]) -> None:
        self._script = list(script)
        self._pos = 0

    def reset(self) -> None:
        self._pos = 0

    def pick(self, runnable: Sequence[int]) -> int:
        if self._pos < len(self._script):
            choice = self._script[self._pos] % len(runnable)
            self._pos += 1
            return runnable[choice]
        return runnable[0]


@dataclass(slots=True)
class ThreadStats:
    """Per-run scheduling statistics (also feeds the cycle model)."""

    #: Indexed by thread ID.
    steps: list[int] = field(default_factory=list)
    wait_polls: list[int] = field(default_factory=list)

    def total_steps(self) -> int:
        return sum(self.steps)

    def total_wait_polls(self) -> int:
        return sum(self.wait_polls)


class SteppedExecutor:
    """Runs a set of thread generators to completion under a policy."""

    def __init__(self, policy: SchedulePolicy | None = None, max_steps: int = 10_000_000):
        self._policy = policy if policy is not None else RoundRobinPolicy()
        self._max_steps = max_steps

    def run(self, threads: Sequence[ThreadProc]) -> ThreadStats:
        """Interleave ``threads`` until all complete.

        Returns scheduling statistics. Raises :class:`DeadlockError`
        when no thread can make progress, and ``RuntimeError`` if the
        step budget is exhausted (a livelock guard for tests).
        """
        self._policy.reset()
        pick = self._policy.pick
        count = len(threads)
        steps = [0] * count
        wait_polls = [0] * count
        # Thread IDs, always ascending; with the blocked threads, the
        # alive set.
        runnable = list(range(count))
        alive = count
        step = 0  # scheduler steps taken so far
        max_steps = self._max_steps
        # A blocked thread is in exactly one place. One that yielded a
        # MaskedWait is in the group of the word it watches, a
        # [word, bits at the group's last evaluation, tids] triple
        # (-1: a newcomer joined, evaluate regardless), with its mask
        # in masks[tid]; a group outlives its waiters, so blocking
        # allocates nothing (an engine block has three words). One
        # that yielded any other callable is in `plain`, ascending,
        # with the callable in conds[tid].
        blocked = 0
        blocked_at = [0] * count
        groups: list[list] = []
        masks = [0] * count
        plain: list[int] = []
        conds: list[Callable[[], bool] | None] = [None] * count
        # Steps a thread promised with `yield n` and has not yet been
        # charged; `owing` counts the threads with any (all runnable).
        owed = [0] * count
        owing = 0
        rotate = type(self._policy) is RoundRobinPolicy

        while alive:
            if blocked:
                for group in groups:
                    waiting = group[2]
                    if not waiting:
                        continue
                    bits = group[0]._bits
                    if bits == group[1]:
                        continue  # every answer is what it was
                    group[1] = bits
                    woken = 0
                    for tid in waiting:
                        mask = masks[tid]
                        if bits & mask == mask:
                            wait_polls[tid] += step - blocked_at[tid]
                            insort(runnable, tid)
                            woken += 1
                    if woken:
                        blocked -= woken
                        group[2] = [t for t in waiting if bits & masks[t] != masks[t]]
                if plain:
                    woken = 0
                    for tid in plain:
                        if conds[tid]():
                            conds[tid] = None
                            wait_polls[tid] += step - blocked_at[tid]
                            insort(runnable, tid)
                            woken += 1
                    if woken:
                        blocked -= woken
                        plain = [t for t in plain if conds[t] is not None]
                if not runnable:
                    stuck = sorted(plain + [t for group in groups for t in group[2]])
                    raise DeadlockError(
                        f"threads {stuck} are all blocked with unsatisfiable conditions"
                    )
            if owing and rotate and owing == len(runnable) and not plain:
                # Nothing runs, so nobody wakes: whole rotations are
                # arithmetic, stopping short of the livelock guard.
                rounds = min(min(map(owed.__getitem__, runnable)), (max_steps - 1 - step) // owing)
                if rounds > 0:
                    step += rounds * owing
                    for t in runnable:
                        steps[t] += rounds
                        owed[t] -= rounds
                        if not owed[t]:
                            owing -= 1
            tid = pick(runnable)
            steps[tid] += 1
            if owed[tid]:
                owed[tid] -= 1
                if not owed[tid]:
                    owing -= 1
            else:
                try:
                    yielded = threads[tid].send(None)
                except StopIteration:
                    runnable.remove(tid)
                    alive -= 1
                else:
                    if type(yielded) is int:
                        if yielded < 1:
                            raise ValueError(
                                f"thread {tid} yielded {yielded}; a step count must be >= 1"
                            )
                        if yielded > 1:
                            owed[tid] = yielded - 1
                            owing += 1
                    elif yielded is not None:
                        runnable.remove(tid)
                        blocked += 1
                        # Polled from the next step on: waking at step w
                        # costs w - blocked_at polls.
                        blocked_at[tid] = step
                        if type(yielded) is MaskedWait:
                            masks[tid] = yielded.mask
                            word = yielded.word
                            for group in groups:
                                if group[0] is word:
                                    group[1] = -1
                                    group[2].append(tid)
                                    break
                            else:
                                groups.append([word, -1, [tid]])
                        else:
                            conds[tid] = yielded
                            insort(plain, tid)
            step += 1
            if step >= max_steps:
                raise RuntimeError(
                    f"executor exceeded {max_steps} steps; likely livelock"
                )
        return ThreadStats(steps=steps, wait_polls=wait_polls)
