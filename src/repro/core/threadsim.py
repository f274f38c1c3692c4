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

Yield protocol: a thread yields ``None`` to mark one step of work, or
yields a zero-argument callable ``cond`` meaning "block me until
``cond()`` is true". A blocked thread whose condition never becomes
true while every other thread is blocked or finished is a deadlock and
raises :class:`DeadlockError` — turning liveness bugs into test
failures instead of hangs.

Poll rule (the cycle model prices it, see docs/CALIBRATION.md): a
blocked thread's condition is evaluated once per scheduler step taken
by *any* thread, first on the step after it blocked, in ascending
thread-ID order; each evaluation is one ``wait_poll``. A wait whose
condition is already true therefore still costs exactly one poll. The
scheduler is incremental — it keeps the runnable set sorted and only
ever touches the blocked threads — but that is an implementation
detail: ``tests/core/reference_executor.py`` is the full-rescan model
it must match step for step.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass, field

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

#: What a simulated thread may yield: a bare step or a wait condition.
Yielded = Callable[[], bool] | None
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
        steps = [0] * len(threads)
        wait_polls = [0] * len(threads)
        # Thread IDs, both lists always ascending; together they are
        # the alive set. conds[tid] is set exactly while tid is blocked.
        runnable = list(range(len(threads)))
        blocked: list[int] = []
        conds: list[Callable[[], bool] | None] = [None] * len(threads)
        budget = self._max_steps

        while runnable or blocked:
            if blocked:
                woken = False
                for tid in blocked:
                    wait_polls[tid] += 1
                    if conds[tid]():
                        conds[tid] = None
                        insort(runnable, tid)
                        woken = True
                if woken:
                    blocked = [tid for tid in blocked if conds[tid] is not None]
                if not runnable:
                    raise DeadlockError(
                        f"threads {blocked} are all blocked with unsatisfiable conditions"
                    )
            tid = pick(runnable)
            steps[tid] += 1
            try:
                yielded = threads[tid].send(None)
            except StopIteration:
                runnable.remove(tid)
            else:
                if yielded is not None:
                    runnable.remove(tid)
                    conds[tid] = yielded
                    insort(blocked, tid)
            budget -= 1
            if budget <= 0:
                raise RuntimeError(
                    f"executor exceeded {self._max_steps} steps; likely livelock"
                )
        return ThreadStats(steps=steps, wait_polls=wait_polls)
