"""The polling stepped executor, kept verbatim as a reference model.

This is ``SteppedExecutor.run`` exactly as it stood before the
incremental scheduler replaced it: every step rebuilds ``runnable``
from every alive thread, polling each blocked thread's condition on
the way. It is O(threads) per step and therefore slow, but it is the
*definition* of the interleaving, of ``steps`` and of ``wait_polls``
that the DPA cycle model prices — ``test_threadsim_differential.py``
holds the production executor to it under every policy.

Only the statistics container differs: the production ``ThreadStats``
now keeps lists, so this copy returns plain ``{tid: count}`` dicts.
``ReferenceRoundRobinPolicy`` is likewise the linear-scan ``pick`` that
``RoundRobinPolicy`` had before it learned to bisect.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.threadsim import DeadlockError, SchedulePolicy, ThreadProc

__all__ = ["ReferenceExecutor", "ReferenceRoundRobinPolicy", "ReferenceStats"]


class ReferenceRoundRobinPolicy(SchedulePolicy):
    """Advance runnable threads in cyclic thread-ID order."""

    def __init__(self) -> None:
        self._last = -1

    def reset(self) -> None:
        self._last = -1

    def pick(self, runnable: Sequence[int]) -> int:
        for tid in runnable:
            if tid > self._last:
                self._last = tid
                return tid
        self._last = runnable[0]
        return runnable[0]


@dataclass(slots=True)
class ReferenceStats:
    steps: dict[int, int] = field(default_factory=dict)
    wait_polls: dict[int, int] = field(default_factory=dict)


class ReferenceExecutor:
    """Full-rescan executor: the behavioural oracle for ``SteppedExecutor``."""

    def __init__(self, policy: SchedulePolicy | None = None, max_steps: int = 10_000_000):
        self._policy = policy if policy is not None else ReferenceRoundRobinPolicy()
        self._max_steps = max_steps

    def run(self, threads: Sequence[ThreadProc]) -> ReferenceStats:
        """Interleave ``threads`` until all complete.

        Returns scheduling statistics. Raises :class:`DeadlockError`
        when no thread can make progress, and ``RuntimeError`` if the
        step budget is exhausted (a livelock guard for tests).
        """
        self._policy.reset()
        stats = ReferenceStats(
            steps={tid: 0 for tid in range(len(threads))},
            wait_polls={tid: 0 for tid in range(len(threads))},
        )
        alive: dict[int, ThreadProc] = dict(enumerate(threads))
        blocked: dict[int, Callable[[], bool]] = {}
        budget = self._max_steps

        while alive:
            runnable = []
            for tid in alive:
                cond = blocked.get(tid)
                if cond is None:
                    runnable.append(tid)
                else:
                    stats.wait_polls[tid] += 1
                    if cond():
                        del blocked[tid]
                        runnable.append(tid)
            if not runnable:
                waiting = sorted(blocked)
                raise DeadlockError(
                    f"threads {waiting} are all blocked with unsatisfiable conditions"
                )
            tid = self._policy.pick(runnable)
            stats.steps[tid] += 1
            try:
                yielded = alive[tid].send(None)
            except StopIteration:
                del alive[tid]
                blocked.pop(tid, None)
            else:
                if yielded is not None:
                    blocked[tid] = yielded
            budget -= 1
            if budget <= 0:
                raise RuntimeError(
                    f"executor exceeded {self._max_steps} steps; likely livelock"
                )
        return stats
