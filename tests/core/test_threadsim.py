"""Tests for the stepped-thread executor and schedule policies."""

import pytest
from hypothesis import given

from repro.core.threadsim import (
    DeadlockError,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulePolicy,
    ScriptedPolicy,
    SteppedExecutor,
)
from tests.conftest import schedules
from tests.core.reference_executor import ReferenceExecutor


def worker(log, tid, steps):
    for i in range(steps):
        log.append((tid, i))
        yield None


class TestBasicExecution:
    def test_all_threads_complete(self):
        log = []
        SteppedExecutor().run([worker(log, 0, 3), worker(log, 1, 2)])
        assert sorted(log) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_round_robin_interleaves(self):
        log = []
        SteppedExecutor(RoundRobinPolicy()).run([worker(log, 0, 2), worker(log, 1, 2)])
        assert log == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_empty_thread_list(self):
        stats = SteppedExecutor().run([])
        assert stats.total_steps() == 0

    def test_zero_step_thread(self):
        def empty():
            return
            yield  # pragma: no cover - makes this a generator

        SteppedExecutor().run([empty()])

    def test_stats_count_steps(self):
        log = []
        stats = SteppedExecutor().run([worker(log, 0, 5)])
        # 5 yields plus the final resume that finishes the generator.
        assert stats.steps[0] == 6


class TestWaitConditions:
    def test_wait_until_flag(self):
        state = {"flag": False}
        order = []

        def setter():
            yield None
            state["flag"] = True
            order.append("set")

        def waiter():
            yield lambda: state["flag"]
            order.append("woke")

        SteppedExecutor(RoundRobinPolicy()).run([waiter(), setter()])
        assert order == ["set", "woke"]

    def test_deadlock_detected(self):
        def stuck():
            yield lambda: False

        with pytest.raises(DeadlockError):
            SteppedExecutor().run([stuck()])

    def test_mutual_wait_deadlock(self):
        a_done = {"v": False}
        b_done = {"v": False}

        def thread_a():
            yield lambda: b_done["v"]
            a_done["v"] = True

        def thread_b():
            yield lambda: a_done["v"]
            b_done["v"] = True

        with pytest.raises(DeadlockError):
            SteppedExecutor().run([thread_a(), thread_b()])

    def test_livelock_guard(self):
        def spinner():
            while True:
                yield None

        with pytest.raises(RuntimeError, match="steps"):
            SteppedExecutor(max_steps=100).run([spinner()])


class TestPolicies:
    def test_random_policy_reproducible(self):
        def run(seed):
            log = []
            SteppedExecutor(RandomPolicy(seed)).run(
                [worker(log, 0, 5), worker(log, 1, 5), worker(log, 2, 5)]
            )
            return log

        assert run(3) == run(3)

    def test_random_policy_seeds_differ(self):
        def run(seed):
            log = []
            SteppedExecutor(RandomPolicy(seed)).run(
                [worker(log, 0, 10), worker(log, 1, 10)]
            )
            return log

        assert any(run(a) != run(b) for a, b in [(1, 2), (3, 4), (5, 6)])

    def test_scripted_policy_follows_script(self):
        log = []
        # Always pick the highest runnable thread (index 1 of 2, then
        # the remaining one).
        policy = ScriptedPolicy([1] * 10)
        SteppedExecutor(policy).run([worker(log, 0, 2), worker(log, 1, 2)])
        assert log[:2] == [(1, 0), (1, 1)]

    def test_scripted_policy_exhausted_falls_back(self):
        log = []
        SteppedExecutor(ScriptedPolicy([])).run([worker(log, 0, 2), worker(log, 1, 2)])
        assert log == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @given(schedules)
    def test_any_script_completes_all_threads(self, script):
        log = []
        SteppedExecutor(ScriptedPolicy(script)).run(
            [worker(log, t, 3) for t in range(4)]
        )
        assert len(log) == 12


class _RecordingPolicy(SchedulePolicy):
    """Copies every ``runnable`` it is handed, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def reset(self):
        self.inner.reset()

    def pick(self, runnable):
        self.seen.append(list(runnable))
        return self.inner.pick(runnable)


class TestRunnableContract:
    """``SchedulePolicy.pick`` documents that ``runnable`` is strictly
    ascending; the incremental scheduler maintains it across blocks,
    wakes and finishes instead of rebuilding it."""

    @staticmethod
    def _churn(width=6, rounds=4):
        """Threads that repeatedly block on their lower neighbour's
        progress, so the runnable set shrinks and regrows out of
        order (a high thread can wake before a low one)."""
        progress = [0] * width

        def proc(tid):
            for step in range(1, rounds + 1):
                yield None
                if tid:
                    yield lambda step=step: progress[tid - 1] >= step
                progress[tid] = step
                if (tid + step) % 3 == 0:
                    yield None  # uneven lengths: early finishers

        return [proc(tid) for tid in range(width)]

    def _record(self, make_inner):
        """Every ``runnable`` handed out by the production executor,
        checked against what the full-rescan reference hands out."""
        policy = _RecordingPolicy(make_inner())
        stats = SteppedExecutor(policy).run(self._churn())
        reference_policy = _RecordingPolicy(make_inner())
        reference = ReferenceExecutor(reference_policy).run(self._churn())
        assert policy.seen == reference_policy.seen
        for runnable in policy.seen:
            assert all(a < b for a, b in zip(runnable, runnable[1:]))
        assert stats.wait_polls == list(reference.wait_polls.values())
        assert stats.steps == list(reference.steps.values())
        return policy.seen

    @given(schedules)
    def test_runnable_is_ascending_and_matches_full_rescan(self, script):
        self._record(lambda: ScriptedPolicy(script))

    @pytest.mark.parametrize(
        "make_inner",
        [RoundRobinPolicy, lambda: RandomPolicy(3), lambda: ScriptedPolicy([5] * 400)],
        ids=["round-robin", "random", "highest-first"],
    )
    def test_under_block_wake_churn(self, make_inner):
        """Schedules that let high threads run ahead make them block
        for many steps: the runnable set must visibly shrink and
        regrow, or the test above proves nothing about wakes."""
        sizes = [len(runnable) for runnable in self._record(make_inner)]
        assert any(a < b for a, b in zip(sizes, sizes[1:]))
        assert any(a > b for a, b in zip(sizes, sizes[1:]))

    def test_round_robin_wraps_over_gaps(self):
        """The bisecting pick must behave like the cyclic scan when the
        last-picked thread is no longer runnable."""
        policy = RoundRobinPolicy()
        assert [policy.pick(r) for r in ([0, 2, 5], [0, 2, 5], [0, 5], [0, 2], [2])] == [
            0,
            2,
            5,
            0,
            2,
        ]
