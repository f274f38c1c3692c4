"""Tests for the partial barrier."""

from repro.core.barrier import PartialBarrier
from repro.core.threadsim import RandomPolicy, SteppedExecutor


class TestPartialBarrier:
    def test_thread_zero_passes_immediately(self):
        barrier = PartialBarrier(4)
        assert barrier.passed(0)

    def test_waits_on_all_lower(self):
        barrier = PartialBarrier(4)
        barrier.enter(0)
        assert barrier.passed(1)
        assert not barrier.passed(2)
        barrier.enter(1)
        assert barrier.passed(2)

    def test_higher_threads_do_not_matter(self):
        # Partial: thread 1 must not wait on threads 2, 3.
        barrier = PartialBarrier(4)
        barrier.enter(3)
        barrier.enter(0)
        assert barrier.passed(1)

    def test_entered(self):
        barrier = PartialBarrier(2)
        assert not barrier.entered(1)
        barrier.enter(1)
        assert barrier.entered(1)

    def test_reset(self):
        barrier = PartialBarrier(2)
        barrier.enter(0)
        barrier.reset()
        assert not barrier.entered(0)
        assert not barrier.passed(1)

    def test_wait_condition_names_the_word_and_the_lower_threads(self):
        barrier = PartialBarrier(4)
        wait = barrier.wait_condition(2)
        assert wait.mask == 0b011
        assert not wait()
        barrier.enter(0)
        barrier.enter(1)
        assert wait() and barrier.passed(2)
        # Waits of one barrier watch one word: that is what lets the
        # executor look at all of them at once.
        assert barrier.wait_condition(3).word is wait.word

    def test_under_executor_orders_exits(self):
        """Whatever the schedule, barrier exit order must respect IDs:
        thread i exits only after all j < i entered."""
        for seed in range(10):
            barrier = PartialBarrier(4)
            entered: set[int] = set()
            exit_snapshots = {}

            def proc(tid, barrier=None):
                yield None  # pre-barrier work
                entered.add(tid)
                barrier.enter(tid)
                yield barrier.wait_condition(tid)
                exit_snapshots[tid] = set(entered)

            SteppedExecutor(RandomPolicy(seed)).run(
                [proc(t, barrier=barrier) for t in range(4)]
            )
            assert set(exit_snapshots) == {0, 1, 2, 3}
            for tid, snapshot in exit_snapshots.items():
                # When thread i exited, every j < i had already entered.
                assert snapshot.issuperset(range(tid))
