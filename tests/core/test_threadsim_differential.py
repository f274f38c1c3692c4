"""Differential oracle: the incremental executor against the full-rescan
reference (``reference_executor.py``) on random thread programs.

``steps`` and ``wait_polls`` are simulated quantities the DPA cycle
model prices, so the two executors must agree on them exactly — and on
the order in which threads are resumed and plain conditions are polled
— under every policy, including runs that end in a deadlock or trip
the livelock guard.

Programs mix the two kinds of wait the production executor treats
differently: plain callables (polled every step, every poll logged)
and ``MaskedWait`` conditions on shared ``Bitmap`` words (evaluated
only when the word changed, polls *counted*). Words are set and
cleared, so a condition that was true can turn false again before its
waiter is looked at. To the reference both kinds are just callables.

Programs also yield step counts (``yield n``: n bare steps the
production executor charges without resuming the thread, and under
round-robin in whole rotations). The reference predates them, so it
runs each thread through an adapter that expands ``n`` into n bare
yields.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.threadsim import (
    DeadlockError,
    RandomPolicy,
    RoundRobinPolicy,
    ScriptedPolicy,
    SteppedExecutor,
)
from repro.util.bitmap import Bitmap, MaskedWait
from tests.conftest import schedules
from tests.core.reference_executor import ReferenceExecutor, ReferenceRoundRobinPolicy

COMMON = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FLAGS = 3
#: A flag no thread ever sets: waiting on it is waiting forever.
NEVER = FLAGS

WORDS = 2
WIDTH = 4
words = st.integers(0, WORDS - 1)
bits = st.integers(0, WIDTH - 1)

#: One thread op: a bare step; setting a (monotone) flag, or waiting on
#: a flag that some thread may set, may never get to set, or cannot set
#: (plain callables); setting or clearing a bit of a shared word, or
#: waiting on a word — the engine's "all bits below i" or any mask,
#: the empty one included (MaskedWait); n bare steps at once.
thread_ops = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("set"), st.integers(0, FLAGS - 1)),
    st.tuples(st.just("wait"), st.integers(0, NEVER)),
    st.tuples(st.just("bit_set"), words, bits),
    st.tuples(st.just("bit_clear"), words, bits),
    st.tuples(st.just("wait_below"), words, bits),
    st.tuples(st.just("wait_mask"), words, st.integers(0, (1 << WIDTH) - 1)),
    st.tuples(st.just("skip"), st.integers(1, 6)),
)
#: Programs of different lengths (the empty one included) give early
#: finishers.
programs = st.lists(st.lists(thread_ops, max_size=8), max_size=6)
#: (production policy, reference policy) factories.
policy_pairs = st.one_of(
    st.just((RoundRobinPolicy, ReferenceRoundRobinPolicy)),
    st.integers(0, 50).map(lambda seed: (lambda: RandomPolicy(seed),) * 2),
    schedules.map(lambda script: (lambda: ScriptedPolicy(script),) * 2),
)


def _thread(tid, ops, flags, bitmaps, log):
    for pc, op in enumerate(ops):
        log.append(("send", tid, pc))
        if op[0] == "step":
            yield None
        elif op[0] == "set":
            flags[op[1]] = True
            yield None
        elif op[0] == "bit_set":
            bitmaps[op[1]].set(op[2])
            yield None
        elif op[0] == "bit_clear":
            bitmaps[op[1]].clear(op[2])
            yield None
        elif op[0] == "wait_below":
            yield bitmaps[op[1]].all_below_condition(op[2])
        elif op[0] == "wait_mask":
            yield MaskedWait(bitmaps[op[1]], op[2])
        elif op[0] == "skip":
            yield op[1]
        else:

            def cond(flag=op[1]):
                log.append(("poll", tid))
                return flags[flag]

            yield cond
    log.append(("done", tid))


def _expanded(thread):
    """``thread`` with every ``yield n`` spelled as n bare yields."""
    for item in thread:
        if type(item) is int:
            for _ in range(item):
                yield None
        else:
            yield item


def _run(executor, progs):
    """(outcome, log): outcome is the per-thread stats or the error."""
    flags = [False] * (FLAGS + 1)
    bitmaps = [Bitmap(WIDTH) for _ in range(WORDS)]
    log = []
    threads = [_thread(tid, ops, flags, bitmaps, log) for tid, ops in enumerate(progs)]
    if isinstance(executor, ReferenceExecutor):
        threads = [_expanded(thread) for thread in threads]
    try:
        stats = executor.run(threads)
    except (DeadlockError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc)), log
    counts = [(stats.steps[tid], stats.wait_polls[tid]) for tid in range(len(progs))]
    return ("ok", counts), log


class TestAgainstReference:
    @COMMON
    @given(
        progs=programs,
        policies=policy_pairs,
        max_steps=st.one_of(st.integers(1, 40), st.just(10_000)),
    )
    def test_same_interleaving_stats_and_outcome(self, progs, policies, max_steps):
        make_policy, make_reference_policy = policies
        outcome, log = _run(SteppedExecutor(make_policy(), max_steps=max_steps), progs)
        expected, expected_log = _run(
            ReferenceExecutor(make_reference_policy(), max_steps=max_steps), progs
        )
        assert outcome == expected
        assert log == expected_log

    @COMMON
    @given(
        skips=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        tail=st.lists(thread_ops, max_size=3),
        max_steps=st.integers(1, 40),
    )
    def test_livelock_guard_inside_a_rotation(self, skips, tail, max_steps):
        """Every thread opens with a step count, so round-robin charges
        whole rotations; a budget that runs out inside one must trip at
        the same step, with the same resumes behind it."""
        progs = [[("skip", n)] + tail for n in skips]
        assert _run(SteppedExecutor(max_steps=max_steps), progs) == _run(
            ReferenceExecutor(max_steps=max_steps), progs
        )

    def test_step_count_must_be_positive(self):
        for count in (0, -1):

            def thread(count=count):
                yield count

            with pytest.raises(ValueError, match="step count must be >= 1"):
                SteppedExecutor().run([thread()])

    def test_all_three_outcomes_are_reachable(self):
        """The property above must not be comparing only clean runs."""
        finishing = [[("step",), ("set", 0)], [("wait", 0), ("step",)]]
        assert _run(SteppedExecutor(), finishing)[0][0] == "ok"
        stuck = [[("step",)], [("wait", NEVER)], [("wait", 1)]]
        outcome = _run(SteppedExecutor(), stuck)[0]
        assert outcome == _run(ReferenceExecutor(), stuck)[0]
        assert outcome == (
            "DeadlockError",
            "threads [1, 2] are all blocked with unsatisfiable conditions",
        )
        outcome = _run(SteppedExecutor(max_steps=3), finishing)[0]
        assert outcome == _run(ReferenceExecutor(max_steps=3), finishing)[0]
        assert outcome == ("RuntimeError", "executor exceeded 3 steps; likely livelock")

    def test_already_true_wait_costs_exactly_one_poll(self):
        """A wait is never free: the condition is first evaluated on
        the scheduler step after the thread blocked, even if it was
        true all along."""
        progs = [[("set", 0), ("wait", 0), ("step",)]]
        for executor in (SteppedExecutor(), ReferenceExecutor()):
            outcome, log = _run(executor, progs)
            assert outcome == ("ok", [(4, 1)])
            assert log.count(("poll", 0)) == 1

    def test_blocked_thread_is_polled_once_per_step_of_any_thread(self):
        """Thread 1 blocks on its first step. The next three scheduler
        steps are all thread 0's; each polls thread 1 once and finds
        the flag down. The poll on the step after the ``set`` is the
        one that wakes it: four polls in all."""
        progs = [[("step",), ("step",), ("step",), ("set", 0)], [("wait", 0)]]
        for executor in (SteppedExecutor(), ReferenceExecutor()):
            outcome, _ = _run(executor, progs)
            assert outcome == ("ok", [(5, 0), (2, 4)])


def _both():
    return (SteppedExecutor(), ReferenceExecutor())


class TestMaskedPollRule:
    """The poll rule's corners for ``MaskedWait`` conditions, which the
    production executor counts without evaluating: each expectation is
    spelled out from the rule and must hold for the reference as well."""

    def test_already_true_masked_wait_costs_exactly_one_poll(self):
        progs = [[("bit_set", 0, 0), ("wait_below", 0, 1), ("step",)]]
        for executor in _both():
            assert _run(executor, progs)[0] == ("ok", [(4, 1)])
        # The empty mask ("all bits below 0") is true of any word.
        progs = [[("wait_below", 0, 0)], [("wait_mask", 1, 0)]]
        for executor in _both():
            assert _run(executor, progs)[0] == ("ok", [(2, 1), (2, 1)])

    def test_masked_waiter_is_charged_once_per_step_of_any_thread(self):
        """The masked twin of the plain-callable test above: thread 1
        blocks on step 2, thread 0 takes steps 3–5 (the last sets the
        bit), and the poll before step 6 wakes thread 1: 6 − 2 = 4."""
        progs = [[("step",), ("step",), ("step",), ("bit_set", 0, 0)], [("wait_below", 0, 1)]]
        for executor in _both():
            assert _run(executor, progs)[0] == ("ok", [(5, 0), (2, 4)])

    def test_newcomer_on_an_unchanged_word_is_evaluated_on_the_next_step(self):
        """Thread 1 waits for bit 1, which nobody sets until thread 0's
        last step; the word then holds still while thread 2 joins it
        with a wait that is already true. The join itself must trigger
        the evaluation: thread 2 pays one poll, not one per step until
        the word next changes."""
        progs = [
            [("bit_set", 0, 0)] + [("step",)] * 6 + [("bit_set", 0, 1)],
            [("wait_mask", 0, 0b10)],
            [("step",), ("step",), ("wait_below", 0, 1), ("step",)],
        ]
        for executor in _both():
            outcome, log = _run(executor, progs)
            assert outcome[0] == "ok"
            assert outcome[1][2] == (5, 1)
            # Woken at once, thread 2 runs its last op before thread 0's
            # third bare step, not after the word's next change.
            assert log.index(("send", 2, 3)) < log.index(("send", 0, 4))

    def test_thread_that_blocks_again_on_the_same_word(self):
        """Each wait is charged from its own blocking step: thread 1
        wakes on bit 0, blocks again on the same word for bit 1, and
        the second wait's polls do not include the first's."""
        progs = [
            [("bit_set", 0, 0), ("step",), ("step",), ("bit_set", 0, 1)],
            [("wait_below", 0, 1), ("wait_below", 0, 2)],
        ]
        for executor in _both():
            outcome, log = _run(executor, progs)
            # Steps: 0 sets bit 0 (#1); 1 blocks (#2); 0 steps (#3, the
            # poll before it wakes 1: 1 poll); 1 blocks again (#4);
            # 0 steps (#5), 0 sets bit 1 (#6), 0 finishes (#7, and the
            # poll before it wakes 1: 7 − 4 = 3 polls); 1 finishes (#8).
            assert outcome == ("ok", [(5, 0), (3, 4)])
            assert [entry[1] for entry in log if entry[0] == "send"] == [0, 1, 0, 1, 0, 0]

    def test_condition_that_turned_false_again_before_it_was_looked_at(self):
        """A bit set and cleared within one scheduler step was never
        visible to a poll; set and cleared across two steps was visible
        to exactly one, and a waiter that saw it is awake for good."""

        def flicker(bitmap):
            bitmap.set(0)
            bitmap.clear(0)
            yield None
            bitmap.set(0)
            yield None
            bitmap.clear(0)
            yield None

        def waiter(bitmap):
            yield bitmap.all_below_condition(1)

        for executor in _both():
            word = Bitmap(WIDTH)
            stats = executor.run([waiter(word), flicker(word)])
            # 0 blocks (#1); flicker's in-step pulse (#2) wakes nobody;
            # the bit stays up after #3, so the poll before #4 wakes 0.
            assert (stats.steps[0], stats.wait_polls[0]) == (2, 3)
            assert word.value == 0

    @COMMON
    @given(progs=programs, seed=st.integers(0, 50))
    def test_wait_polls_is_wake_step_minus_block_step(self, progs, seed):
        """``wait_polls`` from first principles, with neither executor
        as the oracle: replay the words' history and find, for every
        masked wait, the first step whose poll saw its mask satisfied."""
        # Bare steps only: the log shows resumes, and a step count's
        # charged steps fall wherever the policy puts them.
        masked = [
            [
                expanded
                for op in ops
                for expanded in (
                    [("step",)] * op[1]
                    if op[0] == "skip"
                    else [op if op[0] not in ("set", "wait") else ("step",)]
                )
            ]
            for ops in progs
        ]
        outcome, log = _run(SteppedExecutor(RandomPolicy(seed)), masked)
        if outcome[0] != "ok":
            return
        # One scheduler step per resume: a ("send", tid, pc) runs op pc, a
        # ("done", tid) is the resume that finds the program finished
        # (a step like any other to the threads still waiting).
        resumes = [entry for entry in log if entry[0] in ("send", "done")]
        # values[k]: the words after scheduler step k (step 0: all clear).
        values = [[0] * WORDS]
        for entry in resumes:
            now = list(values[-1])
            op = masked[entry[1]][entry[2]] if entry[0] == "send" else ("step",)
            if op[0] == "bit_set":
                now[op[1]] |= 1 << op[2]
            elif op[0] == "bit_clear":
                now[op[1]] &= ~(1 << op[2])
            values.append(now)
        expected = [0] * len(masked)
        for block_step, entry in enumerate(resumes, start=1):
            if entry[0] == "done":
                continue
            _, tid, pc = entry
            op = masked[tid][pc]
            if op[0] == "wait_below":
                mask = (1 << op[2]) - 1
            elif op[0] == "wait_mask":
                mask = op[2]
            else:
                continue
            # The poll of step w reads the words as step w − 1 left them.
            wake_step = next(
                w for w in range(block_step + 1, len(values) + 1)
                if values[w - 1][op[1]] & mask == mask
            )
            expected[tid] += wake_step - block_step
        assert [polls for _, polls in outcome[1]] == expected


class _CountedBitmap(Bitmap):
    """A bitmap that counts how often its word is read."""

    reads = 0

    @property
    def _bits(self):
        self.reads += 1
        return Bitmap._bits.__get__(self)

    @_bits.setter
    def _bits(self, value):
        Bitmap._bits.__set__(self, value)


class TestSpinningCostsNoHostWork:
    THREADS = 32
    BARE_STEPS = 2_000

    def test_word_reads_grow_with_steps_plus_waiters_not_their_product(self):
        """31 threads spin behind one that takes S bare steps before it
        enters the barrier. The cycle model is charged 31·S polls; the
        host may read the word O(S + 32) times, not once per poll. This
        is the algorithmic guard ``benchmarks/wallclock`` would
        otherwise be the first to trip, and it counts reads, so it does
        not depend on the machine or the Python version."""
        word = _CountedBitmap(self.THREADS)

        def leader():
            for _ in range(self.BARE_STEPS):
                yield None
            word.set(0)

        def follower(tid):
            word.set(tid)
            yield word.all_below_condition(tid)

        threads = [leader()] + [follower(tid) for tid in range(1, self.THREADS)]
        stats = SteppedExecutor().run(threads)

        followers = self.THREADS - 1
        # Every follower was blocked for (nearly) all of the leader's steps.
        assert stats.total_wait_polls() > followers * (self.BARE_STEPS - 1)
        # One read per set(), at most one per scheduler step for the
        # group, one more per follower for slack.
        assert word.reads <= stats.total_steps() + 2 * self.THREADS
        assert word.reads < stats.total_wait_polls() // 8
