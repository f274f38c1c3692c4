"""Differential oracle: the incremental executor against the full-rescan
reference (``reference_executor.py``) on random thread programs.

``steps`` and ``wait_polls`` are simulated quantities the DPA cycle
model prices, so the two executors must agree on them exactly — and on
the order in which threads are resumed and conditions are polled —
under every policy, including runs that end in a deadlock or trip the
livelock guard.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.threadsim import (
    DeadlockError,
    RandomPolicy,
    RoundRobinPolicy,
    ScriptedPolicy,
    SteppedExecutor,
)
from tests.conftest import schedules
from tests.core.reference_executor import ReferenceExecutor, ReferenceRoundRobinPolicy

COMMON = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FLAGS = 3
#: A flag no thread ever sets: waiting on it is waiting forever.
NEVER = FLAGS

#: One thread op: a bare step, setting a (monotone) flag, or waiting on
#: a flag that some thread may set, may never get to set, or cannot set.
thread_ops = st.one_of(
    st.just(("step",)),
    st.tuples(st.just("set"), st.integers(0, FLAGS - 1)),
    st.tuples(st.just("wait"), st.integers(0, NEVER)),
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


def _thread(tid, ops, flags, log):
    for pc, op in enumerate(ops):
        log.append(("send", tid, pc))
        if op[0] == "step":
            yield None
        elif op[0] == "set":
            flags[op[1]] = True
            yield None
        else:

            def cond(flag=op[1]):
                log.append(("poll", tid))
                return flags[flag]

            yield cond
    log.append(("done", tid))


def _run(executor, progs):
    """(outcome, log): outcome is the per-thread stats or the error."""
    flags = [False] * (FLAGS + 1)
    log = []
    threads = [_thread(tid, ops, flags, log) for tid, ops in enumerate(progs)]
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
