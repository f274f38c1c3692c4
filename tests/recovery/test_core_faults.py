"""CoreFaultPlan / CoreFaultInjector / CoreQuarantine semantics."""

from types import SimpleNamespace

import pytest

from repro.core import EngineConfig
from repro.core.threadsim import DeadlockError, SchedulePolicy, SteppedExecutor
from repro.recovery import (
    CoreFault,
    CoreFaultInjector,
    CoreFaultKind,
    CoreFaultPlan,
    CoreQuarantine,
    RecoveringMatcher,
    RecoveryPolicy,
)
from repro.recovery.faults import ArmedFault
from tests.recovery.streams import drive, schedule_rounds


class TestCoreFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fail_stop_rate": -0.1},
            {"hang_rate": 1.5},
            {"bit_flip_rate": 2.0},
            {"max_steps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CoreFaultPlan(**kwargs)

    def test_clean_and_storm(self):
        assert CoreFaultPlan.clean().is_clean
        storm = CoreFaultPlan.storm(seed=3)
        assert not storm.is_clean
        assert storm.seed == 3

    def test_with_options_composes(self):
        plan = CoreFaultPlan.clean().with_options(fail_stop_rate=0.2, seed=9)
        assert plan.fail_stop_rate == 0.2
        assert plan.seed == 9
        assert not plan.is_clean


class TestCoreQuarantine:
    def test_quarantine_and_repair_cycle(self):
        q = CoreQuarantine(4, repair_epochs=3)
        assert q.active_cores() == [0, 1, 2, 3]
        q.quarantine(2, epoch=1)
        q.quarantine(0, epoch=2)
        assert q.count == 2
        assert q.peak == 2
        assert q.is_quarantined(2)
        assert q.active_cores() == [1, 3]
        assert q.repair_due(3) == []  # core 2 repairs at epoch 4
        assert q.repair_due(4) == [2]
        assert q.repair_due(5) == [0]
        assert q.count == 0
        assert q.peak == 2  # peak is sticky

    def test_out_of_range_core_rejected(self):
        q = CoreQuarantine(2, repair_epochs=1)
        with pytest.raises(ValueError, match="out of range"):
            q.quarantine(2, epoch=0)

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError, match="at least one core"):
            CoreQuarantine(0, repair_epochs=1)


class TestInjectorDeterminism:
    def test_same_seed_same_fault_schedule(self):
        """Two identical runs inject the identical fault sequence and
        land on identical pairings — the FaultPlan reproducibility
        contract, extended to core faults."""

        def one_run():
            matcher = RecoveringMatcher(
                EngineConfig(bins=4, block_threads=4, max_receives=128),
                cores=8,
                core_plan=CoreFaultPlan.storm(
                    seed=11, fail_stop_rate=0.2, hang_rate=0.1, bit_flip_rate=0.2
                ),
                recovery=RecoveryPolicy(quarantine_threshold=2, repair_epochs=6),
            )
            rounds, ops = schedule_rounds(seed=5, rounds=10)
            events = drive(matcher, rounds)
            return matcher, events

        a, events_a = one_run()
        b, events_b = one_run()
        assert a.recovery_stats == b.recovery_stats
        assert a.injector.stats.total_injected() > 0  # non-vacuous
        assert a.injector.stats == b.injector.stats
        assert [str(e) for e in events_a] == [str(e) for e in events_b]


class TestUnattributedFaults:
    def test_engine_bug_is_never_masked(self):
        """A DeadlockError with no armed fault is a genuine engine bug
        and must propagate — replaying it would hide the bug."""
        matcher = RecoveringMatcher(
            EngineConfig(bins=4, block_threads=4, max_receives=64),
            cores=4,
            core_plan=CoreFaultPlan.clean(),
        )
        rounds, _ = schedule_rounds(seed=1, rounds=1)

        def broken_block():
            raise DeadlockError("planted liveness bug")

        matcher.engine.process_block = broken_block
        with pytest.raises(DeadlockError, match="planted"):
            drive(matcher, rounds)
        assert matcher.recovery_stats.block_rollbacks == 0


class _CountingPolicy(SchedulePolicy):
    """Picks the lowest runnable thread and counts the steps."""

    def __init__(self) -> None:
        self.picks = 0

    def pick(self, runnable):
        self.picks += 1
        return runnable[0]


def _struck(kind, at_step, *, bare):
    """(executor steps, inner side effects, error) of one victim thread
    that takes five steps, as ``yield 5`` or as five bare yields, and
    two more bare ones."""
    log = []

    def inner():
        log.append("start")
        if bare:
            for _ in range(5):
                yield None
        else:
            yield 5
        log.append("mid")
        yield None
        yield None
        log.append("after")

    injector = CoreFaultInjector(CoreFaultPlan.clean(), active_cores=lambda: [0])
    fault = ArmedFault(kind=kind, core=0, thread=0, block=1, at_step=at_step)
    victim = injector._faulty(inner(), SimpleNamespace(candidates=[None]), fault)
    policy = _CountingPolicy()
    with pytest.raises((CoreFault, DeadlockError)) as err:
        SteppedExecutor(policy).run([victim])
    return policy.picks, log, type(err.value)


class TestStrikeStep:
    @pytest.mark.parametrize("kind", list(CoreFaultKind))
    @pytest.mark.parametrize("at_step", range(1, 10))
    def test_step_count_is_struck_where_its_bare_steps_are(self, kind, at_step):
        """``yield n`` is n steps to the strike point too: a strike
        inside the run lands on the same executor step as it would on
        n bare yields, without running the segment after them."""
        assert _struck(kind, at_step, bare=False) == _struck(kind, at_step, bare=True)
