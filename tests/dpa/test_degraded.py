"""Graceful degradation: spill to host resources, recover, never fail.

Covers the two spill controllers — :class:`repro.dpa.machine.DpaMachine`
(descriptor-table exhaustion -> host list matcher, host cycles charged)
and :class:`repro.matching.fallback.FallbackMatcher` in recoverable
mode — plus the accounting contract: one cumulative
:class:`repro.core.stats.EngineStats` narrates spills, recoveries, and
degraded matches across engine generations.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.descriptor import DescriptorTableFull
from repro.core.envelope import MessageEnvelope, ReceiveRequest
from repro.dpa.machine import DpaMachine
from repro.matching.fallback import FallbackMatcher
from repro.matching.list_matcher import ListMatcher
from repro.matching.oracle import StreamOp, cross_validate, run_stream, pairings


def overflow_then_drain_ops():
    """Overflow a capacity-4 table, drain, then keep going: exercises
    spill, degraded matching, recovery, and post-recovery matching."""
    ops = [StreamOp.post(0, i) for i in range(10)]
    ops += [StreamOp.message(0, i) for i in range(9)]
    ops += [StreamOp.post(0, 20 + i) for i in range(3)]
    ops += [StreamOp.message(0, 20 + i) for i in range(3)]
    ops += [StreamOp.message(0, 9)]
    return ops


SMALL = dict(max_receives=4, block_threads=4)


class TestDpaMachineSpill:
    def test_overflow_spills_instead_of_raising(self):
        machine = DpaMachine(EngineConfig(**SMALL))
        for i in range(10):
            machine.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        assert machine.degraded
        assert machine.engine.stats.fallback_spills == 1

    def test_degrade_disabled_keeps_hard_failure(self):
        machine = DpaMachine(EngineConfig(**SMALL), degrade_to_host=False)
        with pytest.raises(DescriptorTableFull):
            for i in range(10):
                machine.post_receive(ReceiveRequest(source=0, tag=i, handle=i))

    def test_host_matching_is_charged_host_cycles(self):
        machine = DpaMachine(EngineConfig(**SMALL))
        for i in range(10):
            machine.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        for i in range(6):
            machine.deliver(MessageEnvelope(source=0, tag=i, send_seq=i))
        machine.run()
        assert machine.report.host_messages == 6
        assert machine.report.host_matching_cycles > 0
        assert machine.engine.stats.degraded_matches == 6

    def test_recovery_once_working_set_drains(self):
        machine = DpaMachine(EngineConfig(**SMALL))
        for i in range(10):
            machine.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        events = []
        for i in range(8):  # drain to 2 <= 4 // 2
            machine.deliver(MessageEnvelope(source=0, tag=i, send_seq=i))
        events.extend(machine.run())
        machine.post_receive(ReceiveRequest(source=0, tag=50, handle=50))
        assert not machine.degraded
        assert machine.engine.stats.fallback_recoveries == 1
        # The migrated-back receives still match on the accelerator.
        machine.deliver(MessageEnvelope(source=0, tag=8, send_seq=8))
        machine.deliver(MessageEnvelope(source=0, tag=50, send_seq=9))
        events.extend(machine.run())
        matched = {e.receive.handle for e in events if e.receive is not None}
        assert {8, 50} <= matched

    def test_decision_order_monotone_across_both_migrations(self):
        machine = DpaMachine(EngineConfig(**SMALL))
        events = []
        for i in range(10):
            machine.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        for i in range(8):
            machine.deliver(MessageEnvelope(source=0, tag=i, send_seq=i))
        events.extend(machine.run())
        machine.post_receive(ReceiveRequest(source=0, tag=50, handle=50))
        for i in range(8, 10):
            machine.deliver(MessageEnvelope(source=0, tag=i, send_seq=i))
        machine.deliver(MessageEnvelope(source=0, tag=50, send_seq=10))
        events.extend(machine.run())
        orders = [e.decision_order for e in events]
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)


class TestRecoverableFallbackMatcher:
    def test_matches_oracle_through_spill_and_recovery(self):
        matcher = FallbackMatcher(EngineConfig(**SMALL), recoverable=True)
        cross_validate(matcher, overflow_then_drain_ops())
        assert matcher.stats.fallback_spills >= 1
        assert matcher.stats.fallback_recoveries >= 1
        assert matcher.stats.degraded_matches > 0
        assert matcher.offloaded  # ended back on the accelerator

    def test_one_way_mode_unchanged(self):
        matcher = FallbackMatcher(EngineConfig(**SMALL))
        cross_validate(matcher, overflow_then_drain_ops())
        assert matcher.fallback_events == 1
        assert matcher.stats.fallback_recoveries == 0
        assert not matcher.offloaded

    def test_repeated_spill_recovery_cycles(self):
        """Thrash the boundary: several overflow/drain waves, one stats
        object accumulating the whole story."""
        ops = []
        for wave in range(3):
            base = wave * 100
            ops += [StreamOp.post(0, base + i) for i in range(8)]
            ops += [StreamOp.message(0, base + i) for i in range(8)]
        matcher = FallbackMatcher(EngineConfig(**SMALL), recoverable=True)
        events = cross_validate(matcher, ops)
        assert matcher.stats.fallback_spills >= 2
        assert matcher.stats.fallback_recoveries >= 2
        want = pairings(run_stream(ListMatcher(), ops))
        assert pairings(events) == want

    def test_stats_object_identity_survives_recovery(self):
        matcher = FallbackMatcher(EngineConfig(**SMALL), recoverable=True)
        stats = matcher.stats
        cross_validate(matcher, overflow_then_drain_ops())
        assert matcher.stats is stats
        assert matcher.engine.stats is stats
