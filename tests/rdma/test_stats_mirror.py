"""Regression: reliability counters mirror *additively* onto engine stats.

The old mirroring assigned ``stats.retransmits = wire.stats.retransmits``
on every progress call. That clobber held only while one engine
generation and one wire existed; a FallbackMatcher spill/recovery (the
stats object survives, the engine is rebuilt) or a wire swap silently
rewound history. The mirror now applies deltas against a last-seen
tracker, so the engine counters stay cumulative in every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.chaos.harness import ChaosConfig, run_chaos
from repro.chaos.suites import PROFILES
from repro.core.envelope import ANY_SOURCE, ANY_TAG, ReceiveRequest
from repro.core.stats import EngineStats
from repro.matching.fallback import FallbackMatcher
from repro.rdma.protocol import RdmaReceiver


@dataclass
class _WireStats:
    retransmits: int = 0
    rnr_naks: int = 0


class _Wire:
    def __init__(self) -> None:
        self.stats = _WireStats()


class _Qp:
    def __init__(self) -> None:
        self.wire = _Wire()


class _Matcher:
    def __init__(self) -> None:
        self.stats = EngineStats()


def _receiver() -> RdmaReceiver:
    return RdmaReceiver(_Qp(), _Matcher())


class TestDeltaMirroring:
    def test_repeated_syncs_do_not_double_count(self) -> None:
        receiver = _receiver()
        receiver.qp.wire.stats.retransmits = 5
        receiver._mirror_transport_stats()
        receiver._mirror_transport_stats()
        receiver._mirror_transport_stats()
        assert receiver.matcher.stats.retransmits == 5

    def test_growth_accumulates(self) -> None:
        receiver = _receiver()
        receiver.qp.wire.stats.retransmits = 2
        receiver._mirror_transport_stats()
        receiver.qp.wire.stats.retransmits = 7
        receiver.qp.wire.stats.rnr_naks = 3
        receiver._mirror_transport_stats()
        assert receiver.matcher.stats.retransmits == 7
        assert receiver.matcher.stats.rnr_naks == 3

    def test_survives_engine_generation_swap(self) -> None:
        """Regression for the clobber bug: history accumulated before a
        spill/recovery (same stats object, fresh engine) must survive
        later syncs."""
        receiver = _receiver()
        receiver.qp.wire.stats.retransmits = 4
        receiver._mirror_transport_stats()
        # Spill/recovery bumps counters on the carried stats object.
        receiver.matcher.stats.fallback_spills += 1
        receiver.matcher.stats.fallback_recoveries += 1
        receiver.qp.wire.stats.retransmits = 6
        receiver._mirror_transport_stats()
        assert receiver.matcher.stats.retransmits == 6
        assert receiver.matcher.stats.fallback_recoveries == 1

    def test_wire_replacement_counts_as_pure_growth(self) -> None:
        """A fresh wire restarts its counters at zero; the mirror must
        treat the rewind as a new generation, not negative growth."""
        receiver = _receiver()
        receiver.qp.wire.stats.retransmits = 9
        receiver._mirror_transport_stats()
        receiver.qp.wire = _Wire()  # counters restart at 0
        receiver.qp.wire.stats.retransmits = 2
        receiver._mirror_transport_stats()
        assert receiver.matcher.stats.retransmits == 11

    def test_statless_participants_are_skipped(self) -> None:
        receiver = _receiver()
        receiver.qp.wire = object()  # no .stats
        receiver._mirror_transport_stats()  # must not raise
        assert receiver.matcher.stats.retransmits == 0


class TestFullStackAcrossGenerations:
    def test_chaos_spill_run_keeps_wire_and_engine_counters_equal(self) -> None:
        """End-to-end regression spanning real FallbackMatcher
        spill/recovery cycles: the mirrored engine counters must equal
        the wire's cumulative counts, generation boundaries included."""
        report = run_chaos(replace(PROFILES["spill"], seed=3))
        assert report.ok
        assert report.fallback_spills >= 1
        assert report.fallback_recoveries >= 1  # >= 2 engine generations
        assert report.retransmits > 0
        assert report.engine_retransmits == report.retransmits
        assert report.engine_rnr_naks == report.rnr_naks

    def test_fallback_matcher_direct_spill_recovery_cycle(self) -> None:
        """The carried stats object narrates the whole life of the
        matcher: spill, software interlude, recovery."""
        from repro.core.config import EngineConfig

        matcher = FallbackMatcher(
            EngineConfig(max_receives=4, block_threads=2), recoverable=True
        )
        stats = matcher.stats
        for i in range(6):  # descriptor table holds 4 -> spill
            matcher.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        assert not matcher.offloaded
        assert stats.fallback_spills == 1
        from repro.core.envelope import MessageEnvelope

        for i in range(6):  # drain the software PRQ below threshold
            matcher.incoming_message(MessageEnvelope(source=0, tag=i, send_seq=i))
        matcher.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=ANY_TAG, handle=99))
        assert matcher.offloaded
        assert stats.fallback_recoveries == 1
        assert matcher.stats is stats  # same carrier, second generation
