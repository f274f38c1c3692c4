"""DpaMachine core-fault mode: guarded blocks, wasted-cycle accounting,
quarantine-aware costing, and takeover/re-offload through the spill path."""

from repro.core import EngineConfig, MessageEnvelope, ReceiveRequest
from repro.dpa import DpaMachine
from repro.matching.oracle import pairings
from repro.obs.registry import MetricsRegistry
from repro.recovery import CoreFaultPlan, RecoveryPolicy
from repro.util.rng import make_rng

CONFIG = dict(bins=4, block_threads=4, max_receives=256)


def machine(**kw):
    return DpaMachine(EngineConfig(**CONFIG), **kw)


def run_schedule(m, seed, rounds=10, senders=2, tags=3):
    """Posts + deliveries in rounds; returns all match events."""
    rng = make_rng(seed)
    events = []
    handle = 0
    seqs = {}
    for _ in range(rounds):
        for _ in range(int(rng.integers(1, 6))):
            request = ReceiveRequest(
                source=int(rng.integers(senders)),
                tag=int(rng.integers(tags)),
                handle=handle,
            )
            handle += 1
            event = m.post_receive(request)
            if event is not None:
                events.append(event)
        for _ in range(int(rng.integers(1, 6))):
            source = int(rng.integers(senders))
            seq = seqs.get(source, 0)
            seqs[source] = seq + 1
            m.deliver(
                MessageEnvelope(
                    source=source, tag=int(rng.integers(tags)), send_seq=seq
                )
            )
        events.extend(m.run())
    events.extend(m.run())
    return events


STORM = CoreFaultPlan(seed=9, fail_stop_rate=0.2, hang_rate=0.1, bit_flip_rate=0.2)
#: Threshold high enough that the storm never escalates off the DPA —
#: all waste stays on the accelerator clock (takeover has its own test).
POLICY = RecoveryPolicy(quarantine_threshold=7, repair_epochs=5)


class TestFaultMode:
    def test_pairings_match_clean_run_and_cycles_cost_more(self):
        clean = machine()
        clean_events = run_schedule(clean, seed=1)
        faulty = machine(cores=8, core_faults=STORM, recovery=POLICY)
        faulty_events = run_schedule(faulty, seed=1)
        assert pairings(faulty_events) == pairings(clean_events)
        rs = faulty.recovery_stats
        assert (
            rs.core_fail_stops + rs.core_hangs + rs.core_bit_flips > 0
        )  # non-vacuous
        assert faulty.report.replayed_blocks > 0
        assert faulty.report.replay_cycles > 0
        # No takeover at this threshold, so every wasted attempt and
        # hang-watchdog timeout lands on the accelerator clock.
        assert rs.host_takeovers == 0
        assert faulty.report.dpa_cycles > clean.report.dpa_cycles
        assert faulty.report.messages == clean.report.messages

    def test_quarantine_raises_per_block_cost(self):
        """Blocks are costed over surviving cores: with half the cores
        dead, the same work takes more cycles per block."""
        base = machine(keep_history=True)
        run_schedule(base, seed=3, rounds=6)
        hurt = machine(
            cores=8,
            keep_history=True,
            core_faults=CoreFaultPlan(seed=5, fail_stop_rate=0.6),
            recovery=RecoveryPolicy(quarantine_threshold=6, repair_epochs=200),
        )
        run_schedule(hurt, seed=3, rounds=6)
        assert hurt.recovery_stats.cores_quarantined > 0
        assert hurt.report.dpa_cycles > base.report.dpa_cycles

    def test_takeover_and_reoffload_through_spill_path(self):
        """Past the quarantine threshold the host adopts matching (the
        PR 1 spill path: host cycles now nonzero), and quick repairs
        bring it back on-NIC."""
        m = machine(
            cores=4,
            core_faults=CoreFaultPlan(seed=2, fail_stop_rate=1.0),
            recovery=RecoveryPolicy(quarantine_threshold=0, repair_epochs=2),
        )
        events = run_schedule(m, seed=2, rounds=10)
        rs = m.recovery_stats
        assert rs.host_takeovers >= 1
        assert m.report.host_messages > 0
        assert m.report.host_matching_cycles > 0
        assert rs.reoffloads >= 1
        assert m.engine.stats.fallback_spills == rs.host_takeovers
        # Matching itself stayed correct across every migration.
        clean_events = run_schedule(machine(), seed=2, rounds=10)
        assert pairings(events) == pairings(clean_events)

    def test_determinism(self):
        a = machine(cores=8, core_faults=STORM, recovery=POLICY)
        events_a = run_schedule(a, seed=4)
        b = machine(cores=8, core_faults=STORM, recovery=POLICY)
        events_b = run_schedule(b, seed=4)
        assert pairings(events_a) == pairings(events_b)
        assert a.report.dpa_cycles == b.report.dpa_cycles
        assert a.recovery_stats == b.recovery_stats


class TestObservability:
    def test_recovery_metrics_registered(self):
        registry = MetricsRegistry()
        m = machine(cores=8, core_faults=STORM, recovery=POLICY)
        m.register_metrics(registry)
        run_schedule(m, seed=6)
        values = registry.snapshot().values
        assert values["dpa.recovery.block_rollbacks"] > 0
        assert "dpa.quarantined" in values
        assert any(n.startswith("dpa.replay_cycles") for n in values)
