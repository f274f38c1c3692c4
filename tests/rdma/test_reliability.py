"""ReliableWire: exactly-once FIFO recovery over a lossy link."""

import pytest

from repro.rdma.faultwire import FaultPlan, FaultyWire
from repro.rdma.reliability import (
    ReliabilityConfig,
    ReliableWire,
    TransportError,
)
from repro.rdma.wire import Packet, Wire


def build(plan=None, config=None):
    raw = FaultyWire("a", "b", plan=plan or FaultPlan.clean())
    return ReliableWire(raw, config=config), raw


def pump_until(wire, dst, want, max_ticks=10_000):
    """Poll both endpoints until ``want`` packets arrive at ``dst``."""
    src = next(n for n in wire.names if n != dst)
    got = []
    for _ in range(max_ticks):
        if (p := wire.receive(dst)) is not None:
            got.append(p)
        wire.receive(src)  # sender side processes ACK/NAK/RNR traffic
        if len(got) >= want and wire.in_flight() == 0:
            return got
    raise AssertionError(f"only {len(got)}/{want} delivered in {max_ticks} ticks")


class TestCleanPath:
    def test_transparent_exactly_once_fifo(self):
        wire, raw = build()
        for i in range(20):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 20)
        assert [p.payload for p in got] == list(range(20))
        assert wire.stats.delivered == 20

    def test_wire_interface_is_complete(self):
        wire, raw = build()
        assert wire.names == ("a", "b")
        assert wire.peer_of("a").name == "b"
        assert wire.endpoint("a").name == "a"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(retry_timeout=0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=0)


class TestRecovery:
    def test_drop_recovery_preserves_fifo(self):
        wire, raw = build(FaultPlan.drops(0.25, seed=1))
        for i in range(40):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 40)
        assert [p.payload for p in got] == list(range(40))
        assert raw.stats.dropped > 0
        assert wire.stats.retransmits > 0
        assert wire.stats.timeouts > 0

    def test_duplicates_suppressed(self):
        wire, raw = build(FaultPlan(seed=2, duplicate_rate=1.0))
        for i in range(10):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 10)
        assert [p.payload for p in got] == list(range(10))
        assert wire.stats.duplicates_dropped > 0

    def test_reordering_straightened_out(self):
        wire, raw = build(FaultPlan(seed=3, reorder_rate=0.5, reorder_window=4))
        for i in range(30):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 30)
        assert [p.payload for p in got] == list(range(30))
        assert raw.stats.reordered > 0

    def test_corruption_detected_and_retransmitted(self):
        wire, raw = build(FaultPlan(seed=4, corrupt_rate=0.3))
        for i in range(20):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 20)
        assert [p.payload for p in got] == list(range(20))
        assert raw.stats.corrupted > 0
        assert wire.stats.corrupt_dropped > 0

    def test_everything_at_once(self):
        wire, raw = build(
            FaultPlan.chaos(
                seed=5,
                drop_rate=0.1,
                duplicate_rate=0.1,
                reorder_rate=0.15,
                corrupt_rate=0.1,
            )
        )
        for i in range(60):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 60)
        assert [p.payload for p in got] == list(range(60))
        assert raw.stats.total_injected() > 0


class TestFailure:
    def test_dead_link_raises_not_hangs(self):
        wire, _ = build(FaultPlan.drops(1.0))
        wire.transmit("a", Packet("msg", 0))
        with pytest.raises(TransportError, match="retry budget exhausted"):
            for _ in range(10_000):
                wire.receive("a")

    def test_failure_is_sticky(self):
        wire, _ = build(FaultPlan.drops(1.0), ReliabilityConfig(max_retries=2))
        wire.transmit("a", Packet("msg", 0))
        with pytest.raises(TransportError):
            for _ in range(1_000):
                wire.receive("a")
        with pytest.raises(TransportError):
            wire.receive("a")
        with pytest.raises(TransportError):
            wire.transmit("a", Packet("msg", 1))

    def test_failure_tick_count_is_deterministic(self):
        def ticks_to_failure():
            wire, _ = build(FaultPlan.drops(1.0), ReliabilityConfig(max_retries=4))
            wire.transmit("a", Packet("msg", 0))
            for tick in range(100_000):
                try:
                    wire.receive("a")
                except TransportError:
                    return tick
            raise AssertionError("never failed")

        assert ticks_to_failure() == ticks_to_failure()


class TestRnrBackpressure:
    def test_not_ready_receiver_is_retried_not_dropped(self):
        wire, _ = build()
        refusals = {"left": 5}

        def probe(packet, backlog):
            if refusals["left"] > 0:
                refusals["left"] -= 1
                return False
            return True

        wire.register_rnr_probe("b", probe)
        for i in range(8):
            wire.transmit("a", Packet("msg", i))
        got = pump_until(wire, "b", 8)
        assert [p.payload for p in got] == list(range(8))
        assert wire.stats.rnr_naks > 0
        assert refusals["left"] == 0

    def test_unknown_endpoint_rejected(self):
        wire, _ = build()
        with pytest.raises(KeyError):
            wire.register_rnr_probe("nope", lambda p, b: True)
