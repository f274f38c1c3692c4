"""Integration: the full offload stack (core + rdma + dpa) working
together, as deployed in §IV."""

import pytest

from repro.core import EngineConfig, OptimisticMatcher, ReceiveRequest
from repro.dpa import DpaCostModel, DpaMachine, MemoryModel
from repro.rdma import (
    BouncePoolExhausted,
    BounceBufferPool,
    QueuePair,
    RdmaReceiver,
    RdmaSender,
    Wire,
    pump,
)


def build_link(*, bounce_buffers=4096, eager_threshold=256, bins=256, threads=8):
    wire = Wire("tx", "rx")
    tx = QueuePair(wire, "tx")
    rx = QueuePair(wire, "rx", bounce_pool=BounceBufferPool(bounce_buffers, 8192))
    sender = RdmaSender(tx, rank=0, eager_threshold=eager_threshold)
    matcher = OptimisticMatcher(
        EngineConfig(bins=bins, block_threads=threads, max_receives=4096)
    )
    receiver = RdmaReceiver(rx, matcher)
    return sender, receiver, tx


class TestMixedTraffic:
    def test_large_mixed_stream(self):
        """500 messages across protocols, wildcards, and unexpecteds."""
        sender, receiver, tx = build_link()
        for i in range(250):
            receiver.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        for i in range(500):
            size = 64 if i % 2 == 0 else 2048  # eager / rendezvous
            sender.send(tag=i, payload=bytes([i % 256]) * size)
        pump(receiver, tx, max_rounds=256)
        # First 250 matched; the rest staged unexpected.
        assert len(receiver.completed) == 250
        assert receiver.matcher.unexpected_count == 250
        for i in range(250, 500):
            receiver.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
            pump(receiver, tx, max_rounds=16)
        assert len(receiver.completed) == 500
        handles = sorted(d.handle for d in receiver.completed)
        assert handles == list(range(500))

    def test_payload_integrity_across_protocols(self):
        sender, receiver, tx = build_link(eager_threshold=100)
        payloads = {i: bytes([i]) * (50 if i % 2 else 5000) for i in range(20)}
        for i in range(20):
            receiver.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
        for i, payload in payloads.items():
            sender.send(tag=i, payload=payload)
        pump(receiver, tx, max_rounds=64)
        received = {d.handle: d.payload for d in receiver.completed}
        assert received == payloads


class TestBackpressure:
    def test_bounce_pool_exhaustion_surfaces(self):
        """A flood of unexpected eager messages exhausts NIC staging;
        the substrate must refuse rather than drop silently."""
        sender, receiver, tx = build_link(bounce_buffers=8)
        for i in range(9):
            sender.send(tag=1000 + i, payload=b"x" * 32)
        with pytest.raises(BouncePoolExhausted):
            pump(receiver, tx)

    def test_rendezvous_has_no_bounce_pressure(self):
        """Header-only RTS: unexpected rendezvous messages do not
        consume bounce buffers — the §IV-B design point."""
        sender, receiver, tx = build_link(bounce_buffers=4, eager_threshold=16)
        for i in range(32):
            sender.send(tag=2000 + i, payload=b"y" * 1024)
        pump(receiver, tx, max_rounds=64)
        assert receiver.matcher.unexpected_count == 32
        assert receiver.qp.bounce_pool.in_use == 0


class TestDpaMachineIntegration:
    def test_machine_accounts_full_workload(self):
        machine = DpaMachine(
            EngineConfig(bins=128, block_threads=16, max_receives=2048)
        )
        for i in range(256):
            machine.post_receive(ReceiveRequest(source=0, tag=i))
        from repro.core import MessageEnvelope

        for i in range(256):
            machine.deliver(MessageEnvelope(source=0, tag=i, send_seq=i))
        events = machine.run()
        assert len(events) == 256
        assert machine.report.blocks == 16
        assert machine.report.dpa_seconds > 0
        # Memory model consistent with the engine's configuration.
        assert machine.memory.bins == 128

    def test_footprint_guard_before_offload(self):
        """The §III-E deployment rule: configurations that overflow L3
        must not be offloaded (fall back to software from creation)."""
        oversized = MemoryModel(bins=128, max_receives=1 << 17)
        assert oversized.requires_fallback()
        in_cache = MemoryModel(bins=128, max_receives=8192)
        assert not in_cache.requires_fallback()
        # The machine itself accepts either; the deployment layer
        # (mpisim communicator) makes the call.
        DpaMachine(EngineConfig(bins=128, block_threads=8, max_receives=8192))


class TestCostModelShape:
    def test_wc_stream_costs_more_cycles_than_nc(self):
        costs = DpaCostModel()

        def run(same_key):
            machine = DpaMachine(
                EngineConfig(
                    bins=512,
                    block_threads=16,
                    max_receives=1024,
                    early_booking_check=False,
                ),
                cost_model=costs,
            )
            from repro.core import MessageEnvelope

            for i in range(128):
                machine.post_receive(
                    ReceiveRequest(source=0, tag=0 if same_key else i)
                )
            for i in range(128):
                machine.deliver(
                    MessageEnvelope(source=0, tag=0 if same_key else i, send_seq=i)
                )
            machine.run()
            return machine.report.dpa_cycles

        assert run(same_key=True) > run(same_key=False)
