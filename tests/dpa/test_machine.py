"""Tests for the DPA machine model."""

import pytest

from repro.core import EngineConfig, MessageEnvelope, ReceiveRequest
from repro.dpa import BF3_THREADS, DpaMachine


def machine(**kw):
    base = dict(bins=16, block_threads=4, max_receives=128)
    base.update(kw)
    return DpaMachine(EngineConfig(**base))


class TestDpaMachine:
    def test_rejects_block_width_beyond_hardware(self):
        with pytest.raises(ValueError, match="hardware threads"):
            DpaMachine(EngineConfig(block_threads=BF3_THREADS + 1))

    def test_run_charges_cycles(self):
        m = machine()
        for tag in range(8):
            m.post_receive(ReceiveRequest(source=0, tag=tag))
        for tag in range(8):
            m.deliver(MessageEnvelope(source=0, tag=tag, send_seq=tag))
        events = m.run()
        assert len(events) == 8
        assert m.report.messages == 8
        assert m.report.blocks == 2
        assert m.report.dpa_cycles > 0
        assert m.report.dpa_seconds > 0

    def test_host_cycles_are_zero(self):
        # The offload's headline claim: no host matching work.
        m = machine()
        m.post_receive(ReceiveRequest(source=0, tag=0))
        m.deliver(MessageEnvelope(source=0, tag=0))
        m.run()
        assert m.report.host_matching_cycles == 0.0

    def test_conflicts_cost_more_than_clean_runs(self):
        def cycles(same_key: bool):
            m = machine(early_booking_check=False)
            for i in range(32):
                m.post_receive(
                    ReceiveRequest(source=0, tag=0 if same_key else i)
                )
            for i in range(32):
                m.deliver(
                    MessageEnvelope(source=0, tag=0 if same_key else i, send_seq=i)
                )
            m.run()
            return m.report.dpa_cycles

        assert cycles(same_key=True) > cycles(same_key=False)

    def test_block_history_optional(self):
        m = DpaMachine(
            EngineConfig(bins=16, block_threads=4, max_receives=128),
            keep_history=True,
        )
        for i in range(8):
            m.deliver(MessageEnvelope(source=0, tag=0, send_seq=i))
        m.run()
        assert len(m.report.per_block_cycles) == 2

    def test_memory_model_attached(self):
        m = machine(bins=128, max_receives=8192)
        assert m.memory.total_bytes() > 0

    def test_mean_cycles_per_message(self):
        m = machine()
        m.deliver(MessageEnvelope(source=0, tag=0))
        m.run()
        assert m.report.mean_cycles_per_message() == m.report.dpa_cycles
