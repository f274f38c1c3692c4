"""Tests for wire, queue pairs, completion queues, bounce buffers."""

import pytest

from repro.rdma import (
    BounceBufferPool,
    BouncePoolExhausted,
    CompletionQueue,
    CompletionQueueOverflow,
    Packet,
    QueuePair,
    Wire,
)


class TestWire:
    def test_fifo_per_direction(self):
        wire = Wire("a", "b")
        wire.transmit("a", Packet("send", 1))
        wire.transmit("a", Packet("send", 2))
        assert wire.receive("b").payload == 1
        assert wire.receive("b").payload == 2
        assert wire.receive("b") is None

    def test_directions_independent(self):
        wire = Wire("a", "b")
        wire.transmit("a", Packet("send", "to-b"))
        wire.transmit("b", Packet("send", "to-a"))
        assert wire.receive("a").payload == "to-a"
        assert wire.receive("b").payload == "to-b"

    def test_drain(self):
        wire = Wire("a", "b")
        for i in range(3):
            wire.transmit("a", Packet("send", i))
        assert [p.payload for p in wire.drain("b")] == [0, 1, 2]
        assert wire.endpoint("b").pending() == 0

    def test_unknown_endpoint(self):
        with pytest.raises(KeyError):
            Wire("a", "b").peer_of("c")

    def test_duplicate_endpoint_names_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Wire("a", "a")

    def test_peer_lookup_is_symmetric(self):
        wire = Wire("left", "right")
        assert wire.peer_of("left").name == "right"
        assert wire.peer_of("right").name == "left"
        assert wire.names == ("left", "right")


class TestCompletionQueue:
    def test_sequence_numbers_are_arrival_order(self):
        cq = CompletionQueue()
        first = cq.push("send", "x")
        second = cq.push("send", "y")
        assert first.index == 0 and second.index == 1
        assert cq.poll() is first

    def test_overflow(self):
        cq = CompletionQueue(depth=1)
        cq.push("send", "x")
        with pytest.raises(CompletionQueueOverflow):
            cq.push("send", "y")

    def test_poll_empty(self):
        assert CompletionQueue().poll() is None


class TestBouncePool:
    def test_allocate_release_cycle(self):
        pool = BounceBufferPool(2, buffer_bytes=64)
        a = pool.allocate()
        b = pool.allocate()
        assert pool.in_use == 2
        with pytest.raises(BouncePoolExhausted):
            pool.allocate()
        pool.release(a)
        c = pool.allocate()
        assert c.index == a.index
        assert pool.high_water == 2
        del b

    def test_write_respects_capacity(self):
        pool = BounceBufferPool(1, buffer_bytes=4)
        buf = pool.allocate()
        buf.write(b"abcd")
        with pytest.raises(ValueError):
            buf.write(b"abcde")

    def test_release_clears_data(self):
        pool = BounceBufferPool(1)
        buf = pool.allocate()
        buf.write(b"secret")
        pool.release(buf)
        assert buf.read() == b""

    def test_double_release_rejected(self):
        pool = BounceBufferPool(1)
        buf = pool.allocate()
        pool.release(buf)
        with pytest.raises(ValueError):
            pool.release(buf)


class TestQueuePair:
    def test_send_generates_completion_with_bounce(self):
        wire = Wire("tx", "rx")
        tx = QueuePair(wire, "tx")
        rx = QueuePair(wire, "rx")
        tx.post_send("send", {"tag": 1}, b"payload")
        completions = rx.poll()
        assert len(completions) == 1
        staged = completions[0].payload
        assert staged.header == {"tag": 1}
        assert staged.bounce.read() == b"payload"

    def test_rdma_read_round_trip(self):
        wire = Wire("tx", "rx")
        tx = QueuePair(wire, "tx")
        rx = QueuePair(wire, "rx")
        region = tx.memory.register(b"big-data")
        rx.rdma_read(region.rkey, token=42)
        tx.process_inbound()  # sender NIC serves the read
        completions = rx.poll()
        assert completions[0].opcode == "read_response"
        assert completions[0].payload == (42, b"big-data")

    def test_read_unknown_rkey_fails_at_target(self):
        wire = Wire("tx", "rx")
        tx = QueuePair(wire, "tx")
        rx = QueuePair(wire, "rx")
        rx.rdma_read(999, token=0)
        with pytest.raises(KeyError):
            tx.process_inbound()

    def test_ack(self):
        wire = Wire("tx", "rx")
        tx = QueuePair(wire, "tx")
        rx = QueuePair(wire, "rx")
        rx.post_ack("done")
        completions = tx.poll()
        assert completions[0].opcode == "ack"
        assert completions[0].payload == "done"

    def test_poll_drains_up_to_limit_in_order(self):
        rx = QueuePair(Wire("tx", "rx"), "rx")
        for i in range(5):
            rx.cq.push("send", i)
        assert [c.payload for c in rx.poll(limit=3)] == [0, 1, 2]
        assert len(rx.cq) == 2
        assert [c.payload for c in rx.poll(limit=3)] == [3, 4]

    def test_unknown_opcode_rejected(self):
        wire = Wire("tx", "rx")
        rx = QueuePair(wire, "rx")
        wire.transmit("tx", Packet("bogus", None))
        with pytest.raises(ValueError, match="opcode"):
            rx.process_inbound()
