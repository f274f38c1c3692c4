"""End-to-end tests of the eager/rendezvous protocols over the
simulated RDMA link, driven through the optimistic matcher."""

import pytest

from repro.core import ANY_SOURCE, EngineConfig, OptimisticMatcher, ReceiveRequest
from repro.rdma import QueuePair, RdmaReceiver, RdmaSender, Wire, pump


@pytest.fixture
def link():
    wire = Wire("tx", "rx")
    tx = QueuePair(wire, "tx")
    rx = QueuePair(wire, "rx")
    sender = RdmaSender(tx, rank=0, eager_threshold=64)
    matcher = OptimisticMatcher(EngineConfig(bins=8, block_threads=4, max_receives=256))
    receiver = RdmaReceiver(rx, matcher)
    return sender, receiver, tx


class TestEager:
    def test_expected_eager_delivery(self, link):
        sender, receiver, tx = link
        receiver.post_receive(ReceiveRequest(source=0, tag=1, handle=7))
        sender.send(tag=1, payload=b"hello")
        pump(receiver, tx)
        (delivery,) = receiver.completed
        assert delivery.handle == 7
        assert delivery.payload == b"hello"
        assert delivery.protocol == "eager"
        assert not delivery.unexpected

    def test_unexpected_eager_then_drain(self, link):
        sender, receiver, tx = link
        sender.send(tag=3, payload=b"early")
        pump(receiver, tx)
        assert receiver.completed == []
        receiver.post_receive(ReceiveRequest(source=0, tag=3, handle=9))
        (delivery,) = receiver.completed
        assert delivery.unexpected
        assert delivery.payload == b"early"

    def test_bounce_buffers_recycled(self, link):
        sender, receiver, tx = link
        for i in range(50):
            receiver.post_receive(ReceiveRequest(source=0, tag=i, handle=i))
            sender.send(tag=i, payload=b"x" * 32)
            pump(receiver, tx)
        assert receiver.qp.bounce_pool.in_use == 0
        assert len(receiver.completed) == 50

    def test_zero_byte_message(self, link):
        sender, receiver, tx = link
        receiver.post_receive(ReceiveRequest(source=0, tag=0, handle=1))
        sender.send(tag=0, payload=b"")
        pump(receiver, tx)
        (delivery,) = receiver.completed
        assert delivery.payload == b""


class TestSpillStaged:
    """``spill_staged`` moves an unexpected eager payload bounce->host."""

    def test_eager_payload_moves_to_host_and_frees_the_buffer(self, link):
        sender, receiver, tx = link
        sender.send(tag=3, payload=b"early")
        pump(receiver, tx)
        pool = receiver.qp.bounce_pool
        assert pool.in_use == 1
        assert receiver.spill_staged(0)  # tokens count from 0
        assert pool.in_use == 0
        receiver.post_receive(ReceiveRequest(source=0, tag=3, handle=9))
        (delivery,) = receiver.completed
        assert delivery.payload == b"early"
        assert receiver.host_staged_deliveries == 1
        assert pool.in_use == 0  # not released a second time

    def test_second_spill_of_the_same_token_is_a_noop(self, link):
        sender, receiver, tx = link
        sender.send(tag=3, payload=b"early")
        pump(receiver, tx)
        assert receiver.spill_staged(0)
        assert not receiver.spill_staged(0)  # already host-staged
        assert receiver.qp.bounce_pool.in_use == 0

    def test_rendezvous_and_unknown_tokens_are_noops(self, link):
        sender, receiver, tx = link
        sender.send(tag=4, payload=b"x" * 200)  # > 64 B: header-only RTS
        pump(receiver, tx)
        in_use = receiver.qp.bounce_pool.in_use
        assert not receiver.spill_staged(0)
        assert not receiver.spill_staged(99)
        assert receiver.qp.bounce_pool.in_use == in_use
        receiver.post_receive(ReceiveRequest(source=0, tag=4, handle=1))
        pump(receiver, tx)
        (delivery,) = receiver.completed
        assert delivery.protocol == "rndv" and delivery.payload == b"x" * 200
        assert receiver.host_staged_deliveries == 0


class TestRendezvous:
    def test_expected_rendezvous(self, link):
        sender, receiver, tx = link
        receiver.post_receive(ReceiveRequest(source=0, tag=2, handle=11))
        big = bytes(range(256)) * 16  # > 64 B threshold
        sender.send(tag=2, payload=big)
        pump(receiver, tx)
        (delivery,) = receiver.completed
        assert delivery.protocol == "rndv"
        assert delivery.payload == big

    def test_unexpected_rendezvous_drain(self, link):
        sender, receiver, tx = link
        big = b"z" * 1000
        sender.send(tag=5, payload=big)
        pump(receiver, tx)
        receiver.post_receive(ReceiveRequest(source=0, tag=5, handle=12))
        pump(receiver, tx)
        (delivery,) = receiver.completed
        assert delivery.payload == big
        assert delivery.protocol == "rndv"

    def test_threshold_selects_protocol(self, link):
        sender, receiver, tx = link
        receiver.post_receive(ReceiveRequest(source=0, tag=1, handle=1))
        receiver.post_receive(ReceiveRequest(source=0, tag=2, handle=2))
        header_small = sender.send(tag=1, payload=b"x" * 64)
        header_big = sender.send(tag=2, payload=b"x" * 65)
        assert header_small.protocol == "eager"
        assert header_big.protocol == "rndv"
        pump(receiver, tx)
        assert {d.protocol for d in receiver.completed} == {"eager", "rndv"}


class TestOrderingAcrossProtocols:
    def test_wildcard_receive_takes_arrival_order(self, link):
        sender, receiver, tx = link
        sender.send(tag=1, payload=b"first")
        sender.send(tag=2, payload=b"second")
        pump(receiver, tx)
        receiver.post_receive(ReceiveRequest(source=ANY_SOURCE, tag=-1, handle=1))
        (delivery,) = receiver.completed
        assert delivery.payload == b"first"

    def test_burst_matches_in_send_order(self, link):
        sender, receiver, tx = link
        for i in range(12):
            receiver.post_receive(ReceiveRequest(source=0, tag=0, handle=i))
        for i in range(12):
            sender.send(tag=0, payload=bytes([i]))
        pump(receiver, tx)
        handles = [d.handle for d in receiver.completed]
        payloads = [d.payload[0] for d in receiver.completed]
        assert handles == sorted(handles)
        assert payloads == sorted(payloads)

    def test_inline_hashes_travel_in_header(self, link):
        sender, receiver, tx = link
        header = sender.send(tag=4, payload=b"h")
        assert header.inline_hashes is not None

    def test_inline_hashes_can_be_disabled(self):
        wire = Wire("tx", "rx")
        sender = RdmaSender(QueuePair(wire, "tx"), rank=0, inline_hashes=False)
        header = sender.send(tag=0, payload=b"")
        assert header.inline_hashes is None
