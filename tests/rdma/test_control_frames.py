"""RC control frames are interned values; their CRC is memoised by value.

``control_frame(opcode, psn)`` hands every sender of the same two
scalars one shared frozen ``Packet``, and ``packet_checksum`` of a bare
int is computed once per (opcode, int). Neither may let an altered
frame through: the receiver recomputes from the opcode and PSN *it
received*, so a frame whose opcode, PSN or checksum changed in transit
fails the compare exactly as it did when every frame was imaged afresh.
"""

import dataclasses
import marshal
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdma.faultwire import FaultPlan, FaultyWire
from repro.rdma.reliability import ReliableWire
from repro.rdma.wire import Packet, Wire, control_frame, packet_checksum

CONTROL = ("rc_ack", "rc_nak", "rc_rnr")
opcodes = st.sampled_from(CONTROL)
psns = st.integers(0, 2**40)


def _crc(opcode, value) -> int:
    """The checksum from first principles, no memo involved."""
    return zlib.crc32(marshal.dumps([opcode, value], 0))


class TestByValue:
    @given(opcode=opcodes, psn=psns)
    def test_interned_frame_carries_the_true_checksum(self, opcode, psn):
        frame = control_frame(opcode, psn)
        assert frame is control_frame(opcode, psn)
        assert (frame.opcode, frame.payload, frame.size) == (opcode, psn, 0)
        assert frame.checksum == _crc(opcode, psn) == packet_checksum(opcode, psn)

    @given(opcode=opcodes, psn=psns, delta=st.integers(1, 2**20), flip=st.integers(1, 2**32 - 1))
    def test_memo_never_vouches_for_an_altered_frame(self, opcode, psn, delta, flip):
        frame = control_frame(opcode, psn)
        other_opcode = CONTROL[(CONTROL.index(opcode) + 1) % len(CONTROL)]
        # Warm the memo with every value an alteration lands on, so a
        # hit is what answers below.
        for warm_opcode in CONTROL:
            for warm_psn in (psn, psn + delta):
                packet_checksum(warm_opcode, warm_psn)
        altered = [
            dataclasses.replace(frame, opcode=other_opcode),
            dataclasses.replace(frame, payload=psn + delta),
            dataclasses.replace(frame, checksum=frame.checksum ^ flip),
        ]
        for bad in altered:
            recomputed = packet_checksum(bad.opcode, bad.payload)
            assert recomputed == _crc(bad.opcode, bad.payload)
            assert bad.checksum != recomputed
        # The shared original is what it was.
        assert frame.checksum == packet_checksum(frame.opcode, frame.payload)

    def test_memo_is_keyed_on_plain_ints_only(self):
        """``True == 1 == 1.0`` hash alike; their images differ, so
        only a real int may take the memoised path."""
        assert packet_checksum("rc_ack", 1) == _crc("rc_ack", 1)
        assert packet_checksum("rc_ack", True) == _crc("rc_ack", True)
        assert packet_checksum("rc_ack", 1.0) == _crc("rc_ack", 1.0)
        assert len({packet_checksum("rc_ack", v) for v in (1, True, 1.0)}) == 3

    def test_interned_frame_cannot_be_mutated(self):
        frame = control_frame("rc_ack", 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.checksum = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.payload = 8


class TestAtTheReceiver:
    @given(opcode=opcodes, psn=st.integers(0, 64), which=st.sampled_from(["opcode", "psn", "checksum"]))
    def test_reliable_wire_drops_an_altered_control_frame(self, opcode, psn, which):
        wire = ReliableWire(Wire("a", "b"))
        frame = control_frame(opcode, psn)
        bad = {
            "opcode": dataclasses.replace(frame, opcode="rc_nak" if opcode != "rc_nak" else "rc_ack"),
            "psn": dataclasses.replace(frame, payload=psn + 1),
            "checksum": dataclasses.replace(frame, checksum=frame.checksum ^ 0x5A5A5A5A),
        }[which]
        wire.raw.transmit("a", bad)
        assert wire.receive("b") is None
        assert wire.stats.corrupt_dropped == 1
        # ... and the good one is accepted by the same receiver.
        wire.raw.transmit("a", frame)
        assert wire.receive("b") is None
        assert wire.stats.corrupt_dropped == 1

    def test_faulty_wire_corrupts_a_copy_not_the_shared_frame(self):
        raw = FaultyWire("a", "b", plan=FaultPlan(seed=3, corrupt_rate=1.0))
        frame = control_frame("rc_ack", 5)
        before = (frame.opcode, frame.payload, frame.size, frame.checksum)
        raw.transmit("a", frame)
        received = raw.receive("b")
        assert received is not frame
        assert received.checksum != packet_checksum(received.opcode, received.payload)
        assert (frame.opcode, frame.payload, frame.size, frame.checksum) == before
        assert control_frame("rc_ack", 5) is frame

    def test_lost_ack_recovery_still_works_with_shared_frames(self):
        """A corrupted ACK is dropped, the sender times out and
        retransmits, the duplicate is re-acked with the same interned
        frame, and the window closes."""
        raw = FaultyWire("a", "b", plan=FaultPlan.clean())
        wire = ReliableWire(raw)
        wire.transmit("a", Packet("send", ("h", b"x"), 1))
        raw.plan = FaultPlan(seed=1, corrupt_rate=1.0)
        assert wire.receive("b").payload == ("h", b"x")  # ACK goes out corrupted
        raw.plan = FaultPlan.clean()
        for _ in range(64):
            wire.receive("a")
            wire.receive("b")
            if not wire.in_flight():
                break
        assert wire.in_flight() == 0
        assert wire.stats.corrupt_dropped == 1 and wire.stats.retransmits >= 1
        assert wire.stats.duplicates_dropped >= 1
