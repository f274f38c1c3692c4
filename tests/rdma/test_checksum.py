"""``packet_checksum``: a CRC over a canonical image of every field."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdma.protocol import MessageHeader
from repro.rdma.wire import Packet, packet_checksum

small = st.integers(0, 2**31 - 1)
hash_words = st.integers(0, 2**64 - 1)
headers = st.builds(
    MessageHeader,
    source=small,
    tag=small,
    comm=small,
    size=small,
    send_seq=small,
    protocol=st.sampled_from(["eager", "rndv"]),
    rkey=small,
    inline_hashes=st.none() | st.tuples(hash_words, hash_words, hash_words),
    mid=st.integers(-1, 2**31 - 1),
)
#: What ReliableWire checksums for one data frame: (psn, inner packet).
frames = st.tuples(
    small,
    st.builds(
        Packet,
        opcode=st.sampled_from(["send", "rts"]),
        payload=st.tuples(headers, st.binary(max_size=64)),
        size=small,
    ),
)


def _other(value, draw):
    """A value of ``value``'s kind that differs from it."""
    if isinstance(value, bool) or value is None:
        return (1, 2, 3)
    if isinstance(value, int):
        return value + draw(st.integers(1, 1000))
    if isinstance(value, str):
        return value + draw(st.sampled_from(["x", "_v2"]))
    if isinstance(value, tuple):  # inline hashes
        index = draw(st.integers(0, len(value) - 1))
        return value[:index] + (value[index] ^ draw(st.integers(1, 2**64 - 1)),) + value[index + 1 :]
    raise AssertionError(f"no mutation for {value!r}")


class TestEveryFieldIsCovered:
    @given(frame=frames, data=st.data())
    def test_changing_any_single_field_changes_the_checksum(self, frame, data):
        psn, inner = frame
        header, payload = inner.payload
        draw = data.draw
        field = draw(
            st.sampled_from(
                ["psn", "opcode", "size"] + [f.name for f in dataclasses.fields(MessageHeader)]
            )
        )
        if field == "psn":
            changed = (_other(psn, draw), inner)
        elif field in ("opcode", "size"):
            changed = (psn, dataclasses.replace(inner, **{field: _other(getattr(inner, field), draw)}))
        else:
            mutated = dataclasses.replace(header, **{field: _other(getattr(header, field), draw)})
            changed = (psn, dataclasses.replace(inner, payload=(mutated, payload)))
        assert packet_checksum("rc_data", changed) != packet_checksum("rc_data", frame)

    @given(frame=frames.filter(lambda frame: frame[1].payload[1]), data=st.data())
    def test_changing_any_payload_byte_changes_the_checksum(self, frame, data):
        psn, inner = frame
        header, payload = inner.payload
        index = data.draw(st.integers(0, len(payload) - 1))
        flipped = bytearray(payload)
        flipped[index] ^= data.draw(st.integers(1, 255))
        changed = (psn, dataclasses.replace(inner, payload=(header, bytes(flipped))))
        assert packet_checksum("rc_data", changed) != packet_checksum("rc_data", frame)

    @given(frame=frames)
    def test_equal_frames_built_apart_agree_and_the_opcode_counts(self, frame):
        psn, inner = frame
        header, payload = inner.payload
        rebuilt = (
            psn,
            Packet(inner.opcode, (dataclasses.replace(header), bytes(payload)), inner.size),
        )
        assert packet_checksum("rc_data", rebuilt) == packet_checksum("rc_data", frame)
        assert packet_checksum("rc_nak", frame) != packet_checksum("rc_data", frame)

    def test_boundaries_between_fields_are_part_of_the_image(self):
        assert packet_checksum("f", (b"ab", b"c")) != packet_checksum("f", (b"a", b"bc"))
        assert packet_checksum("f", ((1, 2), 3)) != packet_checksum("f", (1, (2, 3)))
        assert packet_checksum("f", (1, 2)) != packet_checksum("f", ("1", 2))
        assert packet_checksum("f", {"credits": 1, "total": 2}) != packet_checksum(
            "f", {"credits": 2, "total": 1}
        )


class TestNoReprTakesPart:
    def test_a_field_the_repr_hides_is_still_covered(self):
        @dataclasses.dataclass(frozen=True)
        class Quiet:
            seq: int
            note: str = dataclasses.field(default="", repr=False)

            def __repr__(self) -> str:
                return "Quiet(...)"

        assert repr(Quiet(1, "a")) == repr(Quiet(2, "b"))
        assert packet_checksum("send", (Quiet(1, "a"), b"")) != packet_checksum(
            "send", (Quiet(2, "a"), b"")
        )
        assert packet_checksum("send", (Quiet(1, "a"), b"")) != packet_checksum(
            "send", (Quiet(1, "b"), b"")
        )

    def test_a_payload_with_no_canonical_image_is_refused(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="Opaque"):
            packet_checksum("send", (Opaque(), b""))
