"""Tests for message framing (repro.rpc.protocol)."""

import pytest

from repro.errors import RPCError
from repro.rpc.protocol import (
    HEADER_BYTES,
    PROCEDURES,
    MessageType,
    ReplyStatus,
    RPCMessage,
    procedure_name,
    procedure_number,
    split_frames,
)


class TestProcedureTable:
    def test_numbers_are_unique(self):
        numbers = list(PROCEDURES.values())
        assert len(numbers) == len(set(numbers))

    def test_name_number_round_trip(self):
        for name, number in PROCEDURES.items():
            assert procedure_number(name) == number
            assert procedure_name(number) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(RPCError):
            procedure_number("domain.levitate")

    def test_unknown_number_rejected(self):
        with pytest.raises(RPCError):
            procedure_name(999999)


class TestMessage:
    def test_pack_unpack_round_trip(self):
        msg = RPCMessage(
            procedure_number("domain.create"),
            MessageType.CALL,
            serial=7,
            body={"name": "web1", "flags": 0},
        )
        rebuilt = RPCMessage.unpack(msg.pack())
        assert rebuilt.procedure == msg.procedure
        assert rebuilt.mtype == MessageType.CALL
        assert rebuilt.serial == 7
        assert rebuilt.status == ReplyStatus.OK
        assert rebuilt.body == {"name": "web1", "flags": 0}

    def test_error_reply_round_trip(self):
        msg = RPCMessage(
            5, MessageType.REPLY, 3, ReplyStatus.ERROR, {"code": 10, "message": "gone"}
        )
        rebuilt = RPCMessage.unpack(msg.pack())
        assert rebuilt.status == ReplyStatus.ERROR
        assert rebuilt.body["code"] == 10

    def test_none_body(self):
        msg = RPCMessage(1, MessageType.CALL, 1)
        assert RPCMessage.unpack(msg.pack()).body is None

    def test_length_prefix_matches(self):
        data = RPCMessage(1, MessageType.CALL, 1, body="x").pack()
        assert int.from_bytes(data[:4], "big") == len(data)

    def test_short_buffer_rejected(self):
        with pytest.raises(RPCError, match="short message"):
            RPCMessage.unpack(b"\x00\x00")

    def test_wrong_length_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[3] += 1  # corrupt the length word
        with pytest.raises(RPCError, match="frame length"):
            RPCMessage.unpack(bytes(data))

    def test_wrong_program_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[4] = 0xFF
        with pytest.raises(RPCError, match="unknown program"):
            RPCMessage.unpack(bytes(data))

    def test_wrong_version_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[11] = 9
        with pytest.raises(RPCError, match="unsupported protocol version"):
            RPCMessage.unpack(bytes(data))

    def test_bad_type_rejected(self):
        data = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        data[19] = 9
        with pytest.raises(RPCError, match="bad message type"):
            RPCMessage.unpack(bytes(data))


class TestFraming:
    def test_split_exact_frames(self):
        a = RPCMessage(1, MessageType.CALL, 1, body="a").pack()
        b = RPCMessage(2, MessageType.CALL, 2, body="b").pack()
        frames, rest = split_frames(a + b)
        assert frames == [a, b]
        assert rest == b""

    def test_split_partial_frame_buffered(self):
        a = RPCMessage(1, MessageType.CALL, 1, body="a").pack()
        b = RPCMessage(2, MessageType.CALL, 2, body="b").pack()
        stream = a + b[: len(b) // 2]
        frames, rest = split_frames(stream)
        assert frames == [a]
        assert rest == b[: len(b) // 2]
        frames2, rest2 = split_frames(rest + b[len(b) // 2 :])
        assert frames2 == [b]
        assert rest2 == b""

    def test_split_tiny_prefix(self):
        frames, rest = split_frames(b"\x00\x00")
        assert frames == []
        assert rest == b"\x00\x00"

    def test_insane_length_rejected(self):
        with pytest.raises(RPCError, match="insane frame length"):
            split_frames(b"\x00\x00\x00\x01rest")

    def test_header_size_constant(self):
        data = RPCMessage(1, MessageType.CALL, 1).pack()
        # body is encode_value(None) == 4 bytes
        assert len(data) == HEADER_BYTES + 4


class TestFramingBoundaries:
    """Edge geometry: frames at the size cap, torn headers, and STREAM
    frames threaded between out-of-order replies."""

    def test_frame_exactly_at_max_message(self):
        from repro.rpc.protocol import MAX_MESSAGE, peek_message_type
        from repro.stream import stream_frame

        probe = stream_frame(1, 1, ReplyStatus.CONTINUE, b"")
        overhead = len(probe)
        frame = stream_frame(1, 1, ReplyStatus.CONTINUE, b"\xaa" * (MAX_MESSAGE - overhead))
        assert len(frame) == MAX_MESSAGE
        frames, rest = split_frames(frame)
        assert frames == [frame]
        assert rest == b""
        message = RPCMessage.unpack(memoryview(frame))
        assert peek_message_type(frame) == MessageType.STREAM
        assert len(message.body) == MAX_MESSAGE - overhead

    def test_frame_one_byte_over_the_cap_rejected(self):
        from repro.rpc.protocol import MAX_MESSAGE
        from repro.stream import stream_frame

        overhead = len(stream_frame(1, 1, ReplyStatus.CONTINUE, b""))
        with pytest.raises(RPCError, match="too large"):
            stream_frame(1, 1, ReplyStatus.CONTINUE, b"\xaa" * (MAX_MESSAGE - overhead + 1))

    def test_split_rejects_length_word_over_the_cap(self):
        from repro.rpc.protocol import MAX_MESSAGE

        header = (MAX_MESSAGE + 1).to_bytes(4, "big") + b"\x00" * 24
        with pytest.raises(RPCError, match="insane frame length"):
            split_frames(header)

    def test_truncated_header_is_buffered_not_parsed(self):
        frame = RPCMessage(1, MessageType.CALL, 1, body="x").pack()
        for cut in range(1, HEADER_BYTES):
            frames, rest = split_frames(frame[:cut])
            assert frames == []
            assert rest == frame[:cut]

    def test_unpack_rejects_truncated_header(self):
        frame = RPCMessage(1, MessageType.CALL, 1, body="x").pack()
        with pytest.raises(RPCError, match="short message"):
            RPCMessage.unpack(frame[: HEADER_BYTES - 1])

    def test_peek_returns_none_on_short_or_garbage_input(self):
        from repro.rpc.protocol import peek_message_type

        assert peek_message_type(b"\x00" * (HEADER_BYTES - 1)) is None
        garbage = bytearray(RPCMessage(1, MessageType.CALL, 1).pack())
        garbage[16:20] = (99).to_bytes(4, "big")
        assert peek_message_type(bytes(garbage)) is None

    def test_stream_frame_interleaved_between_out_of_order_replies(self):
        from repro.rpc.protocol import peek_message_type
        from repro.stream import stream_frame

        reply2 = RPCMessage(
            1, MessageType.REPLY, 2, ReplyStatus.OK, body="second"
        ).pack()
        chunk = stream_frame(5, 1, ReplyStatus.CONTINUE, b"stream bytes")
        reply1 = RPCMessage(
            1, MessageType.REPLY, 1, ReplyStatus.OK, body="first"
        ).pack()
        wire = reply2 + chunk + reply1
        # tear at an arbitrary boundary inside the stream frame
        frames, rest = split_frames(wire[: len(reply2) + 10])
        assert frames == [reply2]
        frames2, rest2 = split_frames(rest + wire[len(reply2) + 10 :])
        assert frames2 == [chunk, reply1]
        assert rest2 == b""
        types = [peek_message_type(f) for f in (reply2, chunk, reply1)]
        assert types == [MessageType.REPLY, MessageType.STREAM, MessageType.REPLY]
        # the demux routes on (type, serial): serial survives the peek path
        decoded = [RPCMessage.unpack(f) for f in frames + frames2]
        assert [(m.mtype, m.serial) for m in decoded] == [
            (MessageType.REPLY, 2),
            (MessageType.STREAM, 1),
            (MessageType.REPLY, 1),
        ]
        assert bytes(decoded[1].body) == b"stream bytes"


class TestGatherFrame:
    """``RPCMessage.gather`` is the buffers ``pack`` joins, and ``unpack``
    of those buffers decodes exactly what ``unpack`` of the join does."""

    @staticmethod
    def data_frame(size):
        payload = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        return RPCMessage(7, MessageType.STREAM, 3, ReplyStatus.CONTINUE, payload).gather()

    @staticmethod
    def fields(message):
        body = bytes(message.body) if isinstance(message.body, memoryview) else message.body
        return (
            message.program, message.version, message.procedure, message.mtype,
            message.serial, message.status, body, message.trace,
        )

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 4096])
    def test_gather_joins_to_pack(self, size):
        gather = self.data_frame(size)
        message = RPCMessage.unpack(gather)
        assert b"".join(gather) == RPCMessage(
            7, MessageType.STREAM, 3, ReplyStatus.CONTINUE, gather[2]
        ).pack()
        assert isinstance(message.body, memoryview) and message.body.obj is gather[2]
        assert self.fields(message) == self.fields(RPCMessage.unpack(b"".join(gather)))

    def test_any_other_shape_decodes_as_its_join(self):
        for message in (
            RPCMessage(1, MessageType.REPLY, 2, body={"a": [1, "x"]}),
            RPCMessage(1, MessageType.CALL, 2, body=b"abc", trace={"trace_id": 1, "span_id": 2}),
            RPCMessage(1, MessageType.EVENT, 2, body="text"),
        ):
            gather = message.gather()
            assert self.fields(RPCMessage.unpack(gather)) == self.fields(RPCMessage.unpack(message.pack()))

    # (byte offset of the word in a 5-byte data frame, value written there)
    CORRUPTIONS = [
        *((0, v) for v in (0, 44, 48, 0xFFFFFFFF)),  # length
        *((4, v) for v in (0, 0x20008087, 0x6B656570)),  # program
        *((8, v) for v in (0, 2)),  # version
        *((12, v) for v in (0, 8, 0xFFFFFFFF)),  # procedure
        *((16, v) for v in (0, 1, 2, 4, 99)),  # type
        *((20, v) for v in (0, 0xFFFFFFFF)),  # serial
        *((24, v) for v in (0, 1, 3)),  # status
        *((28, v) for v in range(11)),  # value tag
        *((32, v) for v in (0, 1, 4, 6, 7, 0xFFFFFFFF)),  # opaque length word
    ]

    @pytest.mark.parametrize("offset,value", CORRUPTIONS)
    def test_a_corrupt_word_fails_or_decodes_as_the_join_does(self, offset, value):
        frame = bytearray(b"".join(self.data_frame(5)))
        frame[offset : offset + 4] = value.to_bytes(4, "big")
        self.assert_same_verdict(frame)

    @pytest.mark.parametrize("pad_byte", [0, 1, 2])
    def test_a_nonzero_pad_byte_fails_as_the_join_does(self, pad_byte):
        frame = bytearray(b"".join(self.data_frame(5)))
        frame[HEADER_BYTES + 8 + 5 + pad_byte] = 0x01
        with pytest.raises(RPCError, match="non-zero XDR padding"):
            RPCMessage.unpack(bytes(frame))
        self.assert_same_verdict(frame)

    def assert_same_verdict(self, frame):
        # split where the sender's buffers meet: header, tag + length, payload, pad
        cuts = (0, HEADER_BYTES, HEADER_BYTES + 8, HEADER_BYTES + 8 + 5, len(frame))
        gather = [bytes(frame[a:b]) for a, b in zip(cuts, cuts[1:])]
        try:
            joined = self.fields(RPCMessage.unpack(bytes(frame)))
        except RPCError:
            with pytest.raises(RPCError):
                RPCMessage.unpack(gather)
        else:
            assert self.fields(RPCMessage.unpack(gather)) == joined
