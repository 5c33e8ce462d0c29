"""Property-based tests: XDR serialization invariants (hypothesis)."""

import struct
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import RPCError
from repro.rpc.protocol import (
    HEADER_BYTES,
    MAX_MESSAGE,
    MessageType,
    ReplyStatus,
    RPCMessage,
    peek_message_type,
    split_frames,
)
from repro.rpc.xdr import MAX_OPAQUE, XdrDecoder, XdrEncoder, decode_value, encode_value
from repro.util.typedparams import ParamType, TypedParameter, TypedParamList

# -- strategies ---------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=200),
    st.binary(max_size=200),
)

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.dictionaries(st.text(max_size=20), children, max_size=8),
    ),
    max_leaves=30,
)


def typed_param_strategy():
    def build(draw_type):
        field = st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=40,
        )
        if draw_type == ParamType.INT:
            value = st.integers(-(2**31), 2**31 - 1)
        elif draw_type == ParamType.UINT:
            value = st.integers(0, 2**32 - 1)
        elif draw_type == ParamType.LLONG:
            value = st.integers(-(2**63), 2**63 - 1)
        elif draw_type == ParamType.ULLONG:
            value = st.integers(0, 2**64 - 1)
        elif draw_type == ParamType.DOUBLE:
            value = st.floats(allow_nan=False, allow_infinity=False)
        elif draw_type == ParamType.BOOLEAN:
            value = st.booleans()
        else:
            value = st.text(max_size=80)
        return st.builds(TypedParameter, field, st.just(draw_type), value)

    return st.one_of([build(t) for t in ParamType])


class TestValueRoundTrip:
    @given(json_values)
    @settings(max_examples=300)
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(st.lists(typed_param_strategy(), min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_typed_params_round_trip(self, params):
        decoded = decode_value(encode_value(params))
        assert decoded == params
        assert all(p.type == q.type for p, q in zip(params, decoded))

    @given(json_values)
    def test_encoding_is_deterministic(self, value):
        assert encode_value(value) == encode_value(value)

    @given(json_values)
    def test_encoded_length_is_4_aligned(self, value):
        assert len(encode_value(value)) % 4 == 0

    @given(st.binary(min_size=1, max_size=64))
    def test_truncation_always_detected(self, garbage):
        """Decoding any strict prefix of a valid encoding fails cleanly."""
        data = encode_value({"k": garbage.decode("latin-1"), "n": 1})
        for cut in range(1, len(data)):
            with pytest.raises(RPCError):
                decode_value(data[:cut])


class TestPrimitiveRoundTrip:
    @given(st.integers(-(2**31), 2**31 - 1))
    def test_int(self, value):
        enc = XdrEncoder().pack_int(value)
        dec = XdrDecoder(enc.data())
        assert dec.unpack_int() == value
        dec.done()

    @given(st.integers(0, 2**64 - 1))
    def test_uhyper(self, value):
        enc = XdrEncoder().pack_uhyper(value)
        assert XdrDecoder(enc.data()).unpack_uhyper() == value

    @given(st.floats(allow_nan=False))
    def test_double(self, value):
        enc = XdrEncoder().pack_double(value)
        assert XdrDecoder(enc.data()).unpack_double() == value

    @given(st.text(max_size=500))
    def test_string(self, value):
        enc = XdrEncoder().pack_string(value)
        assert XdrDecoder(enc.data()).unpack_string() == value

    @given(st.binary(max_size=500))
    def test_opaque_padding_invariant(self, value):
        enc = XdrEncoder().pack_opaque(value)
        assert len(enc.data()) % 4 == 0
        dec = XdrDecoder(enc.data())
        assert dec.unpack_opaque() == value
        dec.done()

    @given(
        st.binary(min_size=1, max_size=64).filter(lambda b: len(b) % 4),
        st.integers(1, 255),
    )
    def test_fixed_opaque_rejects_nonzero_padding(self, value, junk):
        """RFC 4506 §3: residual pad bytes MUST be zero.  A decoder
        that tolerates garbage padding lets corrupt frames slip by."""
        pad = (-len(value)) % 4
        dirty = value + bytes([junk]) * pad
        with pytest.raises(RPCError, match="non-zero XDR padding"):
            XdrDecoder(dirty).unpack_fixed_opaque(len(value))
        # the zero-padded form of the same payload decodes fine
        clean = value + b"\x00" * pad
        assert XdrDecoder(clean).unpack_fixed_opaque(len(value)) == value

    @given(
        st.binary(min_size=1, max_size=64).filter(lambda b: len(b) % 4),
        st.integers(1, 255),
    )
    def test_variable_opaque_rejects_nonzero_padding(self, value, junk):
        clean = XdrEncoder().pack_opaque(value).data()
        pad = (-len(value)) % 4
        dirty = clean[:-pad] + bytes([junk]) * pad
        with pytest.raises(RPCError, match="non-zero XDR padding"):
            XdrDecoder(dirty).unpack_opaque()


class TestTypedParamListTag:
    def test_empty_typed_params_keep_their_type(self):
        """Regression: an empty typed-parameter set used to XDR-encode
        as a generic empty list, so the receiver could no longer tell a
        typed-params payload from a plain [] — and handlers validating
        parameter fields got the wrong container type back."""
        decoded = decode_value(encode_value(TypedParamList()))
        assert isinstance(decoded, TypedParamList)
        assert decoded == []

    def test_empty_plain_list_stays_plain(self):
        decoded = decode_value(encode_value([]))
        assert decoded == []
        assert not isinstance(decoded, TypedParamList)

    @given(st.lists(typed_param_strategy(), max_size=6))
    @settings(max_examples=100)
    def test_typed_param_list_round_trip_any_size(self, params):
        decoded = decode_value(encode_value(TypedParamList(params)))
        assert isinstance(decoded, TypedParamList)
        assert decoded == params

    def test_mixed_content_rejected(self):
        with pytest.raises(RPCError, match="TypedParamList may only hold"):
            encode_value(TypedParamList([TypedParameter("a", ParamType.INT, 1), "rogue"]))


class TestMessageFraming:
    @given(
        st.sampled_from([MessageType.CALL, MessageType.REPLY, MessageType.EVENT]),
        st.sampled_from([ReplyStatus.OK, ReplyStatus.ERROR]),
        st.integers(0, 2**32 - 1),
        json_values,
    )
    @settings(max_examples=150)
    def test_message_round_trip(self, mtype, status, serial, body):
        msg = RPCMessage(1, mtype, serial, status, body)
        rebuilt = RPCMessage.unpack(msg.pack())
        assert rebuilt.mtype == mtype
        assert rebuilt.status == status
        assert rebuilt.serial == serial
        assert rebuilt.body == body

    @given(st.lists(json_values, min_size=1, max_size=6), st.data())
    @settings(max_examples=100)
    def test_frames_reassemble_from_any_chunking(self, bodies, data):
        """A frame stream split at arbitrary byte boundaries reassembles."""
        stream = b"".join(
            RPCMessage(1, MessageType.CALL, i, body=b).pack()
            for i, b in enumerate(bodies)
        )
        # split the stream into random chunks
        cut_points = sorted(
            data.draw(
                st.lists(
                    st.integers(0, len(stream)), min_size=0, max_size=6, unique=True
                )
            )
        )
        chunks = []
        prev = 0
        for cut in cut_points + [len(stream)]:
            chunks.append(stream[prev:cut])
            prev = cut
        frames = []
        buffer = b""
        for chunk in chunks:
            got, buffer = split_frames(buffer + chunk)
            frames.extend(got)
        assert buffer == b""
        assert len(frames) == len(bodies)
        for i, frame in enumerate(frames):
            assert RPCMessage.unpack(frame).body == bodies[i]


# -- decoder robustness ---------------------------------------------------------


def survives(data):
    """Feed ``data`` to every decoder entry point, as bytes and as a view.

    Each may accept it or raise ``RPCError``; anything else (``struct.error``,
    ``IndexError``, ``ValueError``, ``UnicodeDecodeError``, ``OverflowError``,
    ``RecursionError`` ...) propagates and fails the test.
    """
    for buffer in (data, memoryview(data)):
        for decode in (decode_value, RPCMessage.unpack):
            try:
                decode(buffer)
            except RPCError:
                pass
        assert peek_message_type(buffer) in (None, *MessageType)
    try:
        frames, rest = split_frames(data)
    except RPCError:
        return
    assert b"".join(frames) + rest == data


#: words a corrupt length/count/tag/type field is likely to hold
NASTY_WORDS = st.sampled_from(
    [0, 1, 2, 3, 9, 10, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, MAX_OPAQUE, MAX_OPAQUE + 1, MAX_MESSAGE + 1]
)

frame_bodies = st.one_of(
    json_values,
    st.lists(typed_param_strategy(), max_size=4).map(TypedParamList),
    st.fixed_dictionaries(
        {"name": st.text(max_size=12), "params": st.lists(typed_param_strategy(), min_size=1, max_size=3)}
    ),
)


@st.composite
def damaged_frames(draw):
    """A valid frame with one region mutated, truncated or extended."""
    trace = draw(st.one_of(st.none(), st.just({"trace_id": 7, "span_id": 9}), json_values))
    frame = RPCMessage(
        draw(st.integers(0, 200)),
        draw(st.sampled_from(list(MessageType))),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(list(ReplyStatus))),
        draw(frame_bodies),
        trace=trace,
    ).pack()
    at = draw(st.integers(0, len(frame)))
    how = draw(st.sampled_from(["flip", "word", "cut", "insert", "grow"]))
    if how == "flip" and at < len(frame):
        return frame[:at] + bytes([frame[at] ^ draw(st.integers(1, 255))]) + frame[at + 1 :]
    if how == "word":
        at -= at % 4
        return frame[:at] + struct.pack(">I", draw(NASTY_WORDS)) + frame[at + 4 :]
    if how == "cut":
        return frame[:at]
    if how == "insert":
        return frame[:at] + draw(st.binary(min_size=1, max_size=8)) + frame[at:]
    return frame + draw(st.binary(min_size=1, max_size=8))


class TestDecoderRobustness:
    @given(st.binary(max_size=256))
    @settings(max_examples=400)
    def test_arbitrary_bytes_raise_only_rpc_error(self, data):
        survives(data)

    @given(st.lists(NASTY_WORDS, max_size=12))
    @settings(max_examples=300)
    def test_arbitrary_nasty_words_raise_only_rpc_error(self, words):
        survives(struct.pack(f">{len(words)}I", *words))

    @given(damaged_frames())
    @settings(max_examples=600)
    def test_damaged_frames_raise_only_rpc_error(self, data):
        survives(data)

    @given(damaged_frames())
    @settings(max_examples=200)
    def test_a_frame_that_still_decodes_has_a_sane_shape(self, data):
        try:
            message = RPCMessage.unpack(data)
        except RPCError:
            return
        assert isinstance(message.mtype, MessageType) and isinstance(message.status, ReplyStatus)
        assert message.trace is None or set(message.trace) == {"trace_id", "span_id"}

    @pytest.mark.parametrize(
        "data, message",
        [
            (struct.pack(">II", 5, MAX_OPAQUE + 1), "opaque length .* exceeds limit"),
            (struct.pack(">II", 6, 0xFFFFFFFF), "opaque length .* exceeds limit"),
            (struct.pack(">II", 5, MAX_OPAQUE) + b"abcd", "XDR underrun"),
            (struct.pack(">II", 7, 0xFFFFFFFF), "XDR underrun"),
            (struct.pack(">III", 8, 0xFFFFFFFF, MAX_OPAQUE), "XDR underrun"),
            (struct.pack(">II", 9, 0xFFFFFFFF), "XDR underrun"),
        ],
    )
    def test_length_words_are_checked_before_anything_is_sized_by_them(self, data, message):
        """A corrupt length or count never becomes an allocation."""
        tracemalloc.start()
        try:
            with pytest.raises(RPCError, match=message):
                decode_value(data)
            with pytest.raises(RPCError, match=message):
                decode_value(memoryview(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_split_frames_checks_the_length_word_before_slicing(self):
        for length in (0, HEADER_BYTES - 1, MAX_MESSAGE + 1, 0xFFFFFFFF):
            with pytest.raises(RPCError, match="insane frame length"):
                split_frames(struct.pack(">I", length) + b"\x00" * 64)

    def test_deep_nesting_is_an_rpc_error_not_a_recursion_error(self):
        bomb = struct.pack(">II", 7, 1) * 50_000 + struct.pack(">I", 0)
        with pytest.raises(RPCError, match="nested too deeply"):
            decode_value(bomb)
        frame = struct.pack(">7I", HEADER_BYTES + len(bomb), 0x20008086, 1, 1, 0, 1, 0) + bomb
        with pytest.raises(RPCError, match="nested too deeply"):
            RPCMessage.unpack(frame)

    def test_typed_params_from_the_wire_are_validated(self):
        good = encode_value([TypedParameter("weight", ParamType.UINT, 5)])
        assert decode_value(good)[0].value == 5
        unknown_type = good[:-8] + struct.pack(">II", 99, 5)
        with pytest.raises(RPCError, match="bad typed parameter"):
            decode_value(unknown_type)
        no_field = struct.pack(">IIIII", 9, 1, 0, 2, 5)
        with pytest.raises(RPCError, match="bad typed parameter"):
            decode_value(no_field)
        not_a_bool = struct.pack(">II", 9, 1) + good[8:-8] + struct.pack(">II", 6, 2)
        with pytest.raises(RPCError, match="bool must be 0 or 1"):
            decode_value(not_a_bool)

    def test_decoder_messages_are_the_documented_ones(self):
        text = encode_value("abcde")
        with pytest.raises(RPCError, match="XDR underrun"):
            decode_value(text[:-4])
        with pytest.raises(RPCError, match="XDR underrun"):
            decode_value(encode_value(7)[:-1])
        with pytest.raises(RPCError, match="4 trailing bytes after XDR decode"):
            decode_value(text + b"\x00" * 4)
        with pytest.raises(RPCError, match="non-zero XDR padding"):
            decode_value(text[:-1] + b"\x01")
        with pytest.raises(RPCError, match="invalid UTF-8"):
            decode_value(struct.pack(">II", 5, 2) + b"\xff\xfe\x00\x00")
        with pytest.raises(RPCError, match="unknown XDR value tag 10"):
            decode_value(struct.pack(">I", 10))

    def test_cursor_decode_reads_in_place_and_advances(self):
        data = b"\xaa" * 8 + encode_value({"a": 1}) + encode_value("tail")
        cursor = XdrDecoder(memoryview(data), 8)
        assert decode_value(cursor) == {"a": 1}
        assert decode_value(cursor) == "tail"
        cursor.done()
        with pytest.raises(RPCError, match="XDR underrun"):
            decode_value(cursor)


class TestEncoderRangeErrors:
    """Out-of-range values are refused with the messages callers know."""

    @pytest.mark.parametrize("field", ["procedure", "serial", "program", "version"])
    @pytest.mark.parametrize("value", [-1, 2**32, 2**40])
    def test_header_words(self, field, value):
        fields = {"procedure": 1, "mtype": MessageType.CALL, "serial": 1, field: value}
        with pytest.raises(RPCError, match=f"uint32 out of range: {value}"):
            RPCMessage(**fields).pack()

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**200])
    def test_int64_body(self, value):
        with pytest.raises(RPCError, match=f"int64 out of range: {value}"):
            encode_value({"n": [value]})
        with pytest.raises(RPCError, match=f"int64 out of range: {value}"):
            RPCMessage(1, MessageType.CALL, 1, body=value).pack()
        with pytest.raises(RPCError, match=f"int64 out of range: {value}"):
            XdrEncoder().pack_hyper(value)

    def test_primitive_ranges(self):
        for pack, value, name in [
            (XdrEncoder.pack_int, 2**31, "int32"),
            (XdrEncoder.pack_int, -(2**31) - 1, "int32"),
            (XdrEncoder.pack_uint, -1, "uint32"),
            (XdrEncoder.pack_uint, 2**32, "uint32"),
            (XdrEncoder.pack_uhyper, -1, "uint64"),
            (XdrEncoder.pack_uhyper, 2**64, "uint64"),
        ]:
            with pytest.raises(RPCError, match=f"{name} out of range: {value}"):
                pack(XdrEncoder(), value)

    def test_boundaries_are_accepted(self):
        for value in (2**63 - 1, -(2**63)):
            assert decode_value(encode_value(value)) == value
        frame = RPCMessage(2**32 - 1, MessageType.CALL, 2**32 - 1).pack()
        assert RPCMessage.unpack(frame).serial == 2**32 - 1

    def test_encoder_argument_appends_and_materialises_nothing(self):
        enc = XdrEncoder().pack_uint(0xDEADBEEF)
        assert encode_value({"a": 1}, enc) is None
        assert encode_value("tail", enc) is None
        assert enc.data() == struct.pack(">I", 0xDEADBEEF) + encode_value({"a": 1}) + encode_value("tail")
        assert len(enc) == len(enc.data())
        assert enc.data(b"hdr") == b"hdr" + enc.data()
