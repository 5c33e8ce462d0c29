"""XDR (RFC 4506) serialization.

Libvirt's wire protocol serializes everything with XDR.  This module
implements the primitive codecs — 4-byte alignment, big-endian, padded
opaques — and, on top of them, a tagged *value* codec (a discriminated
union in XDR terms) that can carry the JSON-like structures the RPC
layer passes around: None, bools, integers, doubles, strings, bytes,
lists, string-keyed maps, and typed-parameter lists.

Zero-copy opaque path: the encoder accepts ``memoryview``/``bytearray``
payloads and keeps them *by reference* until the final join, and a
decoder constructed over a ``memoryview`` hands opaques back as
sub-views of the caller's buffer.  Stream frames use both directions so
bulk chunks are never copied per frame just to cross the codec.

Every message crosses this module four times, so it is written for the
interpreter: ``struct.Struct`` objects compiled once, a tag packed
together with its payload, and a decoder that reads words at an offset
in the caller's buffer instead of slicing one off per word.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.errors import InvalidArgumentError, RPCError
from repro.util.typedparams import ParamType, TypedParameter, TypedParamList

#: zero padding that follows an opaque of length ``n``, indexed by ``n & 3``
_PADS = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")

# compiled once: the codec never parses a format string per word
_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_U32_U32 = struct.Struct(">II")  # tag + length, or tag + element count
_U32_I64 = struct.Struct(">Iq")  # tag + hyper
_U32_F64 = struct.Struct(">Id")  # tag + double

#: value-codec type tags (the union discriminants)
_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_HYPER = 3
_TAG_DOUBLE = 4
_TAG_STRING = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_DICT = 8
_TAG_TYPED_PARAMS = 9

_NULL = _U32.pack(_TAG_NULL)
_FALSE = _U32.pack(_TAG_FALSE)
_TRUE = _U32.pack(_TAG_TRUE)

#: hard cap on string/opaque sizes, guards against corrupt length words
MAX_OPAQUE = 64 * 1024 * 1024


class XdrEncoder:
    """Append-only XDR stream writer."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        # may hold memoryview/bytearray entries (zero-copy opaque path);
        # bytes.join accepts any buffer object at materialization time
        self._parts: "List[bytes | bytearray | memoryview]" = []

    def buffers(self, prefix: bytes = b"") -> "List[bytes | bytearray | memoryview]":
        """The stream as the buffers a gather write (``writev``) takes:
        ``prefix``, if any, then every piece as appended — a buffer-typed
        opaque is the caller's object itself, not a copy of it.

        ``prefix`` goes in front: a frame header can only be built once
        the stream's length is known.
        """
        return [prefix, *self._parts] if prefix else list(self._parts)

    def data(self, prefix: bytes = b"") -> bytes:
        """The stream's bytes: :meth:`buffers` materialised by one join."""
        return b"".join(self.buffers(prefix))

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    # -- primitives -----------------------------------------------------

    def pack_int(self, value: int) -> "XdrEncoder":
        if not -(2**31) <= value < 2**31:
            raise RPCError(f"int32 out of range: {value}")
        self._parts.append(_I32.pack(value))
        return self

    def pack_uint(self, value: int) -> "XdrEncoder":
        if not 0 <= value < 2**32:
            raise RPCError(f"uint32 out of range: {value}")
        self._parts.append(_U32.pack(value))
        return self

    def pack_hyper(self, value: int) -> "XdrEncoder":
        if not -(2**63) <= value < 2**63:
            raise RPCError(f"int64 out of range: {value}")
        self._parts.append(_I64.pack(value))
        return self

    def pack_uhyper(self, value: int) -> "XdrEncoder":
        if not 0 <= value < 2**64:
            raise RPCError(f"uint64 out of range: {value}")
        self._parts.append(_U64.pack(value))
        return self

    def pack_bool(self, value: bool) -> "XdrEncoder":
        return self.pack_uint(1 if value else 0)

    def pack_double(self, value: float) -> "XdrEncoder":
        self._parts.append(_F64.pack(value))
        return self

    def pack_opaque(self, value: "bytes | bytearray | memoryview") -> "XdrEncoder":
        """Variable-length opaque: uint32 length + data + pad to 4.

        Buffer-typed payloads (``memoryview``, ``bytearray``) are held
        by reference — the bytes are only touched once, at the final
        :meth:`data` join, never copied per pack call.
        """
        if len(value) > MAX_OPAQUE:
            raise _too_large(value)
        self._parts.append(_U32.pack(len(value)))
        return self.pack_fixed_opaque(value, len(value))

    def pack_fixed_opaque(self, value: bytes, size: int) -> "XdrEncoder":
        """Fixed-length opaque: no length word, padded to 4."""
        if len(value) != size:
            raise RPCError(f"fixed opaque needs {size} bytes, got {len(value)}")
        self._parts.append(value)
        if size & 3:
            self._parts.append(_PADS[size & 3])
        return self

    def pack_string(self, value: str) -> "XdrEncoder":
        return self.pack_opaque(value.encode("utf-8"))


def opaque_value(parts: "List[Any]") -> "memoryview | None":
    """The payload of one encoded bytes value handed over as its pieces.

    ``parts`` are the tag and length words, the payload and its zero
    padding, as :func:`encode_value` appends a bytes value.  When, joined,
    they are exactly such a value that :func:`decode_value` accepts, the
    payload comes back as a view of the buffer it is, copying nothing;
    otherwise ``None``.
    """
    if not 2 <= len(parts) <= 3:
        return None
    words, payload, *pad = parts
    view = memoryview(payload)
    size = view.nbytes
    if (
        view.format != "B"
        or view.ndim != 1
        or not view.c_contiguous
        or size > MAX_OPAQUE
        or words != _U32_U32.pack(_TAG_BYTES, size)
        or (pad[0] if pad else b"") != _PADS[size & 3]
    ):
        return None
    return view


def _too_large(value: "bytes | bytearray | memoryview") -> RPCError:
    return RPCError(f"opaque too large: {len(value)} bytes")


class XdrDecoder:
    """Sequential XDR stream reader; raises :class:`RPCError` on underrun.

    A cursor over the caller's buffer: words are read in place with
    ``unpack_from``, only strings and opaques are sliced out, and over a
    ``memoryview`` an opaque is a zero-copy sub-view of that buffer (the
    stream receive path relies on this).  ``offset`` starts the cursor
    past a prefix, such as a frame header, without copying the rest.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: "bytes | memoryview", offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    def _word(self, codec: struct.Struct) -> Any:
        try:
            (value,) = codec.unpack_from(self._data, self._pos)
        except struct.error:
            raise _underrun(self._data, self._pos, codec.size) from None
        self._pos += codec.size
        return value

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> None:
        """Assert the stream was fully consumed."""
        if self.remaining():
            raise RPCError(f"{self.remaining()} trailing bytes after XDR decode")

    # -- primitives -----------------------------------------------------

    def unpack_int(self) -> int:
        return self._word(_I32)

    def unpack_uint(self) -> int:
        return self._word(_U32)

    def unpack_hyper(self) -> int:
        return self._word(_I64)

    def unpack_uhyper(self) -> int:
        return self._word(_U64)

    def unpack_bool(self) -> bool:
        value = self.unpack_uint()
        if value not in (0, 1):
            raise RPCError(f"bool must be 0 or 1, got {value}")
        return bool(value)

    def unpack_double(self) -> float:
        return self._word(_F64)

    def unpack_opaque(self) -> bytes:
        try:
            value, self._pos = _opaque_at(self._data, self._pos)
        except struct.error:
            raise _underrun(self._data, self._pos, 4) from None
        return value

    def unpack_fixed_opaque(self, size: int) -> bytes:
        value, self._pos = _opaque_at(self._data, self._pos, size)
        return value

    def unpack_string(self) -> str:
        try:
            return str(self.unpack_opaque(), "utf-8")
        except UnicodeDecodeError as exc:
            raise _bad_utf8(exc) from exc


def _underrun(data: "bytes | memoryview", pos: int, count: int) -> RPCError:
    return RPCError(
        f"XDR underrun: need {count} bytes at offset {pos}, have {len(data) - pos}"
    )


def _bad_utf8(exc: UnicodeDecodeError) -> RPCError:
    return RPCError(f"invalid UTF-8 in XDR string: {exc}")


def _opaque_at(data: "bytes | memoryview", pos: int, size: "int | None" = None) -> "Tuple[Any, int]":
    """The opaque at ``pos`` and the offset past its (verified zero) padding.

    Variable-length — its length word comes first, and ``struct.error``
    says that word was cut short — unless the caller fixes ``size``.
    """
    if size is None:
        (size,) = _U32.unpack_from(data, pos)
        # checked before anything is sliced by it: a corrupt length word
        # fails here, it never allocates
        if size > MAX_OPAQUE:
            raise RPCError(f"opaque length {size} exceeds limit")
        pos += 4
    end = pos + size
    stop = end + (-size & 3)
    if stop > len(data):
        raise _underrun(data, pos, stop - pos)
    if stop != end and data[end:stop] != _PADS[size & 3]:
        raise RPCError("non-zero XDR padding")
    return data[pos:end], stop


# -- tagged value codec ---------------------------------------------------


def encode_value(value: Any, encoder: "XdrEncoder | None" = None) -> "bytes | None":
    """Serialize a JSON-like value (plus typed params) to XDR bytes.

    With an ``encoder``, the value is appended to that stream instead and
    nothing is materialised (returns ``None``): the caller joins once,
    when everything that belongs to its message is in.
    """
    if encoder is not None:
        _encode(value, encoder._parts.append)
        return None
    parts: "List[bytes | bytearray | memoryview]" = []
    _encode(value, parts.append)
    return b"".join(parts)


def _encode(value: Any, append: Any) -> None:
    """Hand ``value``'s wire form, piece by piece, to ``append``."""
    # most frequent first
    if isinstance(value, str):
        raw = value.encode()
        size = len(raw)
        if size > MAX_OPAQUE:
            raise _too_large(raw)
        append(_U32_U32.pack(_TAG_STRING, size) + raw + _PADS[size & 3])
    elif isinstance(value, int):
        if value is True:  # bool is an int: settled here, by identity
            append(_TRUE)
        elif value is False:
            append(_FALSE)
        else:
            try:
                append(_U32_I64.pack(_TAG_HYPER, value))
            except struct.error:
                raise RPCError(f"int64 out of range: {value}") from None
    elif isinstance(value, dict):
        append(_U32_U32.pack(_TAG_DICT, len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise RPCError(f"dict keys must be strings, got {key!r}")
            raw = key.encode()
            size = len(raw)
            if size > MAX_OPAQUE:
                raise _too_large(raw)
            append(_U32.pack(size) + raw + _PADS[size & 3])
            _encode(item, append)
    elif value is None:
        append(_NULL)
    elif isinstance(value, float):
        append(_U32_F64.pack(_TAG_DOUBLE, value))
    elif isinstance(value, (list, tuple)):
        typed = isinstance(value, TypedParamList)
        if typed and not all(isinstance(v, TypedParameter) for v in value):
            raise RPCError("TypedParamList may only hold TypedParameter items")
        if typed or (value and all(isinstance(v, TypedParameter) for v in value)):
            append(_encode_typed_params(value))
        else:
            append(_U32_U32.pack(_TAG_LIST, len(value)))
            for item in value:
                _encode(item, append)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        size = len(value)
        if size > MAX_OPAQUE:
            raise _too_large(value)
        # held by reference: a bulk payload is copied once, by the join
        append(_U32_U32.pack(_TAG_BYTES, size))
        append(value)
        if size & 3:
            append(_PADS[size & 3])
    else:
        raise RPCError(f"cannot XDR-encode value of type {type(value).__name__}")


#: typed-parameter value codecs: (pack, unpack) per wire type
_PARAM_CODECS = {
    ParamType.INT: (XdrEncoder.pack_int, XdrDecoder.unpack_int),
    ParamType.UINT: (XdrEncoder.pack_uint, XdrDecoder.unpack_uint),
    ParamType.LLONG: (XdrEncoder.pack_hyper, XdrDecoder.unpack_hyper),
    ParamType.ULLONG: (XdrEncoder.pack_uhyper, XdrDecoder.unpack_uhyper),
    ParamType.DOUBLE: (XdrEncoder.pack_double, XdrDecoder.unpack_double),
    ParamType.BOOLEAN: (XdrEncoder.pack_bool, XdrDecoder.unpack_bool),
    ParamType.STRING: (XdrEncoder.pack_string, XdrDecoder.unpack_string),
}


def _encode_typed_params(params: "List[TypedParameter]") -> bytes:
    enc = XdrEncoder().pack_uint(_TAG_TYPED_PARAMS).pack_uint(len(params))
    for param in params:
        enc.pack_string(param.field).pack_uint(int(param.type))
        _PARAM_CODECS[param.type][0](enc, param.value)
    return enc.data()


def decode_value(data: "bytes | memoryview | XdrDecoder") -> Any:
    """Inverse of :func:`encode_value`.

    When given a raw buffer, the whole buffer must be consumed.  Given
    an :class:`XdrDecoder`, one value is read at its cursor, which moves
    past it; the buffer behind the cursor is read in place either way.
    """
    cursor = data if isinstance(data, XdrDecoder) else None
    buffer, pos = (data, 0) if cursor is None else (cursor._data, cursor._pos)
    try:
        value, pos = _decode(buffer, pos)
    except struct.error:  # a fixed-width word ran past the end
        raise RPCError(
            f"XDR underrun: the {len(buffer)}-byte buffer ends inside a value"
        ) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    except RecursionError:
        raise RPCError("XDR value nested too deeply") from None
    if cursor is not None:
        cursor._pos = pos
    elif pos != len(buffer):
        raise RPCError(f"{len(buffer) - pos} trailing bytes after XDR decode")
    return value


def _decode(data: "bytes | memoryview", pos: int) -> "Tuple[Any, int]":
    """The value at ``pos`` and the offset past it.

    Raises ``struct.error`` / ``UnicodeDecodeError`` for a truncated word
    / bad string; only :func:`decode_value`, which translates them, may
    call this.
    """
    (tag,) = _U32.unpack_from(data, pos)
    pos += 4
    if tag == _TAG_STRING:
        raw, pos = _opaque_at(data, pos)
        return str(raw, "utf-8"), pos
    if tag == _TAG_HYPER:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_DICT:
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        result: Dict[str, Any] = {}
        for _ in range(count):
            raw, pos = _opaque_at(data, pos)
            result[str(raw, "utf-8")], pos = _decode(data, pos)
        return result, pos
    if tag == _TAG_LIST:
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode(data, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_DOUBLE:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_BYTES:
        return _opaque_at(data, pos)
    if tag == _TAG_TYPED_PARAMS:
        return _decode_typed_params(data, pos)
    raise RPCError(f"unknown XDR value tag {tag}")


def _decode_typed_params(data: "bytes | memoryview", pos: int) -> "Tuple[TypedParamList, int]":
    dec = XdrDecoder(data, pos)
    params = TypedParamList()
    for _ in range(dec.unpack_uint()):
        field = dec.unpack_string()
        number = dec.unpack_uint()
        try:
            ptype = ParamType(number)
            value = _PARAM_CODECS[ptype][1](dec)
            params.append(TypedParameter(field, ptype, value))
        except (ValueError, InvalidArgumentError) as exc:
            raise RPCError(f"bad typed parameter on the wire: {exc}") from exc
    return params, dec._pos
