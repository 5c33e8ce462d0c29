"""Message header, framing, and the procedure number space.

A wire message is::

    uint32 length        (whole message, header included)
    uint32 program
    uint32 version
    uint32 procedure
    uint32 type          (CALL / REPLY / EVENT / STREAM)
    uint32 serial        (matches replies to calls)
    uint32 status        (OK / ERROR / CONTINUE; replies and streams)
    <XDR value body>
    [<XDR trace-context map>]    optional, appended after the body

mirroring libvirt's ``virNetMessageHeader``.  Procedures are named in
Python and mapped to stable numbers by :mod:`repro.rpc.procedures`; both
sides share that table, and unknown numbers are rejected at dispatch.

The trailing trace-context value is the distributed-tracing carrier: a
``{"trace_id": uint, "span_id": uint}`` map identifying the sender's
active span, so the receiver can parent its dispatch span into the same
trace.  Frames without it are byte-identical to the pre-tracing wire
format, and decoders that predate the field never looked past the body
— the extension is invisible to both old senders and old receivers.
"""

from __future__ import annotations

import enum
import struct
from typing import Any, Dict, Optional, Tuple

from repro.errors import RPCError
from repro.rpc.procedures import BY_NAME
from repro.rpc.xdr import XdrDecoder, XdrEncoder, decode_value, encode_value

#: the main program (libvirt's REMOTE_PROGRAM analogue)
PROGRAM_REMOTE = 0x20008086
#: the keepalive program (libvirt's KEEPALIVE_PROGRAM, literally "keep")
PROGRAM_KEEPALIVE = 0x6B656570
PROTOCOL_VERSION = 1

KNOWN_PROGRAMS = frozenset({PROGRAM_REMOTE, PROGRAM_KEEPALIVE})

#: the fixed header, packed and parsed in one step
_HEADER = struct.Struct(">7I")
_WORD = struct.Struct(">I")
HEADER_BYTES = _HEADER.size
MAX_MESSAGE = 16 * 1024 * 1024

#: keepalive procedures (``virKeepAliveMessage``)
KEEPALIVE_PING = 1
KEEPALIVE_PONG = 2


class MessageType(enum.IntEnum):
    CALL = 0
    REPLY = 1
    EVENT = 2
    #: bulk-data frame belonging to a stream opened by an earlier CALL
    #: (libvirt's ``VIR_NET_STREAM``); correlated by (procedure, serial)
    STREAM = 3


class ReplyStatus(enum.IntEnum):
    OK = 0
    ERROR = 1
    #: stream frame carrying data or flow-control (``VIR_NET_CONTINUE``)
    CONTINUE = 2


# wire number -> member (members hash as their numbers, so either form
# finds the member): a dict lookup where ``Enum.__call__`` cost ~20x
_MESSAGE_TYPES = {int(member): member for member in MessageType}
_REPLY_STATUSES = {int(member): member for member in ReplyStatus}


#: name -> stable number, from the one procedure table
PROCEDURES: Dict[str, int] = {name: row.number for name, row in BY_NAME.items()}

_NUMBER_TO_NAME = {number: name for name, number in PROCEDURES.items()}

#: procedures whose CALL opens a virStream on the same serial
STREAM_PROCEDURES = frozenset(name for name, row in BY_NAME.items() if row.stream)

#: the server-push event procedure numbers
EVENT_DOMAIN_LIFECYCLE = 1000
#: the daemon is draining: finish up, expect a clean close
EVENT_DAEMON_SHUTDOWN = 1001
#: one typed event-bus record ({"seq", "kind", "domain", "event", "detail", ...})
EVENT_BUS_RECORD = 1002


def procedure_number(name: str) -> int:
    try:
        return PROCEDURES[name]
    except KeyError:
        raise RPCError(f"unknown RPC procedure {name!r}") from None


def procedure_name(number: int) -> str:
    try:
        return _NUMBER_TO_NAME[number]
    except KeyError:
        raise RPCError(f"unknown RPC procedure number {number}") from None


class RPCMessage:
    """One framed wire message."""

    def __init__(
        self,
        procedure: int,
        mtype: MessageType,
        serial: int,
        status: ReplyStatus = ReplyStatus.OK,
        body: Any = None,
        program: int = PROGRAM_REMOTE,
        version: int = PROTOCOL_VERSION,
        trace: "Optional[Dict[str, int]]" = None,
    ) -> None:
        self.procedure = procedure
        self.mtype = _MESSAGE_TYPES[mtype] if mtype in _MESSAGE_TYPES else MessageType(mtype)
        self.serial = serial
        self.status = _REPLY_STATUSES[status] if status in _REPLY_STATUSES else ReplyStatus(status)
        self.body = body
        self.program = program
        self.version = version
        #: optional trace context ({"trace_id": .., "span_id": ..})
        self.trace = trace

    def pack(self) -> bytes:
        """Serialize to the framed wire form."""
        payload = XdrEncoder()
        encode_value(self.body, payload)
        if self.trace is not None:
            encode_value(self.trace, payload)
        # sized before it is materialised; the join in ``data`` is the
        # only time a (possibly 256 KiB) body is copied
        length = HEADER_BYTES + len(payload)
        if length > MAX_MESSAGE:
            raise RPCError(f"message too large: {length} bytes")
        try:
            header = _HEADER.pack(
                length, self.program, self.version, self.procedure,
                self.mtype, self.serial, self.status,
            )
        except struct.error:
            fields = (self.program, self.version, self.procedure, self.mtype, self.serial, self.status)
            bad = next(f for f in fields if not (isinstance(f, int) and 0 <= f < 2**32))
            raise RPCError(f"uint32 out of range: {bad}") from None
        return payload.data(header)

    @staticmethod
    def unpack(data: "bytes | memoryview") -> "RPCMessage":
        """Parse one framed message; the buffer must hold exactly one.

        Body and trace context are decoded where they lie in ``data`` —
        over a ``memoryview`` an opaque body is a sub-view of it.
        """
        if len(data) < HEADER_BYTES:
            raise RPCError(f"short message: {len(data)} bytes")
        length, program, version, procedure, mtype, serial, status = _HEADER.unpack_from(data)
        if length != len(data):
            raise RPCError(f"frame length {length} != buffer length {len(data)}")
        if program not in KNOWN_PROGRAMS:
            raise RPCError(f"unknown program 0x{program:x}")
        if version != PROTOCOL_VERSION:
            raise RPCError(f"unsupported protocol version {version}")
        if mtype not in _MESSAGE_TYPES:
            raise RPCError(f"bad message type: {mtype} is not a valid MessageType")
        if status not in _REPLY_STATUSES:
            raise RPCError(f"bad reply status: {status} is not a valid ReplyStatus")
        payload = XdrDecoder(data, HEADER_BYTES)
        body = decode_value(payload)
        trace = None
        if payload.remaining():
            # optional trailing trace-context value: undecodable or
            # surplus bytes fail the frame like any other corruption; a
            # well-formed value of the wrong shape is just "no context"
            extra = decode_value(payload)
            payload.done()
            if isinstance(extra, dict):
                trace_id = extra.get("trace_id")
                span_id = extra.get("span_id")
                if isinstance(trace_id, int) and isinstance(span_id, int):
                    trace = {"trace_id": trace_id, "span_id": span_id}
        return RPCMessage(
            procedure, mtype, serial, status, body, program, version, trace=trace
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RPCMessage({self.mtype.name}, proc={self.procedure}, "
            f"serial={self.serial}, status={self.status.name})"
        )


def make_ping(serial: int) -> RPCMessage:
    """A keepalive PING frame (client → server)."""
    return RPCMessage(
        KEEPALIVE_PING, MessageType.CALL, serial, program=PROGRAM_KEEPALIVE
    )


def make_pong(serial: int) -> RPCMessage:
    """The keepalive PONG answering the PING with ``serial``."""
    return RPCMessage(
        KEEPALIVE_PONG, MessageType.REPLY, serial, program=PROGRAM_KEEPALIVE
    )


def is_keepalive(message: RPCMessage) -> bool:
    return message.program == PROGRAM_KEEPALIVE


def peek_message_type(data: "bytes | memoryview") -> "Optional[MessageType]":
    """Read the type word of a packed frame without unpacking the body.

    Demultiplexers use this to route STREAM frames off the hot
    reply/event paths before paying for a full decode.  Returns
    ``None`` for frames too short or with an unknown type value.
    """
    if len(data) < HEADER_BYTES:
        return None
    return _MESSAGE_TYPES.get(_WORD.unpack_from(data, 16)[0])


def split_frames(buffer: bytes) -> "Tuple[list, bytes]":
    """Split a byte stream into complete frames + leftover bytes.

    Models how a socket reader reassembles messages from arbitrary
    read boundaries.
    """
    frames = []
    pos = 0
    while True:
        if len(buffer) - pos < 4:
            break
        length = int.from_bytes(buffer[pos : pos + 4], "big")
        if length < HEADER_BYTES or length > MAX_MESSAGE:
            raise RPCError(f"insane frame length {length}")
        if len(buffer) - pos < length:
            break
        frames.append(buffer[pos : pos + length])
        pos += length
    return frames, buffer[pos:]
