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
Python and mapped to stable numbers here; both sides share this table,
and unknown numbers are rejected at dispatch.

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


#: stable procedure numbers — append-only, never renumber
PROCEDURES: Dict[str, int] = {
    "connect.open": 1,
    "connect.close": 2,
    "connect.get_capabilities": 3,
    "connect.get_hostname": 4,
    "connect.get_node_info": 5,
    "connect.list_domains": 6,
    "connect.list_defined_domains": 7,
    "connect.num_of_domains": 8,
    "connect.get_version": 9,
    "domain.lookup_by_name": 10,
    "domain.lookup_by_uuid": 11,
    "domain.lookup_by_id": 12,
    "domain.define_xml": 13,
    "domain.undefine": 14,
    "domain.create": 15,
    "domain.create_xml": 16,
    "domain.shutdown": 17,
    "domain.destroy": 18,
    "domain.suspend": 19,
    "domain.resume": 20,
    "domain.reboot": 21,
    "domain.get_info": 22,
    "domain.get_state": 23,
    "domain.get_xml_desc": 24,
    "domain.set_memory": 25,
    "domain.set_vcpus": 26,
    "domain.save": 27,
    "domain.restore": 28,
    "domain.get_autostart": 29,
    "domain.set_autostart": 30,
    "domain.snapshot_create": 31,
    "domain.snapshot_list": 32,
    "domain.snapshot_revert": 33,
    "domain.snapshot_delete": 34,
    "domain.migrate_begin": 35,
    "domain.migrate_perform": 36,
    "domain.migrate_finish": 37,
    "domain.attach_device": 38,
    "domain.detach_device": 39,
    "network.lookup_by_name": 40,
    "network.define_xml": 41,
    "network.undefine": 42,
    "network.create": 43,
    "network.destroy": 44,
    "network.list": 45,
    "network.get_xml_desc": 46,
    "storage.pool_lookup_by_name": 47,
    "storage.pool_define_xml": 48,
    "storage.pool_undefine": 49,
    "storage.pool_create": 50,
    "storage.pool_destroy": 51,
    "storage.pool_list": 52,
    "storage.pool_get_info": 53,
    "storage.pool_get_xml_desc": 54,
    "storage.vol_create_xml": 55,
    "storage.vol_delete": 56,
    "storage.vol_list": 57,
    "storage.vol_get_info": 58,
    "connect.domain_event_register": 59,
    "connect.domain_event_deregister": 60,
    "connect.ping": 61,
    "domain.get_job_info": 62,
    "domain.abort_job": 63,
    "domain.migrate_prepare": 64,
    "connect.supports_feature": 65,
    "domain.migrate_confirm": 66,
    "domain.get_stats": 67,
    "domain.migrate_p2p": 68,
    "network.dhcp_leases": 69,
    "domain.get_scheduler_params": 70,
    "domain.set_scheduler_params": 71,
    "domain.checkpoint_create": 72,
    "domain.checkpoint_list": 73,
    "domain.checkpoint_delete": 74,
    "domain.checkpoint_get_xml_desc": 75,
    "domain.backup_begin": 76,
    "domain.managed_save": 77,
    "domain.managed_save_remove": 78,
    "domain.has_managed_save": 79,
    "connect.event_subscribe": 80,
    "connect.event_unsubscribe": 81,
    # -- stream-carrying procedures (each CALL opens a virStream)
    "storage.vol_upload": 82,
    "storage.vol_download": 83,
    "domain.open_console": 84,
    "domain.backup_begin_pull": 85,
    # -- administration interface (separate 'admin' server in the daemon)
    "admin.connect_open": 100,
    "admin.srv_list": 101,
    "admin.srv_threadpool_info": 102,
    "admin.srv_threadpool_set": 103,
    "admin.srv_clients_info": 104,
    "admin.srv_clients_set": 105,
    "admin.client_list": 106,
    "admin.client_info": 107,
    "admin.client_disconnect": 108,
    "admin.dmn_log_info": 109,
    "admin.dmn_log_define": 110,
    "admin.srv_stats": 111,
    "admin.client_stats": 112,
    "admin.reset_stats": 113,
    "admin.metrics_export": 114,
    "admin.trace_list": 115,
    "admin.trace_get": 116,
    "admin.daemon_shutdown": 117,
    "admin.flight_dump": 118,
}

_NUMBER_TO_NAME = {number: name for name, number in PROCEDURES.items()}

#: procedures whose CALL opens a virStream on the same serial.  Data
#: frames ride the connection outside request/response correlation, so
#: these can NEVER sit on the idempotent-retry allowlist: re-issuing an
#: upload after a lost reply would append the bytes twice.
STREAM_PROCEDURES = frozenset(
    {
        "storage.vol_upload",
        "storage.vol_download",
        "domain.open_console",
        "domain.backup_begin_pull",
    }
)

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
