"""Golden frames: the wire format pinned byte for byte.

``tests/data/wire_golden.json`` maps each case below to the hex of the
frame ``RPCMessage.pack()`` produced at the commit *before* the codec was
compiled (PR 12's parent).  A codec change that alters a single byte, or
that decodes a recorded frame to different fields, fails here.  To
regenerate after a deliberate wire-format change, with ``src`` of the
commit that defines the format on the path::

    PYTHONPATH=src python tests/test_wire_golden.py > tests/data/wire_golden.json
"""

import json
import pathlib

import pytest

from repro.errors import NoDomainError
from repro.rpc.protocol import (
    EVENT_BUS_RECORD,
    PROGRAM_KEEPALIVE,
    PROGRAM_REMOTE,
    PROTOCOL_VERSION,
    MessageType,
    ReplyStatus,
    RPCMessage,
    make_ping,
    make_pong,
    procedure_number,
)
from repro.util.typedparams import ParamType, TypedParameter, TypedParamList

FIXTURE = pathlib.Path(__file__).parent / "data" / "wire_golden.json"

GET_INFO = procedure_number("domain.get_info")
INFO = {
    "state": 1,
    "max_memory_kib": 1048576,
    "memory_kib": 524288,
    "vcpus": 2,
    "cpu_seconds": 12.5,
}
BUS_RECORD = {
    "seq": 41,
    "kind": "lifecycle",
    "domain": "guest-03",
    "event": "started",
    "detail": "booted",
    "uuid": None,
    "time": 1284.25,
    "transient": False,
}
SCHED = TypedParamList(
    [
        TypedParameter("weight", ParamType.INT, -3),
        TypedParameter("cap", ParamType.UINT, 4_000_000_000),
        TypedParameter("vcpu_quota", ParamType.LLONG, -(2**40)),
        TypedParameter("cpu_shares", ParamType.ULLONG, 2**63 + 1),
        TypedParameter("ratio", ParamType.DOUBLE, 0.75),
        TypedParameter("enabled", ParamType.BOOLEAN, True),
        TypedParameter("policy", ParamType.STRING, "düsseldorf"),
    ]
)


def cases():
    """name -> the message whose packed form is recorded."""
    return {
        "call": RPCMessage(GET_INFO, MessageType.CALL, 7, body={"name": "guest-03"}),
        "call_traced": RPCMessage(
            GET_INFO,
            MessageType.CALL,
            8,
            body={"name": "guest-03"},
            trace={"trace_id": 2**40 + 5, "span_id": 77},
        ),
        "reply_ok": RPCMessage(GET_INFO, MessageType.REPLY, 7, ReplyStatus.OK, INFO),
        "reply_error": RPCMessage(
            GET_INFO,
            MessageType.REPLY,
            9,
            ReplyStatus.ERROR,
            NoDomainError("no domain named 'ghost'").to_dict(),
        ),
        "event_bus_record": RPCMessage(
            EVENT_BUS_RECORD, MessageType.EVENT, 0, ReplyStatus.OK, BUS_RECORD
        ),
        "keepalive_ping": make_ping(3),
        "keepalive_pong": make_pong(3),
        "stream_chunk": RPCMessage(
            procedure_number("storage.vol_upload"),
            MessageType.STREAM,
            11,
            ReplyStatus.CONTINUE,
            b"\x00\x01abc\xff\x7f",  # 7 bytes: one pad byte on the wire
        ),
        "typed_params": RPCMessage(
            procedure_number("domain.set_scheduler_params"),
            MessageType.CALL,
            2**32 - 1,
            body={"name": "guest-03", "params": SCHED, "live": True, "tags": []},
        ),
        "list_128": RPCMessage(
            procedure_number("connect.list_defined_domains"),
            MessageType.REPLY,
            12,
            ReplyStatus.OK,
            [f"guest-{i:03d}" for i in range(128)],
        ),
    }


def golden():
    return json.loads(FIXTURE.read_text())


CASES = cases()


def test_fixture_and_case_table_agree():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pack_reproduces_the_recorded_bytes(name):
    assert CASES[name].pack().hex() == golden()[name]


@pytest.mark.parametrize("wrap", [bytes, memoryview], ids=["bytes", "memoryview"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_unpack_recovers_the_recorded_fields(name, wrap):
    want = CASES[name]
    got = RPCMessage.unpack(wrap(bytes.fromhex(golden()[name])))
    assert (got.program, got.version) == (want.program, PROTOCOL_VERSION)
    assert got.program in (PROGRAM_REMOTE, PROGRAM_KEEPALIVE)
    assert got.procedure == want.procedure
    assert got.mtype is want.mtype
    assert got.serial == want.serial
    assert got.status is want.status
    assert got.body == want.body
    assert got.trace == want.trace
    assert type(got.body) is type(want.body) or wrap is memoryview


def test_typed_params_keep_their_types():
    got = RPCMessage.unpack(bytes.fromhex(golden()["typed_params"])).body["params"]
    assert isinstance(got, TypedParamList)
    assert [p.type for p in got] == [p.type for p in SCHED]


def test_stream_chunk_decodes_as_a_view_of_the_frame():
    frame = bytes.fromhex(golden()["stream_chunk"])
    body = RPCMessage.unpack(memoryview(frame)).body
    assert isinstance(body, memoryview) and body.obj is frame
    assert frame[-1:] == b"\x00" and len(frame) % 4 == 0


if __name__ == "__main__":
    print(json.dumps({name: msg.pack().hex() for name, msg in cases().items()}, indent=1))
