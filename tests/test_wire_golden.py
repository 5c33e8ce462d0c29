"""Golden frames: the wire format pinned byte for byte.

``tests/data/wire_golden.json`` maps each case below to the hex of the
frame ``RPCMessage.pack()`` produced at the commit *before* the codec was
compiled (PR 12's parent).  A codec change that alters a single byte, or
that decodes a recorded frame to different fields, fails here.  To
regenerate after a deliberate wire-format change, with ``src`` of the
commit that defines the format on the path::

    PYTHONPATH=src python tests/test_wire_golden.py > tests/data/wire_golden.json

The ``stub:`` cases pin what ``RemoteDriver`` puts on the wire: one CALL
frame per remote procedure, sent through the driver's own method with
fixed arguments (map key order is wire order, so argument order is
checked here, not assumed).  They were recorded from the hand-written
stubs of PR 13's parent, before the stubs were generated from
``repro.rpc.procedures``.
"""

import json
import pathlib
from unittest import mock

import pytest

from repro.core.uri import ConnectionURI
from repro.drivers.remote import RemoteDriver
from repro.errors import NoDomainError
from repro.rpc.protocol import (
    EVENT_BUS_RECORD,
    PROCEDURES,
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


#: (case, RemoteDriver method, args, kwargs); the case is ``stub:`` + the
#: procedure the call must send, with a ``:suffix`` on second forms of
#: one stub.  Run in order on one driver: the event rows arm, then disarm.
STUB_SERIAL = 7
STUB_CALLS = [
    ("stub:connect.get_capabilities", "get_capabilities", (), {}),
    ("stub:connect.get_hostname", "get_hostname", (), {}),
    ("stub:connect.get_node_info", "get_node_info", (), {}),
    ("stub:connect.list_domains", "list_domains", (), {}),
    ("stub:connect.list_domains:uncached", "list_domains", (), {"cached": False}),
    ("stub:connect.list_defined_domains", "list_defined_domains", (), {}),
    ("stub:connect.num_of_domains", "num_of_domains", (), {}),
    ("stub:connect.get_version", "get_version", (), {}),
    ("stub:connect.get_all_domain_stats", "get_all_domain_stats", (), {}),
    ("stub:connect.get_all_domain_stats:all", "get_all_domain_stats", (None,), {}),
    ("stub:connect.ping", "ping", (), {}),
    ("stub:connect.supports_feature", "features", (), {}),
    ("stub:connect.domain_event_register", "domain_event_register", (print,), {}),
    ("stub:connect.domain_event_deregister", "domain_event_deregister", (1,), {}),
    ("stub:connect.event_subscribe", "event_bus_subscribe", (print,), {}),
    ("stub:connect.event_unsubscribe", "event_bus_unsubscribe", (1,), {}),
    ("stub:domain.lookup_by_name", "domain_lookup_by_name", ("guest-03",), {}),
    ("stub:domain.lookup_by_uuid", "domain_lookup_by_uuid", ("6c1e3f0a-0000-4000-8000-00000000002a",), {}),
    ("stub:domain.lookup_by_id", "domain_lookup_by_id", (42,), {}),
    ("stub:domain.lookup_by_id:keyword", "domain_lookup_by_id", (), {"domain_id": 42}),
    ("stub:domain.define_xml", "domain_define_xml", ("<domain type='test'><name>guest-03</name></domain>",), {}),
    ("stub:domain.undefine", "domain_undefine", ("guest-03",), {}),
    ("stub:domain.create", "domain_create", ("guest-03",), {}),
    ("stub:domain.create_xml", "domain_create_xml", ("<domain type='test'><name>guest-04</name></domain>",), {}),
    ("stub:domain.shutdown", "domain_shutdown", ("guest-03",), {}),
    ("stub:domain.destroy", "domain_destroy", ("guest-03",), {}),
    ("stub:domain.suspend", "domain_suspend", ("guest-03",), {}),
    ("stub:domain.resume", "domain_resume", ("guest-03",), {}),
    ("stub:domain.reboot", "domain_reboot", ("guest-03",), {}),
    ("stub:domain.get_info", "domain_get_info", ("guest-03",), {}),
    ("stub:domain.get_state", "domain_get_state", ("guest-03",), {}),
    ("stub:domain.get_state:uncached", "domain_get_state", ("guest-03", False), {}),
    ("stub:domain.get_xml_desc", "domain_get_xml_desc", ("guest-03",), {}),
    ("stub:domain.get_xml_desc:uncached", "domain_get_xml_desc", (), {"name": "guest-03", "cached": False}),
    ("stub:domain.get_stats", "domain_get_stats", ("guest-03",), {}),
    ("stub:domain.get_scheduler_params", "domain_get_scheduler_params", ("guest-03",), {}),
    ("stub:domain.set_scheduler_params", "domain_set_scheduler_params", ("guest-03", SCHED), {}),
    ("stub:domain.get_job_info", "domain_get_job_info", ("guest-03",), {}),
    ("stub:domain.abort_job", "domain_abort_job", ("guest-03",), {}),
    ("stub:domain.set_memory", "domain_set_memory", ("guest-03", 524288), {}),
    ("stub:domain.set_vcpus", "domain_set_vcpus", ("guest-03", 4), {}),
    ("stub:domain.save", "domain_save", ("guest-03", "/var/lib/save/guest-03.sav"), {}),
    ("stub:domain.restore", "domain_restore", ("/var/lib/save/guest-03.sav",), {}),
    ("stub:domain.managed_save", "domain_managed_save", ("guest-03",), {}),
    ("stub:domain.managed_save_remove", "domain_managed_save_remove", ("guest-03",), {}),
    ("stub:domain.has_managed_save", "domain_has_managed_save", ("guest-03",), {}),
    ("stub:domain.get_autostart", "domain_get_autostart", ("guest-03",), {}),
    ("stub:domain.set_autostart", "domain_set_autostart", ("guest-03", 1), {}),
    ("stub:domain.attach_device", "domain_attach_device", ("guest-03", "<disk type='file'/>"), {}),
    ("stub:domain.detach_device", "domain_detach_device", ("guest-03", "<disk type='file'/>"), {}),
    ("stub:domain.detach_device:keyword", "domain_detach_device", (), {"device_xml": "<disk type='file'/>", "name": "guest-03"}),
    ("stub:domain.snapshot_create", "snapshot_create", ("guest-03", "before-upgrade"), {}),
    ("stub:domain.snapshot_list", "snapshot_list", ("guest-03",), {}),
    ("stub:domain.snapshot_revert", "snapshot_revert", ("guest-03", "before-upgrade"), {}),
    ("stub:domain.snapshot_delete", "snapshot_delete", ("guest-03", "before-upgrade"), {}),
    ("stub:domain.checkpoint_create", "checkpoint_create", ("guest-03", "cp-1"), {}),
    ("stub:domain.checkpoint_list", "checkpoint_list", ("guest-03",), {}),
    ("stub:domain.checkpoint_delete", "checkpoint_delete", ("guest-03", "cp-1"), {}),
    ("stub:domain.checkpoint_get_xml_desc", "checkpoint_get_xml_desc", ("guest-03", "cp-1"), {}),
    ("stub:domain.backup_begin", "backup_begin", ("guest-03", {"incremental": "cp-1"}), {}),
    ("stub:domain.backup_begin:default", "backup_begin", ("guest-03",), {}),
    ("stub:domain.backup_begin_pull", "backup_begin_pull", ("guest-03", {"incremental": "cp-1"}), {}),
    ("stub:domain.backup_begin_pull:default", "backup_begin_pull", ("guest-03",), {"options": None}),
    ("stub:domain.open_console", "domain_open_console", ("guest-03",), {}),
    ("stub:domain.migrate_begin", "migrate_begin", ("guest-03",), {}),
    ("stub:domain.migrate_prepare", "migrate_prepare", ({"name": "guest-03", "memory_kib": 524288},), {}),
    ("stub:domain.migrate_perform", "migrate_perform", ("guest-03", {"token": 9}, {"bandwidth_mib_s": 100}), {}),
    ("stub:domain.migrate_finish", "migrate_finish", ({"token": 9}, {"rounds": 3}), {}),
    ("stub:domain.migrate_confirm", "migrate_confirm", ("guest-03", False), {}),
    ("stub:domain.migrate_p2p", "migrate_p2p", ("guest-03", "qemu+tcp://prod2/system", {"live": True}), {}),
    ("stub:network.lookup_by_name", "network_lookup_by_name", ("default",), {}),
    ("stub:network.define_xml", "network_define_xml", ("<network><name>default</name></network>",), {}),
    ("stub:network.undefine", "network_undefine", ("default",), {}),
    ("stub:network.create", "network_create", ("default",), {}),
    ("stub:network.destroy", "network_destroy", ("default",), {}),
    ("stub:network.list", "network_list", (), {}),
    ("stub:network.get_xml_desc", "network_get_xml_desc", ("default",), {}),
    ("stub:network.dhcp_leases", "network_dhcp_leases", ("default",), {}),
    ("stub:storage.pool_lookup_by_name", "storage_pool_lookup_by_name", ("images",), {}),
    ("stub:storage.pool_define_xml", "storage_pool_define_xml", ("<pool type='dir'><name>images</name></pool>",), {}),
    ("stub:storage.pool_undefine", "storage_pool_undefine", ("images",), {}),
    ("stub:storage.pool_create", "storage_pool_create", ("images",), {}),
    ("stub:storage.pool_destroy", "storage_pool_destroy", ("images",), {}),
    ("stub:storage.pool_list", "storage_pool_list", (), {}),
    ("stub:storage.pool_get_info", "storage_pool_get_info", ("images",), {}),
    ("stub:storage.pool_get_xml_desc", "storage_pool_get_xml_desc", ("images",), {}),
    ("stub:storage.vol_create_xml", "storage_vol_create_xml", ("images", "<volume><name>disk0</name></volume>"), {}),
    ("stub:storage.vol_delete", "storage_vol_delete", ("images", "disk0"), {}),
    ("stub:storage.vol_list", "storage_vol_list", ("images",), {}),
    ("stub:storage.vol_get_info", "storage_vol_get_info", ("images", "disk0"), {}),
    ("stub:storage.vol_upload", "storage_vol_upload", ("images", "disk0", b"payload", 4096), {}),
    ("stub:storage.vol_upload:default", "storage_vol_upload", ("images", "disk0", b"payload"), {}),
    ("stub:storage.vol_download", "storage_vol_download", ("images", "disk0", 4096, 512), {}),
    ("stub:storage.vol_download:default", "storage_vol_download", ("images", "disk0"), {}),
    ("stub:connect.close", "close", (), {}),
]


class _RecordingClient:
    """Stands where ``RemoteDriver.client`` is: keeps what would be sent."""

    closed = dead = False
    state = "open"  # doubles as the stream ``open_stream`` hands back
    info = None

    def __init__(self, channel=None, **options):
        self.sent = []

    def call(self, procedure, body=None):
        self.sent.append((procedure, body))
        return []

    def open_stream(self, procedure, body=None):
        self.sent.append((procedure, body))
        return self

    def _ignore(self, *args):
        return b""

    close = on_event = remove_event_handler = send = finish = drain = _ignore


def stub_cases():
    """case -> the CALL a ``RemoteDriver`` method sends (as ``RPCClient``
    frames it: procedure number, serial, the body untouched)."""
    with mock.patch("repro.drivers.remote.lookup_daemon", mock.MagicMock()), mock.patch(
        "repro.drivers.remote.RPCClient", _RecordingClient
    ):
        # the constructor dials, and dialling sends connect.open
        driver = RemoteDriver(ConnectionURI.parse("test+tcp://prod1/default"))
    sent = driver.client.sent
    calls = [("stub:connect.open", sent[:])]
    for case, method, args, kwargs in STUB_CALLS:
        del sent[:]
        getattr(driver, method)(*args, **kwargs)
        calls.append((case, sent[:]))
    messages = {}
    for case, made in calls:
        ((procedure, body),) = made  # one stub call is exactly one RPC
        assert case.split(":")[1] == procedure
        messages[case] = RPCMessage(
            procedure_number(procedure), MessageType.CALL, STUB_SERIAL, body=body
        )
    return messages


def cases():
    """name -> the message whose packed form is recorded."""
    return {
        **stub_cases(),
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


def test_every_remote_procedure_has_a_stub_frame():
    covered = {name.split(":")[1] for name in CASES if name.startswith("stub:")}
    assert covered == {name for name in PROCEDURES if not name.startswith("admin.")}


def test_stream_chunk_decodes_as_a_view_of_the_frame():
    frame = bytes.fromhex(golden()["stream_chunk"])
    body = RPCMessage.unpack(memoryview(frame)).body
    assert isinstance(body, memoryview) and body.obj is frame
    assert frame[-1:] == b"\x00" and len(frame) % 4 == 0


if __name__ == "__main__":
    print(json.dumps({name: msg.pack().hex() for name, msg in cases().items()}, indent=1))
