"""The virStream bulk-data plane.

Streams move bulk payloads (volume uploads/downloads, pull-mode
backups, console traffic) outside the procedure-call path: one opening
CALL, then credit-flow-controlled STREAM frames.  These tests cover
the frame grammar and flow control in isolation, the four stream-backed
procedures end to end, teardown under severs / client death / daemon
crashes (a stream must never dangle and an interrupted upload must
never leave a partial volume), and the batched zero-copy RPC fast
paths that ride along.
"""

import tracemalloc

import pytest

import repro
from repro.daemon import Libvirtd
from repro.errors import (
    ConnectionClosedError,
    DaemonCrashError,
    InvalidArgumentError,
    InvalidOperationError,
    OperationAbortedError,
    OperationTimeoutError,
    TransportStalledError,
    VirtError,
)
from repro.faults import CrashPlan, CrashPoint, FaultPlan
from repro.faults.crash import CrashHarness
from repro.rpc.client import RPCClient
from repro.rpc.protocol import (
    MessageType,
    ReplyStatus,
    RPCMessage,
    STREAM_PROCEDURES,
    PROCEDURES,
)
from repro.rpc.retry import IDEMPOTENT_PROCEDURES, is_idempotent
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.stream import DEFAULT_CHUNK, DEFAULT_WINDOW, ClientStream, ServerStream, stream_frame
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DiskDevice, DomainConfig, OSConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

KiB = 1024
MiB = 1024**2
GiB = 1024**3
GiB_KIB = 1024 * 1024

UPLOAD_NUM = PROCEDURES["storage.vol_upload"]


# -- fixtures / helpers ------------------------------------------------------


@pytest.fixture()
def daemon():
    with Libvirtd(hostname="farm1") as d:
        d.listen("tcp")
        yield d


@pytest.fixture()
def conn(daemon):
    connection = repro.open_connection("qemu+tcp://farm1/system")
    yield connection
    connection.close()


@pytest.fixture()
def volume(conn):
    pool = conn.define_storage_pool(
        StoragePoolConfig(name="default", capacity_bytes=10 * GiB)
    )
    pool.start()
    return pool.create_volume(VolumeConfig(name="disk0.qcow2", capacity_bytes=GiB))


def payload_bytes(size):
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def running_domain(conn, name="web1"):
    config = DomainConfig(
        name=name,
        domain_type="kvm",
        memory_kib=GiB_KIB,
        vcpus=1,
        disks=[DiskDevice(f"/img/{name}.qcow2", "vda", capacity_bytes=GiB)],
    )
    return conn.create_domain(config.to_xml())


def assert_no_dangling(conn, daemon):
    assert conn._driver.client.streams_open == 0
    assert daemon.rpc.active_streams() == 0


# -- frame grammar and flow control in isolation -----------------------------


class FakeClient:
    """Duck-typed RPCClient: records frames, delivers nothing back."""

    def __init__(self, link_ok=True, deliver=True):
        self.frames = []
        self.forgotten = []
        self.link_ok = link_ok
        self.deliver = deliver

    def _send_stream_frame(self, frame):
        self.frames.append(RPCMessage.unpack(frame))
        return self.deliver

    def _forget_stream(self, serial):
        self.forgotten.append(serial)

    def _stream_link_ok(self):
        return self.link_ok


class FakeConn:
    def __init__(self):
        self.pushed = []
        self.closed = False

    def push(self, frame):
        if self.closed:
            raise ConnectionClosedError("closed")
        self.pushed.append(RPCMessage.unpack(frame))


class RawConn:
    """Duck-typed ServerConnection: keeps each pushed frame as handed over."""

    def __init__(self):
        self.frames = []

    def push(self, frame):
        self.frames.append(frame)


class FakeServer:
    def __init__(self):
        self.counted = []
        self.closed = []

    def _count_stream_bytes(self, direction, amount):
        self.counted.append((direction, amount))

    def _stream_closed(self, stream, outcome):
        self.closed.append((stream.serial, outcome))


class TestClientStreamFlowControl:
    def test_send_splits_into_chunks_and_spends_credits(self):
        client = FakeClient()
        stream = ClientStream(client, "storage.vol_upload", UPLOAD_NUM, 1, window=8)
        sent = stream.send(payload_bytes(2 * DEFAULT_CHUNK + 5))
        assert sent == 2 * DEFAULT_CHUNK + 5
        data_frames = [f for f in client.frames if not isinstance(f.body, dict)]
        assert [len(f.body) for f in data_frames] == [DEFAULT_CHUNK, DEFAULT_CHUNK, 5]
        assert stream.credits == 8 - 3

    def test_window_exhaustion_stalls_the_sender(self):
        client = FakeClient()
        stream = ClientStream(client, "storage.vol_upload", UPLOAD_NUM, 1, window=2)
        stream.send(b"a")
        stream.send(b"b")
        with pytest.raises(TransportStalledError, match="window exhausted"):
            stream.send(b"c")
        # a credit grant from the peer unblocks it
        stream._on_frame(
            RPCMessage.unpack(
                stream_frame(UPLOAD_NUM, 1, ReplyStatus.CONTINUE, {"op": "credits", "n": 1})
            )
        )
        assert stream.send(b"c") == 1

    def test_completion_frame_finishes_with_result(self):
        client = FakeClient()
        stream = ClientStream(client, "storage.vol_upload", UPLOAD_NUM, 3)
        stream._on_frame(
            RPCMessage.unpack(stream_frame(UPLOAD_NUM, 3, ReplyStatus.OK, {"n": 9}))
        )
        assert stream.state == "finished"
        assert stream.finish() == {"n": 9}
        assert client.forgotten == [3]

    def test_peer_abort_surfaces_as_typed_error(self):
        client = FakeClient()
        stream = ClientStream(client, "storage.vol_upload", UPLOAD_NUM, 4)
        stream._on_frame(
            RPCMessage.unpack(
                stream_frame(
                    UPLOAD_NUM,
                    4,
                    ReplyStatus.ERROR,
                    OperationAbortedError("server said no").to_dict(),
                )
            )
        )
        assert stream.state == "aborted"
        with pytest.raises(OperationAbortedError, match="server said no"):
            stream.send(b"late")

    def test_silently_lost_frame_aborts_instead_of_dangling(self):
        client = FakeClient(deliver=False)
        stream = ClientStream(client, "storage.vol_upload", UPLOAD_NUM, 5)
        with pytest.raises(ConnectionClosedError, match="frame lost"):
            stream.send(b"x")
        assert stream.state == "aborted"
        assert client.forgotten == [5]

    def test_recv_on_dead_link_aborts(self):
        client = FakeClient(link_ok=False)
        stream = ClientStream(client, "storage.vol_download", PROCEDURES["storage.vol_download"], 6)
        with pytest.raises(ConnectionClosedError, match="connection lost"):
            stream.recv()
        assert stream.state == "aborted"

    def test_consuming_chunks_grants_credits_back(self):
        client = FakeClient()
        stream = ClientStream(client, "storage.vol_download", PROCEDURES["storage.vol_download"], 7, window=4)
        for i in range(4):
            stream._on_frame(
                RPCMessage.unpack(
                    stream_frame(stream.number, 7, ReplyStatus.CONTINUE, bytes([i]) * 10)
                )
            )
        for _ in range(4):
            assert stream.recv()
        grants = [f.body for f in client.frames if isinstance(f.body, dict)]
        assert sum(g["n"] for g in grants) == 4


class TestServerStreamFlowControl:
    def make(self, window=DEFAULT_WINDOW):
        server, conn = FakeServer(), FakeConn()
        return ServerStream(server, conn, UPLOAD_NUM, 1, "storage.vol_upload", window), server, conn

    def test_send_respects_client_window_then_queues(self):
        stream, _, conn = self.make(window=2)
        stream.send(payload_bytes(5 * DEFAULT_CHUNK))
        data = [f for f in conn.pushed if not isinstance(f.body, dict)]
        assert len(data) == 2  # window's worth on the wire
        assert len(stream._outbox) == 3  # the rest queued

    def test_credit_grant_pumps_the_outbox(self):
        stream, _, conn = self.make(window=1)
        stream.send(payload_bytes(3 * DEFAULT_CHUNK))
        stream.handle_frame(
            RPCMessage.unpack(
                stream_frame(UPLOAD_NUM, 1, ReplyStatus.CONTINUE, {"op": "credits", "n": 2})
            )
        )
        data = [f for f in conn.pushed if not isinstance(f.body, dict)]
        assert len(data) == 3
        assert not stream._outbox

    def test_slow_reader_overflows_outbox_into_abort(self):
        stream, server, conn = self.make(window=0)
        stream.send(payload_bytes((ServerStream.__init__.__defaults__ and 0 or 0) + 70 * DEFAULT_CHUNK))
        assert stream.state == "aborted"
        assert "slow reader" in stream.error
        assert [f.status for f in conn.pushed][-1] == ReplyStatus.ERROR
        assert server.closed == [(1, "abort")]

    def test_sink_consumption_returns_credits_to_sender(self):
        stream, server, conn = self.make()
        got = []
        stream.set_sink(got.append)
        stream.handle_frame(
            RPCMessage.unpack(stream_frame(UPLOAD_NUM, 1, ReplyStatus.CONTINUE, b"abc"))
        )
        assert [bytes(g) for g in got] == [b"abc"]
        grants = [f.body for f in conn.pushed if isinstance(f.body, dict)]
        assert grants == [{"op": "credits", "n": 1}]
        assert ("in", 3) in server.counted

    def test_source_finishes_with_result_at_exhaustion(self):
        stream, server, conn = self.make(window=8)
        data = payload_bytes(3 * DEFAULT_CHUNK)
        cursor = [0]

        def read(max_bytes):
            if cursor[0] >= len(data):
                return None
            chunk = data[cursor[0] : cursor[0] + max_bytes]
            cursor[0] += len(chunk)
            return chunk

        stream.set_source(read, result={"length": len(data)})
        assert stream.state == "finished"
        assert conn.pushed[-1].status == ReplyStatus.OK
        assert conn.pushed[-1].body == {"length": len(data)}
        assert server.closed == [(1, "finish")]


# -- the four procedures, end to end -----------------------------------------


class TestVolumeUploadDownload:
    def test_roundtrip_over_the_wire(self, conn, daemon, volume):
        data = payload_bytes(MiB)
        info = volume.upload(data)
        assert info.allocation_bytes == MiB
        assert volume.download(0, len(data)) == data
        assert_no_dangling(conn, daemon)

    def test_multi_window_payload_cycles_credits(self, conn, daemon, volume):
        # 12 chunks > the 4-chunk window: progress requires credit grants
        data = payload_bytes(12 * DEFAULT_CHUNK)
        volume.upload(data)
        assert volume.download(0, len(data)) == data
        assert_no_dangling(conn, daemon)

    def test_offsets_and_sparse_reads(self, conn, volume):
        volume.upload(b"\xabcd" * 64, offset=4096)
        got = volume.download(0, 4096 + 256)
        assert got[:4096] == b"\x00" * 4096
        assert got[4096:].startswith(b"\xabcd")

    def test_download_defaults_to_whole_allocation(self, conn, volume):
        data = payload_bytes(64 * KiB)
        volume.upload(data)
        assert volume.download() == data

    def test_upload_past_capacity_keeps_error_class(self, conn, daemon, volume):
        with pytest.raises(InvalidOperationError, match="exceeds"):
            volume.upload(b"x", offset=GiB)
        assert_no_dangling(conn, daemon)
        # the connection survives the failed stream
        assert conn.hostname() == "farm1"

    def test_upload_dirty_blocks_feed_checkpoints(self, conn, daemon, volume):
        volume.upload(payload_bytes(128 * KiB))
        path = volume.info().path
        qemu = daemon.drivers["qemu"]
        assert qemu.backend.images.dirty_blocks(path) == frozenset({0, 1})


class TestConsole:
    def test_banner_echo_and_close(self, conn, daemon):
        dom = running_domain(conn)
        console = dom.open_console()
        assert b"Connected to domain web1" in console.recv()
        console.send(b"uptime\n")
        assert console.recv() == b"uptime\n"
        console.close()
        assert console.closed
        assert_no_dangling(conn, daemon)

    def test_console_requires_running_guest(self, conn):
        config = DomainConfig(name="idle", domain_type="kvm", memory_kib=GiB_KIB, vcpus=1)
        conn.define_domain(config.to_xml())
        with pytest.raises(InvalidOperationError):
            conn.lookup_domain("idle").open_console()

    def test_local_and_remote_consoles_share_the_shape(self, conn):
        from repro.drivers.qemu import QemuDriver

        local = QemuDriver()
        config = DomainConfig(name="web1", domain_type="kvm", memory_kib=GiB_KIB, vcpus=1)
        local.domain_define_xml(config.to_xml())
        local.domain_create("web1")
        lc = local.domain_open_console("web1")
        rc = running_domain(conn).open_console()
        assert lc.recv() == rc.recv()  # identical banner
        for c in (lc, rc):
            c.send(b"hi\n")
            assert c.recv() == b"hi\n"
            c.close()
            assert c.closed


class TestBackupPull:
    def test_full_pull_reads_written_blocks(self, conn, daemon, volume):
        dom = running_domain(conn)
        path = "/img/web1.qcow2"
        qemu = daemon.drivers["qemu"]
        qemu.backend.images.write_bytes(path, 0, payload_bytes(128 * KiB))
        result = dom.backup_pull()
        block_size = result["block_size"]
        assert result["disks"][path] == [0, 1]
        assert result["total_bytes"] == 2 * block_size
        assert result["data"][: 128 * KiB] == payload_bytes(128 * KiB)
        assert not result["incremental"]
        assert_no_dangling(conn, daemon)

    def test_incremental_pull_moves_only_new_blocks(self, conn, daemon):
        dom = running_domain(conn)
        path = "/img/web1.qcow2"
        images = daemon.drivers["qemu"].backend.images
        images.write_bytes(path, 0, payload_bytes(64 * KiB))
        dom.create_checkpoint("cp1")
        # dirty exactly one block beyond the checkpoint
        images.write_bytes(path, 5 * 64 * KiB, b"new data after checkpoint")
        result = dom.backup_pull(incremental="cp1")
        assert result["incremental"] == "cp1"
        assert result["disks"][path] == [5]
        assert result["total_bytes"] == result["block_size"]
        assert result["data"].startswith(b"new data after checkpoint")

    def test_pull_unsupported_for_containers(self, daemon):
        from repro.errors import UnsupportedError

        conn = repro.open_connection("lxc+tcp://farm1/system")
        try:
            config = DomainConfig(
                name="ct1",
                domain_type="lxc",
                memory_kib=GiB_KIB,
                vcpus=1,
                os=OSConfig("exe", "x86_64", [], init="/sbin/init"),
            )
            dom = conn.create_domain(config.to_xml())
            with pytest.raises(UnsupportedError):
                dom.backup_pull()
        finally:
            conn.close()


# -- retry interaction (satellite: streams are never retried) ----------------


class TestStreamRetryExclusion:
    def test_stream_procedures_are_not_idempotent(self):
        assert not IDEMPOTENT_PROCEDURES & STREAM_PROCEDURES
        for procedure in STREAM_PROCEDURES:
            assert not is_idempotent(procedure)

    def test_open_stream_rejects_non_stream_procedures(self, conn):
        client = conn._driver.client
        with pytest.raises(InvalidArgumentError, match="does not carry a stream"):
            client.open_stream("connect.ping")


# -- teardown: severs, disconnects, crashes ----------------------------------


class TestStreamTeardown:
    def test_sever_mid_upload_leaves_no_dangling_stream(self, conn, daemon, volume):
        channel = conn._driver.client._channel
        # let the opening CALL through, then cut the link mid-chunks
        channel.install_fault_plan(FaultPlan().sever(after=channel.frames_sent + 2))
        with pytest.raises((ConnectionClosedError, VirtError)):
            volume.upload(payload_bytes(2 * MiB))
        assert conn._driver.client.streams_open == 0
        # the daemon reaps the dead client; its streams die with it
        for summary in daemon.list_clients():
            daemon.disconnect_client(summary["id"])
        assert daemon.rpc.active_streams() == 0
        # nothing was committed: the volume is untouched
        check = repro.open_connection("qemu+tcp://farm1/system")
        try:
            vol = check.lookup_storage_pool("default").lookup_volume("disk0.qcow2")
            assert vol.info().allocation_bytes == 0
        finally:
            check.close()

    def test_client_abort_discards_staged_upload(self, conn, daemon, volume):
        client = conn._driver.client
        stream = client.open_stream(
            "storage.vol_upload",
            {"pool": "default", "volume": "disk0.qcow2", "offset": 0},
        )
        stream.send(payload_bytes(512 * KiB))
        stream.abort("operator changed their mind")
        assert stream.state == "aborted"
        assert_no_dangling(conn, daemon)
        assert volume.info().allocation_bytes == 0
        assert conn.hostname() == "farm1"  # connection still healthy

    def test_client_disconnect_aborts_server_streams(self, conn, daemon, volume):
        client = conn._driver.client
        stream = client.open_stream(
            "storage.vol_upload",
            {"pool": "default", "volume": "disk0.qcow2", "offset": 0},
        )
        stream.send(payload_bytes(256 * KiB))
        assert daemon.rpc.active_streams() == 1
        conn.close()
        assert daemon.rpc.active_streams() == 0
        aborts = daemon.flight_recorder.records("stream.abort")
        assert aborts and "disconnect" in aborts[-1]["error"]

    def test_console_stream_survives_unrelated_calls(self, conn, daemon):
        dom = running_domain(conn)
        console = dom.open_console()
        console.recv()
        assert conn.hostname() == "farm1"
        assert daemon.rpc.active_streams() == 1
        console.close()
        assert daemon.rpc.active_streams() == 0


class TestCrashMidUpload:
    def setup_harness(self, tmp_path, crash_plan=None):
        harness = CrashHarness(str(tmp_path / "state"))
        harness.start(crash_plan)
        conn = repro.open_connection(harness.uri)
        pool = conn.define_storage_pool(
            StoragePoolConfig(name="backups", capacity_bytes=10 * GiB)
        )
        pool.start()
        vol = pool.create_volume(VolumeConfig(name="b0.qcow2", capacity_bytes=GiB))
        return harness, conn, vol

    def test_crash_before_commit_rolls_back_the_upload(self, tmp_path):
        harness, conn, vol = self.setup_harness(tmp_path)
        # the upload dispatches two wrapped driver calls (validate,
        # commit); crash at the commit's dispatch point — all chunks
        # are staged, nothing has reached the image store yet
        harness.daemon.install_crash_plan(
            CrashPlan().crash(CrashPoint.MID_DISPATCH, op="storage.vol_upload", after=1)
        )
        with pytest.raises((DaemonCrashError, ConnectionClosedError, VirtError)):
            vol.upload(payload_bytes(MiB))
        assert conn._driver.client.streams_open == 0
        harness.restart()
        check = repro.open_connection(harness.uri)
        try:
            vol2 = check.lookup_storage_pool("backups").lookup_volume("b0.qcow2")
            assert vol2.info().allocation_bytes == 0
            assert vol2.download(0, MiB) == b"\x00" * MiB
        finally:
            check.close()
            harness.shutdown()

    def test_torn_journal_commit_is_never_partial(self, tmp_path):
        harness, conn, vol = self.setup_harness(tmp_path)
        data = payload_bytes(MiB)
        harness.daemon.install_crash_plan(
            CrashPlan().crash(CrashPoint.MID_JOURNAL, op="pool:backups")
        )
        with pytest.raises((DaemonCrashError, ConnectionClosedError, VirtError)):
            vol.upload(data)
        harness.restart()
        check = repro.open_connection(harness.uri)
        try:
            vol2 = check.lookup_storage_pool("backups").lookup_volume("b0.qcow2")
            content = vol2.download(0, MiB)
            # all-or-nothing: the commit either fully applied before the
            # journal tore, or never touched the store — a prefix would
            # be a corrupt volume
            assert content in (data, b"\x00" * MiB)
        finally:
            check.close()
            harness.shutdown()


# -- soak: seeded fault sweep (CI stress step) -------------------------------


@pytest.mark.stress
class TestStreamFaultSoak:
    def test_seeded_sever_sweep_never_dangles_or_tears(self):
        """Sever the link at every frame index in turn; whatever the cut
        point, no stream dangles and the volume is all-or-nothing."""
        data = payload_bytes(MiB)
        outcomes = {"committed": 0, "rolled_back": 0}
        for cut in range(1, 16):
            with Libvirtd(hostname=f"soak{cut}") as daemon:
                daemon.listen("tcp")
                conn = repro.open_connection(f"qemu+tcp://soak{cut}/system")
                pool = conn.define_storage_pool(
                    StoragePoolConfig(name="p", capacity_bytes=10 * GiB)
                )
                pool.start()
                vol = pool.create_volume(VolumeConfig(name="v", capacity_bytes=GiB))
                channel = conn._driver.client._channel
                channel.install_fault_plan(
                    FaultPlan().sever(after=channel.frames_sent + cut)
                )
                try:
                    vol.upload(data)
                    outcomes["committed"] += 1
                except VirtError:
                    outcomes["rolled_back"] += 1
                assert conn._driver.client.streams_open == 0
                for summary in daemon.list_clients():
                    daemon.disconnect_client(summary["id"])
                assert daemon.rpc.active_streams() == 0
                check = repro.open_connection(f"qemu+tcp://soak{cut}/system")
                try:
                    content = (
                        check.lookup_storage_pool("p").lookup_volume("v").download(0, MiB)
                    )
                    assert content in (data, b"\x00" * MiB)
                finally:
                    check.close()
        # the sweep must actually exercise both fates
        assert outcomes["rolled_back"] > 0

    def test_seeded_drop_and_delay_mid_download(self):
        for seed_frame in range(2, 10):
            with Libvirtd(hostname=f"soakd{seed_frame}") as daemon:
                daemon.listen("tcp")
                conn = repro.open_connection(f"qemu+tcp://soakd{seed_frame}/system")
                pool = conn.define_storage_pool(
                    StoragePoolConfig(name="p", capacity_bytes=10 * GiB)
                )
                pool.start()
                vol = pool.create_volume(VolumeConfig(name="v", capacity_bytes=GiB))
                vol.upload(payload_bytes(MiB))
                channel = conn._driver.client._channel
                channel.install_fault_plan(
                    FaultPlan()
                    .delay(0.05, frame=channel.frames_sent + seed_frame)
                    .drop(frame=channel.frames_sent + seed_frame + 1)
                )
                try:
                    got = vol.download(0, MiB)
                    assert got == payload_bytes(MiB)
                except VirtError:
                    pass  # a dropped stream frame aborts — never dangles
                assert conn._driver.client.streams_open == 0
                conn.close()
                assert daemon.rpc.active_streams() == 0

    def test_crash_mid_upload_sweep_recovers_clean(self, tmp_path):
        data = payload_bytes(512 * KiB)
        for index in range(4):
            root = tmp_path / f"crash{index}"
            harness = CrashHarness(str(root))
            harness.start()
            conn = repro.open_connection(harness.uri)
            pool = conn.define_storage_pool(
                StoragePoolConfig(name="p", capacity_bytes=10 * GiB)
            )
            pool.start()
            vol = pool.create_volume(VolumeConfig(name="v", capacity_bytes=GiB))
            harness.daemon.install_crash_plan(
                CrashPlan().crash(CrashPoint.MID_DISPATCH, op="storage.vol_upload", after=index)
            )
            try:
                vol.upload(data)
            except VirtError:
                pass
            assert conn._driver.client.streams_open == 0
            harness.restart()
            check = repro.open_connection(harness.uri)
            try:
                content = check.lookup_storage_pool("p").lookup_volume("v").download(0, len(data))
                assert content in (data, b"\x00" * len(data))
            finally:
                check.close()
                harness.shutdown()


# -- one copy per hop, and what the copies used to guarantee -------------------


def server_streams(daemon):
    return [s for streams in list(daemon.rpc._streams.values()) for s in streams.values()]


def closure_var(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


@pytest.mark.stress
class TestBulkCopies:
    def test_oversized_upload_is_refused_before_it_is_buffered(self, conn, daemon, volume):
        small = conn.lookup_storage_pool("default").create_volume(
            VolumeConfig(name="small.qcow2", capacity_bytes=MiB)
        )
        kept = payload_bytes(64 * KiB)
        small.upload(kept)
        with pytest.raises(InvalidOperationError, match="exceeds capacity"):
            small.upload(b"x" * (8 * MiB))
        abort = daemon.flight_recorder.records("stream.abort")[-1]
        assert abort["bytes_in"] <= MiB + DEFAULT_CHUNK
        assert_no_dangling(conn, daemon)
        assert small.info().allocation_bytes == 64 * KiB
        assert small.download(0, MiB) == kept + b"\x00" * (MiB - 64 * KiB)

    def test_negative_offset_is_refused_at_the_opening_call(self, conn, daemon, volume):
        with pytest.raises(InvalidArgumentError, match="non-negative"):
            volume.upload(b"x" * DEFAULT_CHUNK, offset=-1)
        assert daemon.flight_recorder.records("stream.open") == []
        assert_no_dangling(conn, daemon)

    def test_upload_peak_memory_is_about_one_payload(self):
        with Libvirtd(hostname="farm2") as daemon:
            daemon.listen("unix")
            conn = repro.open_connection("qemu+unix://farm2/system")
            try:
                pool = conn.define_storage_pool(
                    StoragePoolConfig(name="default", capacity_bytes=10 * GiB)
                )
                pool.start()
                vol = pool.create_volume(VolumeConfig(name="v", capacity_bytes=GiB))
                data = payload_bytes(4 * MiB)
                vol.upload(data)  # grow the image first: growth is not what is budgeted
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    vol.upload(data)
                    peak = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                # staged frames only (1x); the parent added the staging
                # buffer's bytes() and the slice assignment's temporary (3x)
                assert peak <= 1.5 * len(data)
                assert vol.download(0, len(data)) == data
            finally:
                conn.close()

    def test_one_byte_chunks_pin_a_bounded_number_of_objects(self, conn, daemon, volume):
        stream = conn._driver.client.open_stream(
            "storage.vol_upload", {"pool": "default", "volume": "disk0.qcow2", "offset": 0}
        )
        data = payload_bytes(4096)
        for i in range(len(data)):
            stream.send(data[i : i + 1])
        (server_side,) = server_streams(daemon)
        assert len(closure_var(server_side._on_data, "staged")) <= 2
        stream.finish()
        assert volume.download(0, len(data)) == data
        assert_no_dangling(conn, daemon)

    def test_short_chunks_between_full_ones_keep_their_order(self, conn, daemon, volume):
        stream = conn._driver.client.open_stream(
            "storage.vol_upload", {"pool": "default", "volume": "disk0.qcow2", "offset": 0}
        )
        pieces = [b"ab", payload_bytes(DEFAULT_CHUNK), b"c", b"d", payload_bytes(DEFAULT_CHUNK)[::-1], b"e"]
        for piece in pieces:
            stream.send(piece)
        (server_side,) = server_streams(daemon)
        assert len(closure_var(server_side._on_data, "staged")) == 5
        stream.finish()
        assert volume.download() == b"".join(pieces)

    def test_download_in_flight_is_isolated_from_a_later_upload(self, conn, daemon, volume):
        old = payload_bytes(2 * MiB)
        volume.upload(old)
        stream = conn._driver.client.open_stream(
            "storage.vol_download",
            {"pool": "default", "volume": "disk0.qcow2", "offset": 0, "length": None},
        )
        first = bytes(stream.recv())
        assert len(first) == DEFAULT_CHUNK and stream.state == "open"
        other = repro.open_connection("qemu+tcp://farm1/system")
        try:
            vol = other.lookup_storage_pool("default").lookup_volume("disk0.qcow2")
            vol.upload(old[::-1])
        finally:
            other.close()
        assert first + stream.drain() == old
        assert volume.download(0, len(old)) == old[::-1]
        assert_no_dangling(conn, daemon)

    @pytest.mark.parametrize(
        "size", [0, 1, DEFAULT_CHUNK - 1, DEFAULT_CHUNK, DEFAULT_CHUNK + 1, 4 * MiB]
    )
    def test_drain_returns_exact_bytes(self, conn, daemon, volume, size):
        data = payload_bytes(size)
        volume.upload(data)
        got = volume.download(0, size)
        assert type(got) is bytes and got == data
        assert_no_dangling(conn, daemon)

    def test_multi_chunk_upload_at_an_offset_lands_in_place(self, conn, daemon, volume):
        volume.upload(b"\xee" * (4 * DEFAULT_CHUNK))
        data = payload_bytes(2 * DEFAULT_CHUNK + 5)
        info = volume.upload(data, offset=12345)
        assert info.allocation_bytes == 4 * DEFAULT_CHUNK
        got = volume.download(0, 4 * DEFAULT_CHUNK)
        assert got[:12345] == b"\xee" * 12345
        assert got[12345 : 12345 + len(data)] == data
        assert got[12345 + len(data) :] == b"\xee" * (4 * DEFAULT_CHUNK - 12345 - len(data))


# -- two copies of a streamed byte: the upload frame's join and the download's drain --


def allocated_by(call):
    """``call()``'s result and the peak bytes it allocated on the way."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture()
def local_conn():
    connection = repro.open_connection("qemu:///system")
    pool = connection.define_storage_pool(StoragePoolConfig(name="default", capacity_bytes=10 * GiB))
    pool.start()
    pool.create_volume(VolumeConfig(name="v.qcow2", capacity_bytes=64 * MiB))
    yield connection
    connection.close()


class TestTwoCopiesPerByte:
    """An uploaded byte is copied by the frame the client packs; the
    daemon commits that frame by reference and sends the stored cluster
    back as the download frame's payload, so ``drain`` makes the only
    other copy."""

    def test_download_hands_out_the_stored_clusters(self, local_conn):
        driver = local_conn._driver
        data = payload_bytes(4 * MiB)
        driver.storage_vol_upload("default", "v.qcow2", data)
        snapshot, allocated = allocated_by(
            lambda: driver.storage_vol_download("default", "v.qcow2", 0, len(data))
        )
        assert allocated < 64 * KiB  # the parent copied the 4 MiB here
        assert b"".join(snapshot) == data

    def test_a_full_chunk_upload_commits_its_frames_by_reference(self, local_conn):
        driver = local_conn._driver
        data = payload_bytes(4 * MiB)
        # what the daemon stages: each chunk decoded as a view of its frame
        staged = [
            RPCMessage.unpack(
                memoryview(stream_frame(UPLOAD_NUM, 1, ReplyStatus.CONTINUE, data[i : i + DEFAULT_CHUNK]))
            ).body
            for i in range(0, len(data), DEFAULT_CHUNK)
        ]
        info, allocated = allocated_by(lambda: driver.storage_vol_upload("default", "v.qcow2", staged, 0))
        assert allocated < 64 * KiB  # the parent copied the 4 MiB into the image
        assert info["allocation_bytes"] == len(data)
        assert local_conn.lookup_storage_pool("default").lookup_volume("v.qcow2").download() == data

    def test_backup_pull_joins_its_blocks_once(self, local_conn):
        running_domain(local_conn)
        driver = local_conn._driver
        data = payload_bytes(4 * MiB)
        driver.backend.images.write_bytes("/img/web1.qcow2", 0, data)
        result, allocated = allocated_by(lambda: driver.backup_begin_pull("web1", {}))
        assert result["data"] == data and result["total_bytes"] == len(data)
        # one payload-sized allocation, where the parent made two
        assert allocated < 1.5 * len(data)

    def test_an_rpc_download_copies_each_byte_once(self, conn, daemon, volume):
        data = payload_bytes(4 * MiB)
        volume.upload(data)
        got, allocated = allocated_by(lambda: volume.download(0, len(data)))
        assert got == data
        # drain's join; the parent also joined every chunk into a frame (2x)
        assert allocated < 1.25 * len(data)

    def test_a_received_chunk_is_the_stored_cluster(self, conn, daemon, volume):
        volume.upload(payload_bytes(2 * DEFAULT_CHUNK))
        stored = daemon.drivers["qemu"].storage_vol_download("default", "disk0.qcow2", 0, DEFAULT_CHUNK)
        stream = conn._driver.client.open_stream(
            "storage.vol_download",
            {"pool": "default", "volume": "disk0.qcow2", "offset": 0, "length": None},
        )
        chunk = stream.recv()
        assert isinstance(chunk, memoryview) and isinstance(chunk.obj, bytes)
        assert chunk.obj is stored[0].obj
        assert stream.drain() == payload_bytes(2 * DEFAULT_CHUNK)[DEFAULT_CHUNK:]
        assert_no_dangling(conn, daemon)

    def test_a_writable_daemon_chunk_is_copied_before_it_is_sent(self):
        pushed = RawConn()
        stream = ServerStream(FakeServer(), pushed, 5, 1, "test")
        source = bytearray(payload_bytes(DEFAULT_CHUNK + 10))
        stream.send(source)
        received = [RPCMessage.unpack(frame).body for frame in pushed.frames]
        source[:] = b"\xff" * len(source)
        assert b"".join(received) == payload_bytes(DEFAULT_CHUNK + 10)
        assert all(isinstance(body.obj, bytes) for body in received)

    def test_an_unaligned_download_cuts_chunks_where_a_flat_buffer_would(self, conn, daemon, volume):
        data = payload_bytes(3 * DEFAULT_CHUNK + 100)
        volume.upload(data)
        stream = conn._driver.client.open_stream(
            "storage.vol_download",
            {"pool": "default", "volume": "disk0.qcow2", "offset": 1000, "length": None},
        )
        chunks = []
        while chunk := bytes(stream.recv()):
            chunks.append(chunk)
        assert stream.state == "finished"
        assert [len(chunk) for chunk in chunks] == [DEFAULT_CHUNK, DEFAULT_CHUNK, DEFAULT_CHUNK - 900]
        assert b"".join(chunks) == data[1000:]
        assert stream.result == {"length": len(data) - 1000}
        assert_no_dangling(conn, daemon)


# -- observability (satellite) -----------------------------------------------


class TestStreamObservability:
    def test_flight_recorder_tracks_open_and_finish(self, conn, daemon, volume):
        volume.upload(payload_bytes(300 * KiB))
        opens = daemon.flight_recorder.records("stream.open")
        finishes = daemon.flight_recorder.records("stream.finish")
        assert opens and opens[-1]["procedure"] == "storage.vol_upload"
        assert finishes and finishes[-1]["bytes_in"] == 300 * KiB

    def test_flight_recorder_tracks_aborts(self, conn, daemon, volume):
        stream = conn._driver.client.open_stream(
            "storage.vol_upload", {"pool": "default", "volume": "disk0.qcow2", "offset": 0}
        )
        stream.abort("test abort")
        aborts = daemon.flight_recorder.records("stream.abort")
        assert aborts and aborts[-1]["procedure"] == "storage.vol_upload"
        assert "test abort" in aborts[-1]["error"]

    def test_stream_byte_counters_and_active_gauge(self, conn, daemon, volume):
        volume.upload(payload_bytes(256 * KiB))
        volume.download(0, 256 * KiB)
        snapshot = daemon.metrics.snapshot()["metrics"]["stream_bytes_total"]
        by_direction = {
            s["labels"]["direction"]: s["value"] for s in snapshot["samples"]
        }
        assert by_direction["in"] >= 256 * KiB
        assert by_direction["out"] >= 256 * KiB
        gauge = daemon.metrics.snapshot()["metrics"]["stream_active"]["samples"]
        assert gauge[0]["value"] == 0

    def test_stream_transfer_span_carries_byte_counts(self, conn, daemon, volume):
        volume.upload(payload_bytes(128 * KiB))
        spans = daemon.tracer.find("stream.transfer")
        assert spans
        span = spans[-1]
        assert span.attributes["procedure"] == "storage.vol_upload"
        assert span.attributes["bytes_in"] == 128 * KiB
        assert span.attributes["status"] == "ok"


# -- batched + zero-copy RPC fast paths --------------------------------------


def make_pair(clock, handlers=None, transport="tcp"):
    server = RPCServer()
    for name, fn in (handlers or {}).items():
        server.register(name, fn)
    listener = Listener(transport, clock=clock)
    channel = listener.connect()
    server.attach(channel._server_conn)
    client = RPCClient(channel)
    return client, server, channel


class TestCallBatching:
    def test_call_many_returns_aligned_results(self):
        clock = VirtualClock()
        client, _, _ = make_pair(
            clock, handlers={"connect.ping": lambda conn, body: body}
        )
        results = client.call_many([("connect.ping", i) for i in range(8)])
        assert results == list(range(8))
        assert client.calls_made >= 8

    def test_batching_coalesces_transport_latency(self):
        clock = VirtualClock()
        client, _, _ = make_pair(
            clock, handlers={"connect.ping": lambda conn, body: "pong"}
        )
        t0 = clock.now()
        for _ in range(8):
            client.call("connect.ping")
        serial_elapsed = clock.now() - t0
        t1 = clock.now()
        client.call_many([("connect.ping", None)] * 8)
        batched_elapsed = clock.now() - t1
        assert batched_elapsed < serial_elapsed / 2

    def test_call_many_surfaces_the_first_failure_after_collecting_all(self):
        clock = VirtualClock()

        def flaky(conn, body):
            if body == "boom":
                raise InvalidArgumentError("boom")
            return body

        client, _, _ = make_pair(clock, handlers={"connect.ping": flaky})
        with pytest.raises(InvalidArgumentError, match="boom"):
            client.call_many(
                [("connect.ping", "ok"), ("connect.ping", "boom"), ("connect.ping", "ok2")]
            )
        # the failed batch left nothing pending
        assert not client._pending

    def test_a_lost_batch_reply_times_out_after_collecting_all(self):
        clock = VirtualClock()
        served = []

        def ping(conn, body):
            served.append(body)
            return body

        client, _, channel = make_pair(clock, handlers={"connect.ping": ping})
        channel.install_fault_plan(FaultPlan().drop(frame=1, direction="recv"))
        t0 = clock.now()
        with pytest.raises(OperationTimeoutError):
            client.call_many([("connect.ping", i) for i in range(3)], timeout=1.0)
        assert served == [0, 1, 2]  # the request reached the server
        assert clock.now() - t0 >= 1.0  # the lost reply's wait was charged
        assert client.timeouts == 1
        assert not client._pending


class TestZeroCopyXdr:
    def test_stream_chunk_decodes_as_view_over_the_frame(self):
        payload = payload_bytes(DEFAULT_CHUNK)
        frame = stream_frame(UPLOAD_NUM, 9, ReplyStatus.CONTINUE, payload)
        message = RPCMessage.unpack(memoryview(frame))
        assert isinstance(message.body, memoryview)
        assert message.body.obj is frame  # a view, not a copy
        assert bytes(message.body) == payload

    def test_pack_opaque_accepts_views_without_copying(self):
        from repro.rpc.xdr import XdrDecoder, XdrEncoder

        buf = bytearray(payload_bytes(64 * KiB))
        view = memoryview(buf)
        encoder = XdrEncoder().pack_opaque(view)
        # the encoder holds the view by reference until the final join
        assert any(part is view for part in encoder._parts)
        packed = encoder.data()
        out = XdrDecoder(memoryview(packed)).unpack_opaque()
        assert isinstance(out, memoryview)  # sub-view, not a copy
        assert bytes(out) == bytes(buf)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, DEFAULT_CHUNK - 1, DEFAULT_CHUNK])
    def test_a_data_frame_is_pushed_as_its_gather_form(self, size):
        from repro.rpc.protocol import HEADER_BYTES, peek_message_type

        pushed = RawConn()
        stream = ServerStream(FakeServer(), pushed, UPLOAD_NUM, 7, "test")
        payload = payload_bytes(size)
        stream.send(payload)
        (frame,) = pushed.frames
        assert isinstance(frame, list)
        assert b"".join(frame) == stream_frame(UPLOAD_NUM, 7, ReplyStatus.CONTINUE, payload)
        head = frame[0]
        assert len(head) == HEADER_BYTES and peek_message_type(head) == MessageType.STREAM
        # the payload buffer is the chunk itself, never joined into the frame
        assert frame[2].obj is payload
        message = RPCMessage.unpack(frame)
        assert message.body.obj is payload and bytes(message.body) == payload

    def test_stream_type_word_peeks_without_full_unpack(self):
        from repro.rpc.protocol import peek_message_type

        frame = stream_frame(UPLOAD_NUM, 1, ReplyStatus.CONTINUE, b"chunk")
        assert peek_message_type(memoryview(frame)) == MessageType.STREAM
        assert peek_message_type(b"\x00" * 8) is None  # truncated header
