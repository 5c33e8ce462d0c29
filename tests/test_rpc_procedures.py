"""The procedure table and everything derived from it.

``tests/data/procedures_parent.json`` is what PR 13's parent wrote down
by hand in four places — the name -> number map, the priority lane as a
fresh daemon registered it, the retry allowlist, the stream set — so
"append-only, never renumber" and "the refactor moved nothing" are
checked here instead of promised in a comment.

``docs/PROTOCOL.md`` carries the table; to print it after a new row::

    PYTHONPATH=src python tests/test_rpc_procedures.py
"""

import inspect
import json
import pathlib
import re
import sys
import threading

import pytest

import repro
from repro.core.driver import FEATURES, Driver
from repro.daemon import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.drivers.remote import RemoteDriver
from repro.errors import InvalidArgumentError
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.hypervisors.timing import model_for
from repro.rpc.procedures import ADMIN_PROCEDURES, BY_NAME, REMOTE_PROCEDURES, Procedure, index
from repro.rpc.protocol import PROCEDURES, STREAM_PROCEDURES, MessageType, ReplyStatus, RPCMessage
from repro.rpc.retry import IDEMPOTENT_PROCEDURES
from repro.rpc.transport import ASYNC_REPLY
from repro.state import StateDir, StateJournal
from repro.util.clock import VirtualClock
from repro.util.typedparams import ParamType, TypedParameter
from repro.xmlconfig.domain import DiskDevice, DomainConfig, InterfaceDevice
from repro.xmlconfig.network import DHCPRange, IPConfig, NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

REPO = pathlib.Path(__file__).resolve().parent.parent
PARENT = json.loads((REPO / "tests" / "data" / "procedures_parent.json").read_text())
#: rows the daemon answers with a handler written by hand; every other
#: row that names a method is a compiled pass-through to it
HAND_WRITTEN = {
    "connect.domain_event_register", "connect.domain_event_deregister", "domain.backup_begin",
    "connect.event_subscribe", "connect.event_unsubscribe", "storage.vol_upload",
    "storage.vol_download", "domain.open_console", "domain.backup_begin_pull",
}
PASS_THROUGH = [row for row in REMOTE_PROCEDURES if row.method is not None and row.name not in HAND_WRITTEN]
GiB = 1024**3


def positional(function):
    """(name, default) of each parameter after ``self``."""
    return [(p.name, p.default) for p in list(inspect.signature(function).parameters.values())[1:]]


class TestParentSnapshot:
    """Append-only: what the parent recorded still reads the same; a row
    added since takes a remote number above the parent's and below 100."""

    def test_numbers_are_the_parents(self):
        assert {row.name: row.number for row in BY_NAME.values()} == PROCEDURES
        assert {name: PROCEDURES.get(name) for name in PARENT["numbers"]} == PARENT["numbers"]
        added = [row for row in BY_NAME.values() if row.name not in PARENT["numbers"]]
        assert all(row in REMOTE_PROCEDURES and 85 < row.number < 100 for row in added)

    def test_priority_lane_is_the_parents(self):
        was = [r.name for r in REMOTE_PROCEDURES if r.priority and r.name in PARENT["numbers"]]
        assert sorted(was) == PARENT["priority"]

    def test_retry_allowlist_is_the_parents(self):
        assert sorted(IDEMPOTENT_PROCEDURES & PARENT["numbers"].keys()) == PARENT["idempotent"]

    def test_stream_set_is_the_parents(self):
        assert sorted(STREAM_PROCEDURES & PARENT["numbers"].keys()) == PARENT["stream"]


class TestTableInvariants:
    def test_a_number_or_name_declared_twice_is_refused(self):
        with pytest.raises(ValueError, match="declared twice"):
            index((Procedure(1, "a.b"), Procedure(1, "a.c")))
        with pytest.raises(ValueError, match="declared twice"):
            index((Procedure(1, "a.b"),), (Procedure(2, "a.b"),))

    def test_a_retry_safe_stream_is_refused(self):
        with pytest.raises(ValueError, match="may not be marked idempotent"):
            index((Procedure(1, "a.b", stream=True, idempotent=True),))

    def test_a_non_blocking_row_off_the_priority_lane_or_with_a_stream_is_refused(self):
        with pytest.raises(ValueError, match="non-blocking procedure 'a.b' must be priority"):
            index((Procedure(1, "a.b", blocking=False),))
        with pytest.raises(ValueError, match="non-blocking procedure 'a.b' must .* open no stream"):
            index((Procedure(1, "a.b", priority=True, stream=True, blocking=False),))
        index((Procedure(1, "a.b", priority=True, blocking=False),))

    def test_admin_rows_carry_number_and_name_only(self):
        assert all(row == Procedure(row.number, row.name) for row in ADMIN_PROCEDURES)

    @pytest.mark.parametrize("row", PASS_THROUGH, ids=lambda row: row.name)
    def test_row_matches_its_driver_method(self, row):
        assert len(positional(getattr(Driver, row.method))) == len(row.args)

    def test_only_reads_are_cached(self):
        assert all(row.idempotent and row.method for row in REMOTE_PROCEDURES if row.cache)


class TestFeatureColumn:
    """``Driver.features`` reads a feature's methods off these rows."""

    def test_every_feature_but_remote_has_rows_and_every_row_a_known_feature(self):
        carried = {row.feature for row in REMOTE_PROCEDURES if row.feature is not None}
        assert carried == set(FEATURES) - {"remote"}
        assert all(row.method for row in REMOTE_PROCEDURES if row.feature)

    def test_the_hand_written_rows_carry_their_features(self):
        by_feature = {}
        for row in REMOTE_PROCEDURES:
            if row.feature:
                by_feature.setdefault(row.feature, []).append(row.method)
        assert by_feature["backup"] == ["domain_abort_job", "backup_begin", "backup_begin_pull"]
        assert by_feature["events"] == ["domain_event_register", "domain_event_deregister"]
        assert by_feature["bulk_streams"] == ["storage_vol_upload", "storage_vol_download", "domain_open_console"]
        assert sum(map(len, by_feature.values())) == 62

    def test_the_remote_driver_serves_every_driver_method(self):
        """Each public ``Driver`` method is a row's stub or written in the
        ``RemoteDriver`` body; ``supports_feature`` rides ``features``."""
        methods = {row.method for row in REMOTE_PROCEDURES if row.method}
        surface = {name for name, value in vars(Driver).items() if callable(value) and not name.startswith("_")}
        assert methods <= surface and methods <= set(vars(RemoteDriver))
        assert surface - methods - set(vars(RemoteDriver)) == {"supports_feature"}


def call_frame(row, serial, body=None):
    return RPCMessage(row.number, MessageType.CALL, serial, ReplyStatus.OK, body).pack()


class TestDaemonRegistration:
    def test_every_row_is_served_on_its_lane(self):
        """A non-blocking CALL is answered by ``dispatch`` itself; a
        blocking one is handed to the pool, on the row's lane."""
        with Libvirtd(hostname="procedures-reg") as daemon:
            listener = daemon.listen("unix")
            jobs = daemon.metrics.get("workerpool_jobs_total")
            lanes = {
                lane: jobs.labels(pool=daemon.pool.name, lane=lane) for lane in ("priority", "normal")
            }
            for row in REMOTE_PROCEDURES:
                assert daemon.rpc.registered(row.name), row.name
                # a connection of its own: connect.close ends the one it is sent on
                conn = listener.connect()._server_conn
                before = {lane: child.value for lane, child in lanes.items()}
                reply = daemon.rpc.dispatch(conn, call_frame(row, row.number))
                moved = {lane: child.value - before[lane] for lane, child in lanes.items()}
                if row.blocking:
                    assert reply is ASYNC_REPLY, row.name
                    lane = "priority" if row.priority else "normal"
                    assert moved == {"priority": 0, "normal": 0, lane: 1}, row.name
                else:
                    assert RPCMessage.unpack(reply).serial == row.number, row.name
                    assert moved == {"priority": 0, "normal": 0}, row.name
            assert len(daemon.rpc._procedures) == len(REMOTE_PROCEDURES)

    def test_admin_server_serves_every_admin_row(self):
        with Libvirtd(hostname="procedures-admin") as daemon:
            daemon.enable_admin()
            admin = daemon._rpc_by_server["admin"]
            assert all(admin.registered(row.name) for row in ADMIN_PROCEDURES)
            assert len(admin._procedures) == len(ADMIN_PROCEDURES)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A ``state_dir`` daemon holding one of everything a read can name."""

    def guest(name):
        disk = DiskDevice(f"/img/{name}.qcow2", "vda", capacity_bytes=GiB, driver_format="qcow2")
        return DomainConfig(
            name=name, domain_type="kvm", memory_kib=1024 * 1024, vcpus=1, disks=[disk]
        ).to_xml()

    state_dir = str(tmp_path_factory.mktemp("procedures-reads"))
    with Libvirtd(hostname="procedures-reads", state_dir=state_dir) as daemon:
        daemon.listen("tcp")
        conn = repro.open_connection("qemu+tcp://procedures-reads/system")
        drv = conn._driver
        for name in ("running", "shutoff"):
            drv.domain_define_xml(guest(name))
        drv.domain_create("running")
        drv.snapshot_create("running", "s1")
        drv.checkpoint_create("running", "c1")
        dhcp = DHCPRange("10.0.0.2", "10.0.0.50")
        drv.network_define_xml(
            NetworkConfig(name="net", ip=IPConfig("10.0.0.1", "255.255.255.0", dhcp)).to_xml()
        )
        drv.network_create("net")
        drv.storage_pool_define_xml(StoragePoolConfig(name="pool", capacity_bytes=10 * GiB).to_xml())
        drv.storage_pool_create("pool")
        drv.storage_vol_create_xml("pool", VolumeConfig(name="vol", capacity_bytes=GiB).to_xml())
        values = {
            guest: {
                "domain.name": guest, "network.name": "net", "storage.name": "pool",
                "uuid": drv.domain_lookup_by_name(guest)["uuid"],
                "id": drv.domain_lookup_by_name("running")["id"],
                "checkpoint": "c1", "pool": "pool", "volume": "vol",
            }
            for guest in ("running", "shutoff")
        }
        yield daemon, drv.client._channel._server_conn, values
        conn.close()


class TestBlockingColumn:
    """``blocking=False`` is a claim about the handler; here it is checked."""

    @pytest.mark.parametrize(
        "row", [row for row in PASS_THROUGH if not row.blocking], ids=lambda row: row.name
    )
    def test_a_non_blocking_row_leaves_no_trace(self, served, row):
        daemon, conn, values = served
        qemu = daemon.drivers["qemu"]
        group = row.name.split(".")[0]

        def trace():
            quiet = [r for r in daemon.flight_recorder.records() if not r["kind"].startswith("rpc.")]
            return qemu._state.lsn, qemu.events.published, len(quiet), daemon.pool.jobs_completed

        for serial, guest in enumerate(("running", "shutoff"), start=1):
            known = values[guest]
            body = {arg: known.get(f"{group}.{arg}", known.get(arg)) for arg in row.args}
            before, started = trace(), daemon.clock.now()
            reply = daemon.rpc.dispatch(conn, call_frame(row, 1000 * row.number + serial, body or None))
            assert isinstance(reply, bytes), "answered on the receiving thread"
            assert trace() == before
            # at most one monitor ``query``, and only a running guest has a monitor
            charge = model_for("kvm").cost("query") if guest == "running" else 0.0
            assert daemon.clock.now() - started in (0.0, pytest.approx(charge))
            if (row.name, guest) != ("domain.checkpoint_get_xml_desc", "shutoff"):  # none there
                assert RPCMessage.unpack(reply).status == ReplyStatus.OK


JOURNAL_KINDS = ("domain", "network", "pool", "job")


def replayed(qemu):
    """What recovery would replay: the journal read back from its directory."""
    journal = StateJournal(StateDir(qemu._state.statedir.root))
    return {kind: journal.entries(kind) for kind in JOURNAL_KINDS}


def live(qemu):
    """Every record as the driver's own serialisers write it now."""
    with qemu._lock:
        keys = {
            "domain": set(qemu._domains),
            "network": set(qemu._networks),
            "pool": set(qemu._pools),
            "job": {name for name, record in qemu._domains.items() if record.job is not None},
        }
        serialised = {
            kind: {key: getattr(qemu, f"_serialize_{kind}")(key) for key in names} for kind, names in keys.items()
        }
    return json.loads(json.dumps(serialised))  # as the journal encodes it


def view(qemu):
    """The uncached reads a ``?cache=1`` client keeps: both lists, and
    each domain's state and XML."""
    active, inactive = set(qemu.list_domains()), set(qemu.list_defined_domains())
    domains = {n: (qemu.domain_get_state(n), qemu.domain_get_xml_desc(n)) for n in active | inactive}
    return active, inactive, domains


@pytest.fixture()
def mutating(tmp_path):
    """A ``state_dir`` daemon to mutate, and a peer to migrate from and to."""
    with Libvirtd(hostname="mutating-peer") as peer, Libvirtd(
        hostname="mutating", state_dir=str(tmp_path / "state")
    ) as daemon:
        peer.listen("tcp")
        daemon.listen("tcp")
        other = repro.open_connection("qemu+tcp://mutating-peer/system")._driver
        other.domain_define_xml(DomainConfig(name="p1", domain_type="kvm", memory_kib=1024 * 1024).to_xml())
        other.domain_create("p1")
        conn = repro.open_connection("qemu+tcp://mutating/system")
        yield daemon, conn._driver, other
        conn.close()
        other.close()


def mutating_script(drv, other):
    """(row, call) for every pass-through ``blocking=True`` row plus the
    stream commit and ``backup_begin``, in an order that makes each legal."""
    nic = InterfaceDevice("network", "net")
    pool = StoragePoolConfig(name="pool", capacity_bytes=10 * GiB)
    # the guest's disk is the uploaded volume: a backup then has bytes to move
    disk = DiskDevice(f"{pool.target_path}/vol", "vda", capacity_bytes=GiB)
    m1 = DomainConfig(
        name="m1", domain_type="kvm", memory_kib=1024 * 1024, vcpus=2, disks=[disk], interfaces=[nic]
    ).to_xml()
    extra = '<disk type="file" device="disk"><source file="/img/m1-extra.qcow2"/><target dev="vdb"/></disk>'
    dhcp = DHCPRange("10.1.0.2", "10.1.0.50")
    net = NetworkConfig(name="net", ip=IPConfig("10.1.0.1", "255.255.255.0", dhcp)).to_xml()
    shares = [TypedParameter("cpu_shares", ParamType.ULLONG, 2048)]
    t1 = DomainConfig(name="t1", domain_type="kvm", memory_kib=1024 * 1024).to_xml()
    incoming = {}
    return [
        ("network.define_xml", lambda: drv.network_define_xml(net)),
        ("network.create", lambda: drv.network_create("net")),
        ("storage.pool_define_xml", lambda: drv.storage_pool_define_xml(pool.to_xml())),
        ("storage.pool_create", lambda: drv.storage_pool_create("pool")),
        ("storage.vol_create_xml", lambda: drv.storage_vol_create_xml(
            "pool", VolumeConfig(name="vol", capacity_bytes=GiB).to_xml())),
        ("storage.vol_upload", lambda: drv.storage_vol_upload("pool", "vol", bytes(range(256)) * 256)),
        ("domain.define_xml", lambda: drv.domain_define_xml(m1)),
        ("domain.create", lambda: drv.domain_create("m1")),
        ("domain.suspend", lambda: drv.domain_suspend("m1")),
        ("domain.resume", lambda: drv.domain_resume("m1")),
        ("domain.reboot", lambda: drv.domain_reboot("m1")),
        ("domain.set_memory", lambda: drv.domain_set_memory("m1", 512 * 1024)),
        ("domain.set_vcpus", lambda: drv.domain_set_vcpus("m1", 1)),
        ("domain.set_scheduler_params", lambda: drv.domain_set_scheduler_params("m1", shares)),
        ("domain.set_autostart", lambda: drv.domain_set_autostart("m1", True)),
        ("domain.attach_device", lambda: drv.domain_attach_device("m1", extra)),
        ("domain.detach_device", lambda: drv.domain_detach_device("m1", extra)),
        ("domain.snapshot_create", lambda: drv.snapshot_create("m1", "s1")),
        ("domain.snapshot_revert", lambda: drv.snapshot_revert("m1", "s1")),
        ("domain.snapshot_delete", lambda: drv.snapshot_delete("m1", "s1")),
        ("domain.checkpoint_create", lambda: drv.checkpoint_create("m1", "c1")),
        ("domain.backup_begin", lambda: drv.backup_begin("m1", {"pool": "pool", "bandwidth_mib_s": 0.01})),
        ("domain.abort_job", lambda: drv.domain_abort_job("m1")),
        ("domain.checkpoint_delete", lambda: drv.checkpoint_delete("m1", "c1")),
        ("domain.save", lambda: drv.domain_save("m1", "/saves/m1.img")),
        ("domain.restore", lambda: drv.domain_restore("/saves/m1.img")),
        ("domain.managed_save", lambda: drv.domain_managed_save("m1")),
        ("domain.managed_save_remove", lambda: drv.domain_managed_save_remove("m1")),
        ("domain.create_xml", lambda: drv.domain_create_xml(t1)),
        ("domain.shutdown", lambda: drv.domain_shutdown("t1")),
        ("domain.create", lambda: drv.domain_create("m1")),
        ("domain.migrate_begin", lambda: drv.migrate_begin("m1")),
        ("domain.migrate_perform", lambda: drv.migrate_perform("m1", {"name": "m1"}, {"live": True})),
        ("domain.migrate_confirm", lambda: drv.migrate_confirm("m1", True)),
        ("domain.migrate_prepare", lambda: incoming.update(drv.migrate_prepare(other.migrate_begin("p1")))),
        ("domain.migrate_finish", lambda: drv.migrate_finish(incoming, {"failed": True})),
        ("connect.get_all_domain_stats", lambda: drv.get_all_domain_stats(None)),
        ("domain.migrate_p2p", lambda: drv.migrate_p2p("m1", "qemu+tcp://mutating-peer/system", {})),
        ("domain.create", lambda: drv.domain_create("m1")),
        ("domain.destroy", lambda: drv.domain_destroy("m1")),
        ("domain.undefine", lambda: drv.domain_undefine("m1")),
        ("storage.vol_delete", lambda: drv.storage_vol_delete("pool", "vol")),
        ("storage.pool_destroy", lambda: drv.storage_pool_destroy("pool")),
        ("storage.pool_undefine", lambda: drv.storage_pool_undefine("pool")),
        ("network.destroy", lambda: drv.network_destroy("net")),
        ("network.undefine", lambda: drv.network_undefine("net")),
    ]


class TestMutatingRows:
    """What replaced the publish-on-mutate and journal-on-mutate lints:
    the outcome of every mutating row, checked after each call."""

    def test_the_script_covers_every_mutating_row(self):
        rows = {row.name for row in PASS_THROUGH if row.blocking}
        named = {name for name, _ in mutating_script(None, None)}
        assert named == rows | {"storage.vol_upload", "domain.backup_begin"}

    def test_journalled_before_published_and_published_when_changed(self, mutating):
        daemon, drv, other = mutating
        qemu = daemon.drivers["qemu"]
        bus = qemu.events
        locked, durable_at = [], {}

        def heard(record):
            locked.append(qemu._lock._is_owned())
            durable_at[record["seq"]] = qemu._state.lsn

        bus.subscribe(heard)
        for row, call in mutating_script(drv, other):
            before, seq, written = view(qemu), bus.published, daemon.flight_recorder.records_total
            call()
            # (a) live state is what recovery would replay
            assert live(qemu) == replayed(qemu), row
            # (b) each domain whose reads or list membership changed was named
            after = view(qemu)
            changed = (before[0] ^ after[0]) | (before[1] ^ after[1])
            changed |= {n for n in before[2].keys() | after[2].keys() if before[2].get(n) != after[2].get(n)}
            named = {r["domain"] for r in bus.record_history if r["seq"] > seq}
            assert changed <= named, (row, changed - named)
            # (c) the call journalled every record before it published any:
            # each mutation's records were durable when its events arrived
            fresh = daemon.flight_recorder.records()[-(daemon.flight_recorder.records_total - written):]
            mutations = [r for r in fresh if r["kind"] == "mutation"]
            assert [e[0] for r in mutations for e in r["events"]] == [
                r["seq"] for r in bus.record_history if r["seq"] > seq
            ], row
            for mutation in mutations:
                for event in mutation["events"]:
                    assert all(lsn <= durable_at[event[0]] for _, _, lsn in mutation["journal"]), row
            kinds = "".join("j" * len(r["journal"]) + "e" * len(r["events"]) for r in mutations)
            # p2p is two mutations on this host: the perform, then the confirm
            assert re.fullmatch("(j+e+){2}" if row == "domain.migrate_p2p" else "j*e*", kinds), (row, kinds)
            # (e) every domain reads as its config renders now: a write
            # that forgot its ``m.touch`` would still serve the old text
            with qemu._lock:
                rendered = {n: record.config.to_xml() for n, record in qemu._domains.items()}
            assert {n: qemu.domain_get_xml_desc(n) for n in rendered} == rendered, row
        # (d) no subscriber ever ran under the driver lock
        assert locked and not any(locked)


class TestJobHookLockOrder:
    def test_lazy_job_completion_beside_a_checkpoint_finishes(self, tmp_path):
        """The job engine runs a finished backup's hook (a mutation)
        under its own lock; a mutator must never hold the driver lock
        while it asks the engine anything, or these two deadlock."""
        clock = VirtualClock()
        qemu = QemuDriver(QemuBackend(host=SimHost(hostname="lockorder", clock=clock), clock=clock))
        qemu.attach_state(StateJournal(StateDir(str(tmp_path / "state")), clock=clock))
        for name in ("g1", "g2"):
            disk = DiskDevice(f"/img/{name}.qcow2", "vda", capacity_bytes=GiB, driver_format="qcow2")
            qemu.domain_define_xml(
                DomainConfig(name=name, domain_type="kvm", memory_kib=1024 * 1024, disks=[disk]).to_xml()
            )
            qemu.domain_create(name)
        qemu.backend.images.write("/img/g1.qcow2", 64 * 1024 * 1024)
        qemu.storage_pool_define_xml(StoragePoolConfig(name="pool", capacity_bytes=10 * GiB).to_xml())
        qemu.storage_pool_create("pool")

        # the order itself, checked on every entry into the engine
        entered_locked = []
        for method in ("active", "begin", "cancel", "fail_active", "info"):
            def spy(*args, original=getattr(qemu.jobs, method), **kwargs):
                entered_locked.append(qemu._lock._is_owned())
                return original(*args, **kwargs)

            setattr(qemu.jobs, method, spy)

        def poll(start):
            start.wait(timeout=5)
            while qemu.domain_get_job_info("g1").get("phase") == "running":
                pass

        def checkpoints(start, trial):
            start.wait(timeout=5)
            for n in range(5):
                qemu.checkpoint_create("g2", f"c{trial}.{n}")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                qemu.backup_begin("g1", {"pool": "pool", "volume": f"b{trial}"})
                clock.advance(3600.0)  # the job is over; nobody has looked yet
                start = threading.Barrier(2)
                threads = [
                    threading.Thread(target=poll, args=(start,)),
                    threading.Thread(target=checkpoints, args=(start, trial)),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads), f"deadlocked in trial {trial}"
                assert qemu.domain_get_job_info("g1")["phase"] == "completed"
        finally:
            sys.setswitchinterval(switch)
        assert len(qemu.checkpoint_list("g2")) == 100
        assert entered_locked and not any(entered_locked)
        assert live(qemu) == replayed(qemu)


class TestGeneratedStubs:
    @pytest.mark.parametrize("row", PASS_THROUGH, ids=lambda row: row.name)
    def test_stub_has_the_driver_methods_signature(self, row):
        stub = vars(RemoteDriver)[row.method]
        want = positional(getattr(Driver, row.method))
        if row.cache is not None:
            want.append(("cached", True))
        assert positional(stub) == want

    def test_the_cached_reads(self):
        assert sorted(row.method for row in REMOTE_PROCEDURES if row.cache) == [
            "domain_get_state", "domain_get_xml_desc", "domain_lookup_by_name",
            "list_defined_domains", "list_domains", "num_of_domains",
        ]


@pytest.fixture(scope="module")
def client():
    with Libvirtd(hostname="procedures-args") as daemon:
        daemon.listen("tcp")
        conn = repro.open_connection("test+tcp://procedures-args/default")
        yield conn._driver.client
        conn.close()


class TestMalformedBody:
    """A CALL body is outside input: the reply is a typed argument error."""

    @pytest.mark.parametrize(
        "row", [row for row in REMOTE_PROCEDURES if row.args], ids=lambda row: row.name
    )
    def test_missing_arguments_are_named(self, client, row):
        first = row.args[0]
        for body in (None, {}, {"nam": "x"}):
            with pytest.raises(InvalidArgumentError) as caught:
                client.call(row.name, body)
            assert row.name in str(caught.value) and first in str(caught.value)
        for later in row.args[1:]:
            given = dict.fromkeys(row.args[: row.args.index(later)], "x")
            with pytest.raises(InvalidArgumentError, match=f"{row.name} requires argument '{later}'"):
                client.call(row.name, given)
        for body in ([1, 2], 5, "str"):
            with pytest.raises(InvalidArgumentError, match=f"{row.name} requires a"):
                client.call(row.name, body)
        assert client.call("connect.ping") == "pong"

    @pytest.mark.parametrize("name", ["connect.supports_feature", "connect.event_subscribe"])
    def test_optional_arguments_still_need_a_map(self, client, name):
        with pytest.raises(InvalidArgumentError, match=f"{name} requires a map body, got list"):
            client.call(name, [1, 2])


# -- docs/PROTOCOL.md ---------------------------------------------------------


def lane(row):
    if not row.blocking:
        return "inline"
    return "priority" if row.priority else "normal"


def doc_rows():
    """The table rows exactly as ``docs/PROTOCOL.md`` must carry them."""
    yes = {True: "yes", False: "no"}
    remote = [
        f"| {r.number} | `{r.name}` | {lane(r)} | {yes[r.idempotent]} | {yes[r.stream]} |"
        for r in REMOTE_PROCEDURES
    ]
    return remote + [f"| {r.number} | `{r.name}` |" for r in ADMIN_PROCEDURES]


def test_protocol_doc_carries_the_table_verbatim():
    text = (REPO / "docs" / "PROTOCOL.md").read_text()
    section = text.split("## Procedure number space")[1].split("\n## ")[0]
    assert [line for line in section.splitlines() if re.match(r"\| \d+ \|", line)] == doc_rows()


if __name__ == "__main__":
    print("\n".join(doc_rows()))
