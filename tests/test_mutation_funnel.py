"""Behaviour of ``StatefulDriver``'s one mutation path.

Every mutator checks and writes its bookkeeping under the driver lock,
journals what it changed, and only then announces it.  Two things follow
and are checked here:

* a check and the write it guards are one step, so an undefine racing a
  create cannot leave a network or pool active but undefined, and a
  change refused part-way leaves nothing behind;
* every state change is written down and announced, so a guest that
  migrated away gives its DHCP lease back and a ``?cache=1`` client never
  keeps a state the daemon has left, a migration's rollback included;
* a domain's XML is rendered once per change and only from a committed
  config: the journal and every reader share that one rendering.
"""

import collections
import sys
import threading
import time

import pytest

from repro.core.states import DomainState
from repro.core.uri import ConnectionURI
from repro.daemon import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.drivers.remote import RemoteDriver
from repro.errors import (
    InsufficientResourcesError,
    InvalidOperationError,
    NoDomainError,
    NoNetworkError,
    NoStoragePoolError,
    VirtError,
    XMLError,
)
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.migration.manager import run_handshake
from repro.state import StateDir, StateJournal
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DiskDevice, DomainConfig, InterfaceDevice
from repro.xmlconfig.network import DHCPRange, IPConfig, NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig
from tests.test_rpc_procedures import live, replayed

GiB = 1024**3


class ParkingSet(set):
    """A set that parks the thread named ``parked`` right after its first
    membership check, until ``release`` is set."""

    def __init__(self, items):
        super().__init__(items)
        self.parked = threading.Event()
        self.release = threading.Event()

    def __contains__(self, item):
        found = super().__contains__(item)
        if threading.current_thread().name == "parked" and not self.parked.is_set():
            self.parked.set()
            self.release.wait(timeout=5)
        return found


def journalled_driver(tmp_path):
    clock = VirtualClock()
    qemu = QemuDriver(QemuBackend(host=SimHost(hostname="racer", clock=clock), clock=clock))
    qemu.attach_state(StateJournal(StateDir(str(tmp_path / "state")), clock=clock))
    return qemu


def race(active, parked_call, gap_call):
    """Run ``parked_call`` until its membership check in ``active``, then
    ``gap_call`` beside it; returns each call's error (None: it won)."""
    outcome = {}

    def run(key, call):
        try:
            call()
            outcome[key] = None
        except VirtError as exc:
            outcome[key] = exc

    parked = threading.Thread(target=run, args=("parked", parked_call), name="parked")
    parked.start()
    assert active.parked.wait(timeout=5)
    gap = threading.Thread(target=run, args=("gap", gap_call))
    gap.start()
    gap.join(timeout=0.2)  # left unlocked, the gap call completes here
    active.release.set()
    parked.join(timeout=5)
    gap.join(timeout=5)
    return outcome


OBJECTS = {
    "network": (
        "_active_networks", "_networks", NoNetworkError,
        lambda qemu: qemu.network_define_xml(NetworkConfig(name="n1").to_xml()),
        lambda qemu: qemu.network_create("n1"),
        lambda qemu: qemu.network_undefine("n1"),
        lambda qemu: qemu.network_list(),
    ),
    "pool": (
        "_active_pools", "_pools", NoStoragePoolError,
        lambda qemu: qemu.storage_pool_define_xml(StoragePoolConfig(name="n1", capacity_bytes=GiB).to_xml()),
        lambda qemu: qemu.storage_pool_create("n1"),
        lambda qemu: qemu.storage_pool_undefine("n1"),
        lambda qemu: qemu.storage_pool_list(),
    ),
}


class TestUndefineRacingCreate:
    """An undefine parked right after its "is it active?" check, with a
    create in the gap (and the mirror image): one call loses, and no
    object is left active but undefined."""

    @pytest.mark.parametrize("kind", sorted(OBJECTS))
    @pytest.mark.parametrize("parked", ["undefine", "create"])
    def test_one_call_loses_and_the_state_stays_whole(self, tmp_path, kind, parked):
        active_attr, defined_attr, missing, define, create, undefine, listing = OBJECTS[kind]
        qemu = journalled_driver(tmp_path)
        define(qemu)
        active = ParkingSet(getattr(qemu, active_attr))
        setattr(qemu, active_attr, active)
        if parked == "undefine":
            outcome = race(active, lambda: undefine(qemu), lambda: create(qemu))
            # the undefine's check and delete are one step: the create finds nothing
            assert outcome["parked"] is None and isinstance(outcome["gap"], missing)
            assert listing(qemu) == []
        else:
            outcome = race(active, lambda: create(qemu), lambda: undefine(qemu))
            # the create's check and add are one step: the undefine finds it active
            assert outcome["parked"] is None and isinstance(outcome["gap"], InvalidOperationError)
            assert [entry["active"] for entry in listing(qemu)] == [True]
        assert set(getattr(qemu, active_attr)) <= set(getattr(qemu, defined_attr))
        assert live(qemu) == replayed(qemu)


class TestARefusedChangeLeavesNoTrace:
    """A mutation refused part-way leaves the bookkeeping as it was."""

    def test_a_refused_device_is_not_left_attached(self, tmp_path):
        qemu = journalled_driver(tmp_path)
        disk = DiskDevice("/img/g1.qcow2", "vda")
        config = DomainConfig(name="g1", domain_type="kvm", memory_kib=1024 * 1024, disks=[disk])
        qemu.domain_define_xml(config.to_xml())
        xml = qemu.domain_get_xml_desc("g1")
        second_vda = '<disk type="file"><source file="/img/other.qcow2"/><target dev="vda"/></disk>'
        with pytest.raises(XMLError):
            qemu.domain_attach_device("g1", second_vda)
        assert qemu.domain_get_xml_desc("g1") == xml
        assert live(qemu) == replayed(qemu)

    def test_an_incoming_guest_that_cannot_start_leaves_no_record(self, tmp_path):
        qemu = journalled_driver(tmp_path)
        huge = DomainConfig(name="huge", domain_type="kvm", memory_kib=1024**4).to_xml()
        with pytest.raises(InsufficientResourcesError):
            qemu.migrate_prepare({"name": "huge", "xml": huge, "driver": "qemu"})
        assert "huge" not in qemu.list_defined_domains()
        assert live(qemu) == replayed(qemu)


class TestMigratedGuestLeavesTheSource:
    def test_its_dhcp_lease_goes_back(self, tmp_path):
        clock = VirtualClock()
        src, dst = (
            QemuDriver(QemuBackend(host=SimHost(hostname=host, clock=clock), clock=clock))
            for host in ("lease-src", "lease-dst")
        )
        src.attach_state(StateJournal(StateDir(str(tmp_path / "state")), clock=clock))
        dhcp = DHCPRange("10.2.0.2", "10.2.0.50")
        src.network_define_xml(NetworkConfig(name="net", ip=IPConfig("10.2.0.1", "255.255.255.0", dhcp)).to_xml())
        src.network_create("net")
        nic = InterfaceDevice("network", "net")
        src.domain_define_xml(
            DomainConfig(name="mover", domain_type="kvm", memory_kib=1024 * 1024, interfaces=[nic]).to_xml()
        )
        src.domain_create("mover")
        assert [lease["hostname"] for lease in src.network_dhcp_leases("net")] == ["mover"]
        run_handshake(src, dst, "mover", {})
        assert dst.domain_get_state("mover") == DomainState.RUNNING
        assert src.network_dhcp_leases("net") == []
        assert live(src) == replayed(src)


def remote(host, query=""):
    return RemoteDriver(ConnectionURI.parse(f"qemu+tcp://{host}/system{query}"))


@pytest.fixture()
def migrating():
    """A guest mid-migration (prepared on the destination, performed on
    the source, so paused on both) and a ``?cache=1`` client on each side
    that has read it PAUSED."""
    with Libvirtd(hostname="funnel-src") as src_daemon, Libvirtd(hostname="funnel-dst") as dst_daemon:
        src_daemon.listen("tcp")
        dst_daemon.listen("tcp")
        src, dst = remote("funnel-src"), remote("funnel-dst")
        src_cache, dst_cache = remote("funnel-src", "?cache=1"), remote("funnel-dst", "?cache=1")
        src.domain_define_xml(DomainConfig(name="mover", domain_type="kvm", memory_kib=1024 * 1024).to_xml())
        src.domain_create("mover")
        cookie = dst.migrate_prepare(src.migrate_begin("mover"))
        src.migrate_perform("mover", cookie, {"live": True})
        assert src_cache.domain_get_state("mover") == DomainState.PAUSED
        assert dst_cache.domain_get_state("mover") == DomainState.PAUSED
        yield src, dst, src_cache, dst_cache, cookie
        for driver in (src, dst, src_cache, dst_cache):
            driver.close()


class TestMigrationRollbackIsAnnounced:
    def test_a_failed_finish_announces_the_incoming_guest_stopped(self, migrating):
        src, dst, src_cache, dst_cache, cookie = migrating
        dst.migrate_finish(cookie, {"failed": True})
        with pytest.raises(NoDomainError):
            dst_cache.domain_get_state("mover")

    def test_a_cancelled_confirm_announces_the_source_resumed(self, migrating):
        src, dst, src_cache, dst_cache, cookie = migrating
        src.migrate_confirm("mover", True)
        assert src_cache.domain_get_state("mover") == DomainState.RUNNING



#: ``DomainConfig.to_xml`` itself: renders without the spy counting it
render = DomainConfig.to_xml
VDB = '<disk type="file"><source file="/img/g1-data.qcow2"/><target dev="vdb"/></disk>'
VDC = '<disk type="file"><source file="/img/g1-extra.qcow2"/><target dev="vdc"/></disk>'
SECOND_VDA = '<disk type="file"><source file="/img/other.qcow2"/><target dev="vda"/></disk>'


def g1(**fields):
    disks = [DiskDevice("/img/g1.qcow2", "vda"), DiskDevice("/img/g1-data.qcow2", "vdb")]
    fields = {"memory_kib": 1024 * 1024, "vcpus": 2, **fields}
    return DomainConfig(name="g1", domain_type="kvm", disks=disks, **fields)


def plain_driver(hostname="render"):
    clock = VirtualClock()
    return QemuDriver(QemuBackend(host=SimHost(hostname=hostname, clock=clock), clock=clock))


@pytest.fixture()
def renders(monkeypatch):
    """``DomainConfig.to_xml`` calls, counted by domain name."""
    counted = collections.Counter()

    def spy(config):
        counted[config.name] += 1
        return render(config)

    monkeypatch.setattr(DomainConfig, "to_xml", spy)
    return counted


def redefine(src, dst):
    uuid = src._record("g1").config.uuid
    src.domain_define_xml(render(g1(uuid=uuid, memory_kib=2 * 1024 * 1024)))


def revert(src, dst):
    src.snapshot_create("g1", "s1")
    src.domain_set_memory("g1", 512 * 1024)
    assert "524288" in src.domain_get_xml_desc("g1")
    src.snapshot_revert("g1", "s1")


#: change -> (what it does, which driver holds the domain afterwards)
CHANGES = {
    "set_memory": (lambda src, dst: src.domain_set_memory("g1", 512 * 1024), 0),
    "set_vcpus": (lambda src, dst: src.domain_set_vcpus("g1", 1), 0),
    "attach": (lambda src, dst: src.domain_attach_device("g1", VDC), 0),
    "detach": (lambda src, dst: src.domain_detach_device("g1", VDB), 0),
    "redefine": (redefine, 0),
    "snapshot_revert": (revert, 0),
    "migrate": (lambda src, dst: run_handshake(src, dst, "g1", {}), 1),
}


class TestOneRenderingPerChange:
    """A domain's XML is rendered by the first read after a change and
    served from then on; nothing is rendered at define or start."""

    def test_an_unchanged_domain_is_rendered_once(self, renders):
        qemu = plain_driver()
        qemu.domain_define_xml(render(g1()))
        qemu.domain_create("g1")
        assert renders["g1"] == 0
        reads = {qemu.domain_get_xml_desc("g1") for _ in range(50)}
        assert renders["g1"] == 1
        assert reads == {render(qemu._record("g1").config)}

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_the_next_read_renders_the_change_once(self, renders, change):
        src, dst = plain_driver("render-src"), plain_driver("render-dst")
        src.domain_define_xml(render(g1()))
        src.domain_create("g1")
        before = src.domain_get_xml_desc("g1")
        do, holder = CHANGES[change]
        do(src, dst)
        reader = (src, dst)[holder]
        renders.clear()
        reads = [reader.domain_get_xml_desc("g1") for _ in range(50)]
        assert renders["g1"] == 1
        assert set(reads) == {render(reader._record("g1").config)}
        # a migrated guest arrives with the document it left with, and a
        # revert drops the rendering of the change it undid
        assert (reads[0] == before) is (change in ("migrate", "snapshot_revert"))

    def test_the_journal_and_the_readers_share_one_rendering(self, renders, tmp_path):
        qemu = journalled_driver(tmp_path)
        qemu.domain_define_xml(render(g1()))
        qemu.domain_set_memory("g1", 512 * 1024)
        renders.clear()
        reads = {qemu.domain_get_xml_desc("g1") for _ in range(50)}
        assert renders["g1"] == 0  # the commit rendered it for the journal
        assert reads == {replayed(qemu)["domain"]["g1"]["xml"]} == {render(qemu._record("g1").config)}


class TestARenderingIsOfACommittedConfig:
    @pytest.mark.parametrize("device", [VDC, SECOND_VDA], ids=["accepted", "refused"])
    def test_a_reader_that_misses_waits_for_the_commit(self, device):
        """An attach parked mid-body, lock held, its device appended but
        not yet validated: a reader with no rendering blocks, then
        returns the document the attach left behind."""
        qemu = plain_driver()
        qemu.domain_define_xml(render(g1()))
        record = qemu._record("g1")
        before = render(record.config)
        parked, release = threading.Event(), threading.Event()
        validate = record.config.validate

        def parked_validate():
            parked.set()
            release.wait(timeout=5)
            validate()

        record.config.validate = parked_validate

        def attach():
            try:
                qemu.domain_attach_device("g1", device)
            except XMLError:
                pass

        read = {}
        readers = [
            threading.Thread(target=lambda: read.update(public=qemu.domain_get_xml_desc("g1"))),
            # past ``_record`` already, as every reader is when it looks
            threading.Thread(target=lambda: read.update(record=qemu._xml(record))),
        ]
        writer = threading.Thread(target=attach)
        writer.start()
        assert parked.wait(timeout=5)
        assert record.xml is None  # never rendered: both readers miss
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=0.2)
        assert read == {}  # both wait while the body holds the lock
        release.set()
        for thread in (writer, *readers):
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in (writer, *readers))
        after = render(record.config)
        assert read == {"public": after, "record": after}
        assert (after == before) is (device == SECOND_VDA)

    def test_no_reader_keeps_a_rendering_a_write_dropped(self, monkeypatch):
        """Four readers racing one writer, threads switched every
        microsecond and each rendering held open for a moment: after each
        write returns, what is served is what the config renders to now
        (the writer is the only one changing it)."""

        def slow_render(config):
            text = render(config)
            time.sleep(0.0001)  # a write that can land here must wait
            return text

        monkeypatch.setattr(DomainConfig, "to_xml", slow_render)
        qemu = plain_driver()
        qemu.domain_define_xml(render(g1()))
        record = qemu._record("g1")
        stale, done = [], threading.Event()

        def write(start):
            start.wait(timeout=5)
            try:
                for kib in range(512 * 1024, 512 * 1024 + 40):
                    qemu.domain_set_memory("g1", kib)
                    time.sleep(0.0005)  # a reader that rendered before the write stores now
                    if qemu.domain_get_xml_desc("g1") != render(record.config):
                        stale.append(kib)
            finally:
                done.set()

        def read(start):
            start.wait(timeout=5)
            while not done.is_set():
                qemu._xml(record)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = threading.Barrier(5)
            threads = [threading.Thread(target=write, args=(start,))]
            threads += [threading.Thread(target=read, args=(start,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []
