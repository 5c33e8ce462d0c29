"""Behaviour of ``StatefulDriver``'s one mutation path.

Every mutator checks and writes its bookkeeping under the driver lock,
journals what it changed, and only then announces it.  Two things follow
and are checked here:

* a check and the write it guards are one step, so an undefine racing a
  create cannot leave a network or pool active but undefined, and a
  change refused part-way leaves nothing behind;
* every state change is written down and announced, so a guest that
  migrated away gives its DHCP lease back and a ``?cache=1`` client never
  keeps a state the daemon has left, a migration's rollback included.
"""

import threading

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
