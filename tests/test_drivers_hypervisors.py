"""Uniform-API parity tests across hypervisor drivers.

The paper's point: the same management sequence works unmodified on
every hypervisor.  These tests run one canonical sequence through the
qemu, xen, lxc and test drivers and assert identical observable
behaviour — then check the per-driver native integration details.
"""

import pytest

from repro.core.connection import Connection
from repro.core.states import DomainState
from repro.core.uri import ConnectionURI
from repro.drivers.lxc import LxcDriver
from repro.drivers.qemu import QemuDriver
from repro.drivers.test import TestDriver
from repro.drivers.xen import XenDriver
from repro.errors import OperationFailedError, UnsupportedError
from repro.hypervisors.container_backend import ContainerBackend
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.hypervisors.xen_backend import XenBackend
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig, OSConfig

GiB_KIB = 1024 * 1024


def make_connection(kind):
    clock = VirtualClock()
    host = SimHost(hostname=f"{kind}host", cpus=16, memory_kib=64 * GiB_KIB, clock=clock)
    if kind == "qemu":
        driver = QemuDriver(QemuBackend(host=host, clock=clock))
    elif kind == "xen":
        driver = XenDriver(XenBackend(host=host, clock=clock))
    elif kind == "lxc":
        driver = LxcDriver(ContainerBackend(host=host, clock=clock))
    else:
        driver = TestDriver(seed_default=False)
    return Connection(driver, ConnectionURI.parse(f"{kind}:///system")), clock


def config_for(kind, name="guest1", memory_gib=1, vcpus=1):
    if kind == "qemu":
        return DomainConfig(name=name, domain_type="kvm", memory_kib=memory_gib * GiB_KIB, vcpus=vcpus)
    if kind == "xen":
        return DomainConfig(
            name=name,
            domain_type="xen",
            memory_kib=memory_gib * GiB_KIB,
            vcpus=vcpus,
            os=OSConfig("xen", "x86_64", ["hd"]),
        )
    if kind == "lxc":
        return DomainConfig(
            name=name,
            domain_type="lxc",
            memory_kib=memory_gib * GiB_KIB,
            vcpus=vcpus,
            os=OSConfig("exe", "x86_64", [], init="/sbin/init"),
        )
    return DomainConfig(name=name, domain_type="test", memory_kib=memory_gib * GiB_KIB, vcpus=vcpus)


ALL_KINDS = ("qemu", "xen", "lxc", "test")


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestUniformSequence:
    """One identical management script on every hypervisor."""

    def test_full_lifecycle_identical(self, kind):
        conn, _ = make_connection(kind)
        dom = conn.define_domain(config_for(kind))
        assert dom.state() == DomainState.SHUTOFF
        dom.start()
        assert dom.state() == DomainState.RUNNING
        dom.suspend()
        assert dom.state() == DomainState.PAUSED
        dom.resume()
        assert dom.state() == DomainState.RUNNING
        dom.reboot()
        assert dom.state() == DomainState.RUNNING
        dom.shutdown()
        assert dom.state() == DomainState.SHUTOFF
        dom.start()
        dom.destroy()
        assert dom.state() == DomainState.SHUTOFF
        dom.undefine()

    def test_info_shape_identical(self, kind):
        conn, _ = make_connection(kind)
        dom = conn.define_domain(config_for(kind, memory_gib=2, vcpus=2)).start()
        info = dom.info()
        assert info.state == DomainState.RUNNING
        assert info.vcpus == 2
        assert info.memory_kib == 2 * GiB_KIB
        dom.destroy()

    def test_set_memory_identical(self, kind):
        conn, _ = make_connection(kind)
        dom = conn.define_domain(config_for(kind, memory_gib=2)).start()
        dom.set_memory(GiB_KIB)
        assert dom.info().memory_kib == GiB_KIB

    def test_host_resources_released_after_destroy(self, kind):
        conn, _ = make_connection(kind)
        driver = conn._driver
        dom = conn.define_domain(config_for(kind)).start()
        assert driver.backend.host.guest_count == 1
        dom.destroy()
        assert driver.backend.host.guest_count == 0

    def test_capabilities_accept_own_type(self, kind):
        conn, _ = make_connection(kind)
        caps = conn.capabilities()
        config = config_for(kind)
        assert caps.supports(config.os.os_type, "x86_64", config.domain_type)

    def test_events_identical(self, kind):
        conn, _ = make_connection(kind)
        events = []
        conn.register_domain_event(lambda n, e, d: events.append(e.name))
        dom = conn.define_domain(config_for(kind))
        dom.start()
        dom.destroy()
        assert events == ["DEFINED", "STARTED", "STOPPED"]

    def test_running_and_defined_lists_partition_the_guests(self, kind):
        conn, _ = make_connection(kind)
        driver = conn._driver
        for name in ("stopped", "running"):
            driver.domain_define_xml(config_for(kind, name=name).to_xml())
        driver.domain_create("running")
        driver.domain_create_xml(config_for(kind, name="transient").to_xml())
        running, defined = driver.list_domains(), driver.list_defined_domains()
        assert sorted(running) == ["running", "transient"]
        assert defined == ["stopped"]
        driver.domain_destroy("running")
        assert sorted(driver.list_defined_domains()) == ["running", "stopped"]
        assert driver.list_domains() == ["transient"]


class TestQemuDriverNative:
    def test_lifecycle_goes_through_qmp(self):
        conn, _ = make_connection("qemu")
        backend = conn._driver.backend
        dom = conn.define_domain(config_for("qemu")).start()
        monitor = backend.monitor("guest1")
        sent_before = monitor.bytes_sent
        dom.suspend()
        assert monitor.bytes_sent > sent_before  # QMP "stop" crossed the wire
        assert monitor.execute("query-status")["status"] == "paused"

    def test_qmp_error_translated_to_uniform_error(self):
        conn, _ = make_connection("qemu")
        dom = conn.define_domain(config_for("qemu", memory_gib=1)).start()
        backend = conn._driver.backend
        backend.fail_next("guest1", "monitor wedged")
        with pytest.raises(OperationFailedError):
            dom.suspend()

    def test_destroy_works_on_crashed_guest(self):
        """The SIGKILL path must not depend on a live monitor."""
        conn, _ = make_connection("qemu")
        dom = conn.define_domain(config_for("qemu")).start()
        conn._driver.backend.inject_crash("guest1")
        assert dom.state() == DomainState.CRASHED
        dom.destroy()
        assert dom.state() == DomainState.SHUTOFF

    def test_save_restore(self):
        conn, _ = make_connection("qemu")
        dom = conn.define_domain(config_for("qemu")).start()
        dom.save("/save/guest1")
        assert dom.state() == DomainState.SHUTOFF
        restored = conn.restore_domain("/save/guest1")
        assert restored.state() == DomainState.RUNNING


class TestXenDriverNative:
    def test_lifecycle_issues_hypercalls(self):
        conn, _ = make_connection("xen")
        backend = conn._driver.backend
        before = backend.hypercall_count
        dom = conn.define_domain(config_for("xen")).start()
        dom.suspend()
        dom.resume()
        dom.destroy()
        assert backend.hypercall_count >= before + 4

    def test_domain_gets_xen_domid(self):
        conn, _ = make_connection("xen")
        conn.define_domain(config_for("xen")).start()
        assert conn._driver.backend.domid_of("guest1") >= 1

    def test_save_restore(self):
        conn, _ = make_connection("xen")
        dom = conn.define_domain(config_for("xen")).start()
        dom.save("/save/x1")
        restored = conn.restore_domain("/save/x1")
        assert restored.state() == DomainState.RUNNING


class TestLxcDriverNative:
    def test_suspend_uses_cgroup_freezer(self):
        conn, _ = make_connection("lxc")
        backend = conn._driver.backend
        dom = conn.define_domain(config_for("lxc")).start()
        dom.suspend()
        assert backend.read_cgroup("guest1", "freezer.state") == "FROZEN"
        dom.resume()
        assert backend.read_cgroup("guest1", "freezer.state") == "THAWED"

    def test_set_memory_writes_cgroup_limit(self):
        conn, _ = make_connection("lxc")
        backend = conn._driver.backend
        dom = conn.define_domain(config_for("lxc", memory_gib=2)).start()
        dom.set_memory(GiB_KIB)
        assert backend.read_cgroup("guest1", "memory.limit_in_bytes") == str(GiB_KIB * 1024)

    def test_save_restore_unsupported(self):
        conn, _ = make_connection("lxc")
        dom = conn.define_domain(config_for("lxc")).start()
        with pytest.raises(UnsupportedError):
            dom.save("/save/ct")

    def test_migration_unsupported(self):
        conn, _ = make_connection("lxc")
        dest, _ = make_connection("lxc")
        dom = conn.define_domain(config_for("lxc")).start()
        with pytest.raises(UnsupportedError):
            dom.migrate(dest)

    def test_feature_set_drops_save_and_migration(self):
        conn, _ = make_connection("lxc")
        assert not conn.supports("save_restore")
        assert not conn.supports("migration")
        assert conn.supports("lifecycle")


class TestTimingShape:
    def test_container_start_much_faster_than_vm_start(self):
        times = {}
        for kind in ("qemu", "xen", "lxc"):
            conn, clock = make_connection(kind)
            dom = conn.define_domain(config_for(kind))
            t0 = clock.now()
            dom.start()
            times[kind] = clock.now() - t0
        assert times["lxc"] * 5 < times["qemu"]
        assert times["lxc"] * 5 < times["xen"]

    def test_uniform_layer_preserves_backend_latency(self):
        """The uniform API adds no modelled time over the native call."""
        conn, clock = make_connection("qemu")
        backend = conn._driver.backend
        dom = conn.define_domain(config_for("qemu")).start()
        t0 = clock.now()
        dom.suspend()
        via_api = clock.now() - t0
        # native path: the exact same monitor command
        t0 = clock.now()
        backend.monitor("guest1").execute("cont")
        via_native = clock.now() - t0
        # suspend = native_call + suspend cost; cont = native_call + resume
        expected_delta = backend.cost.cost("suspend") - backend.cost.cost("resume")
        assert via_api - via_native == pytest.approx(expected_delta, abs=1e-9)
