"""Failure-injection integration tests.

Backends crash, connections drop mid-session, hosts run out of
resources, daemons refuse clients — and the management layer has to
fail cleanly, leak nothing, and keep every *other* client working.
"""

import pytest

import repro
from repro.core.connection import Connection
from repro.core.states import DomainState
from repro.core.uri import ConnectionURI
from repro.daemon import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.errors import (
    ConnectionClosedError,
    InsufficientResourcesError,
    NoDomainError,
    OperationFailedError,
)
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig

GiB_KIB = 1024 * 1024


def qemu_connection(memory_gib=64, cpus=32):
    clock = VirtualClock()
    host = SimHost(cpus=cpus, memory_kib=memory_gib * GiB_KIB, clock=clock)
    driver = QemuDriver(QemuBackend(host=host, clock=clock))
    return Connection(driver, ConnectionURI.parse("qemu:///failtest"))


def kvm_config(name="victim", memory_gib=1):
    return DomainConfig(
        name=name, domain_type="kvm", memory_kib=memory_gib * GiB_KIB, vcpus=1
    )


class TestGuestCrash:
    def test_crashed_guest_reported_and_destroyable(self):
        conn = qemu_connection()
        dom = conn.define_domain(kvm_config()).start()
        conn._driver.backend.inject_crash("victim")
        assert dom.state() == DomainState.CRASHED
        info = dom.info()
        assert info.state == DomainState.CRASHED
        dom.destroy()  # the guaranteed-finish path still works
        assert dom.state() == DomainState.SHUTOFF
        assert conn._driver.backend.host.guest_count == 0

    def test_crashed_guest_rejects_cooperative_ops(self):
        conn = qemu_connection()
        dom = conn.define_domain(kvm_config()).start()
        conn._driver.backend.inject_crash("victim")
        from repro.errors import VirtError

        for op in ("shutdown", "suspend", "resume", "reboot", "start"):
            with pytest.raises(VirtError):
                getattr(dom, op)()
        # state unchanged by the failed attempts
        assert dom.state() == DomainState.CRASHED

    def test_crash_during_remote_session(self):
        with Libvirtd(hostname="crashnode") as daemon:
            daemon.listen("tcp")
            conn = repro.open_connection("qemu+tcp://crashnode/system")
            dom = conn.define_domain(kvm_config("r1")).start()
            daemon.drivers["qemu"].backend.inject_crash("r1")
            assert dom.state() == DomainState.CRASHED
            dom.destroy()
            assert dom.state() == DomainState.SHUTOFF


class TestBackendFailures:
    def test_failed_start_leaves_clean_state(self):
        conn = qemu_connection()
        dom = conn.define_domain(kvm_config())
        conn._driver.backend.fail_next("victim", "emulator exited at startup")
        with pytest.raises(OperationFailedError):
            dom.start()
        assert dom.state() == DomainState.SHUTOFF
        assert conn._driver.backend.host.guest_count == 0
        dom.start()  # retry works
        assert dom.state() == DomainState.RUNNING

    def test_failed_transient_create_forgets_domain(self):
        conn = qemu_connection()
        conn._driver.backend.fail_next("ghost", "boot failure")
        with pytest.raises(OperationFailedError):
            conn.create_domain(kvm_config("ghost"))
        with pytest.raises(NoDomainError):
            conn.lookup_domain("ghost")

    def test_failed_shutdown_keeps_domain_running(self):
        conn = qemu_connection()
        dom = conn.define_domain(kvm_config()).start()
        conn._driver.backend.fail_next("victim", "guest ignored ACPI")
        with pytest.raises(OperationFailedError):
            dom.shutdown()
        assert dom.state() == DomainState.RUNNING
        dom.destroy()  # the hard path is unaffected


class TestResourceExhaustion:
    def test_host_full_rejects_new_guests_cleanly(self):
        conn = qemu_connection(memory_gib=4)
        conn.define_domain(kvm_config("big", memory_gib=3)).start()
        dom = conn.define_domain(kvm_config("extra", memory_gib=2))
        with pytest.raises(InsufficientResourcesError):
            dom.start()
        assert dom.state() == DomainState.SHUTOFF
        # freeing capacity lets the retry succeed
        conn.lookup_domain("big").destroy()
        dom.start()
        assert dom.state() == DomainState.RUNNING

    def test_balloon_up_fails_when_host_full(self):
        conn = qemu_connection(memory_gib=4)
        dom_a = conn.define_domain(kvm_config("a", memory_gib=2)).start()
        dom_b = conn.define_domain(kvm_config("b", memory_gib=1)).start()
        dom_b.set_memory(512 * 1024)
        from repro.errors import VirtError

        with pytest.raises(VirtError):
            dom_b.set_memory(3 * GiB_KIB)  # above defined max anyway
        assert dom_b.info().memory_kib == 512 * 1024


class TestConnectionDrops:
    def test_daemon_side_disconnect_fails_in_flight_client(self):
        with Libvirtd(hostname="dropnode") as daemon:
            daemon.listen("tcp")
            conn = repro.open_connection("qemu+tcp://dropnode/system")
            conn.define_domain(kvm_config("d1"))
            client_id = daemon.list_clients()[0]["id"]
            daemon.disconnect_client(client_id)
            with pytest.raises(ConnectionClosedError):
                conn.list_domains()
            # daemon state is intact; a fresh client sees the domain
            conn2 = repro.open_connection("qemu+tcp://dropnode/system")
            assert "d1" in [d.name for d in conn2.list_domains(active=False)]

    def test_daemon_shutdown_fails_all_clients(self):
        daemon = Libvirtd(hostname="byebye")
        daemon.listen("tcp")
        conn = repro.open_connection("qemu+tcp://byebye/system")
        daemon.shutdown()
        with pytest.raises(ConnectionClosedError):
            conn.hostname()

    def test_other_clients_survive_one_disconnect(self):
        with Libvirtd(hostname="multi") as daemon:
            daemon.listen("tcp")
            conn_a = repro.open_connection("qemu+tcp://multi/system")
            conn_b = repro.open_connection("qemu+tcp://multi/system")
            victim_id = daemon.list_clients()[0]["id"]
            daemon.disconnect_client(victim_id)
            # exactly one of them is dead; the other works
            alive = conn_b if conn_a._driver.client.closed else conn_a
            assert alive.list_domains() == []

    def test_event_subscriber_disconnect_cleans_registration(self):
        with Libvirtd(hostname="evtnode") as daemon:
            daemon.listen("tcp")
            conn = repro.open_connection("qemu+tcp://evtnode/system")
            conn.register_domain_event(lambda *a: None)
            driver = daemon.drivers["qemu"]
            assert driver.events.subscription_count == 1
            client_id = daemon.list_clients()[0]["id"]
            daemon.disconnect_client(client_id)
            assert driver.events.subscription_count == 0


class TestMigrationFailures:
    def test_prepare_failure_leaves_source_running(self):
        src = qemu_connection()
        dst = qemu_connection(memory_gib=1)  # too small for the guest
        dom = src.define_domain(kvm_config(memory_gib=2, name="bigmover")).start()
        from repro.errors import MigrationError, VirtError

        with pytest.raises(VirtError):
            dom.migrate(dst)
        assert dom.state() == DomainState.RUNNING
        assert dst._driver.backend.host.guest_count == 0

    def test_perform_failure_rolls_back_both_sides(self):
        src = qemu_connection()
        dst = qemu_connection()
        dom = src.define_domain(kvm_config("roller")).start()
        src._driver.backend._get("roller").dirty_rate_mib_s = 1e9
        from repro.errors import MigrationError
        from repro.migration.manager import migrate_domain

        with pytest.raises(MigrationError):
            migrate_domain(dom, dst, strict_convergence=True)
        assert dom.state() == DomainState.RUNNING
        assert dst._driver.backend.host.guest_count == 0
        with pytest.raises(NoDomainError):
            dst.lookup_domain("roller")
        # and a clean retry without the strict flag succeeds
        dom.migrate(dst)
        assert dst.lookup_domain("roller").state() == DomainState.RUNNING
