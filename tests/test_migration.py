"""Tests for live migration (repro.migration)."""

import pytest

from repro.core.connection import Connection
from repro.core.states import DomainState
from repro.core.uri import ConnectionURI
from repro.drivers.qemu import QemuDriver
from repro.drivers.test import TestDriver
from repro.drivers.xen import XenDriver
from repro.errors import (
    DomainExistsError,
    InvalidArgumentError,
    InvalidOperationError,
    MigrationError,
    MigrationIncompatibleError,
)
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.hypervisors.xen_backend import XenBackend
from repro.migration.precopy import MIB, run_precopy
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig

GiB = 1024**3
GiB_KIB = 1024 * 1024


class TestPrecopyModel:
    def test_zero_dirty_rate_single_round(self):
        result = run_precopy(GiB, 0.0, 100 * MIB)
        assert result.converged
        assert result.rounds <= 2
        assert result.transferred_bytes == GiB
        assert result.downtime_s == 0.0
        assert result.total_time_s == pytest.approx(GiB / (100 * MIB))

    def test_converging_migration_bounded_downtime(self):
        result = run_precopy(
            2 * GiB, 20 * MIB, 100 * MIB, max_downtime_s=0.3
        )
        assert result.converged
        assert result.downtime_s <= 0.3
        assert result.total_time_s > 2 * GiB / (100 * MIB)  # extra rounds cost time

    def test_total_time_grows_with_memory(self):
        small = run_precopy(GiB, 10 * MIB, 100 * MIB)
        big = run_precopy(8 * GiB, 10 * MIB, 100 * MIB)
        assert big.total_time_s > small.total_time_s

    def test_total_time_grows_with_dirty_rate(self):
        calm = run_precopy(2 * GiB, 5 * MIB, 100 * MIB)
        busy = run_precopy(2 * GiB, 80 * MIB, 100 * MIB)
        assert busy.total_time_s > calm.total_time_s
        assert busy.rounds >= calm.rounds

    def test_non_convergence_above_bandwidth(self):
        """The cliff: dirty rate >= bandwidth never converges."""
        result = run_precopy(2 * GiB, 150 * MIB, 100 * MIB, max_downtime_s=0.3)
        assert not result.converged
        assert result.downtime_s > 0.3  # blew the budget in the forced final copy

    def test_transferred_equals_sum_of_rounds(self):
        result = run_precopy(4 * GiB, 30 * MIB, 100 * MIB)
        assert result.transferred_bytes == sum(result.round_bytes)

    def test_rounds_shrink_geometrically_when_converging(self):
        result = run_precopy(4 * GiB, 50 * MIB, 100 * MIB)
        for earlier, later in zip(result.round_bytes, result.round_bytes[1:]):
            assert later <= earlier

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"memory_bytes": 0},
            {"bandwidth_bytes_s": 0},
            {"dirty_rate_bytes_s": -1},
            {"max_downtime_s": 0},
            {"max_rounds": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        params = dict(
            memory_bytes=GiB,
            dirty_rate_bytes_s=0.0,
            bandwidth_bytes_s=100 * MIB,
            max_downtime_s=0.3,
            max_rounds=30,
        )
        params.update(kwargs)
        with pytest.raises(InvalidArgumentError):
            run_precopy(**params)


def qemu_pair():
    clock = VirtualClock()
    src_backend = QemuBackend(host=SimHost(hostname="src", clock=clock), clock=clock)
    dst_backend = QemuBackend(host=SimHost(hostname="dst", clock=clock), clock=clock)
    src = Connection(QemuDriver(src_backend), ConnectionURI.parse("qemu:///src"))
    dst = Connection(QemuDriver(dst_backend), ConnectionURI.parse("qemu:///dst"))
    return src, dst, clock


def kvm_config(name="mover", memory_gib=1):
    return DomainConfig(
        name=name, domain_type="kvm", memory_kib=memory_gib * GiB_KIB, vcpus=1
    )


class TestManagedMigration:
    def test_successful_live_migration(self):
        src, dst, clock = qemu_pair()
        dom = src.define_domain(kvm_config()).start()
        uuid = dom.uuid
        t0 = clock.now()
        moved = dom.migrate(dst)
        assert clock.now() > t0  # the copy took modelled time
        assert moved.state() == DomainState.RUNNING
        assert moved.uuid == uuid  # identity preserved
        assert dom.state() == DomainState.SHUTOFF
        assert src._driver.backend.host.guest_count == 0
        assert dst._driver.backend.host.guest_count == 1

    def test_migration_events(self):
        src, dst, _ = qemu_pair()
        src_events, dst_events = [], []
        src.register_domain_event(lambda n, e, d: src_events.append((e.name, d)))
        dst.register_domain_event(lambda n, e, d: dst_events.append((e.name, d)))
        dom = src.define_domain(kvm_config()).start()
        dom.migrate(dst)
        assert ("STOPPED", "migrated") in src_events
        assert ("MIGRATED", "incoming") in dst_events

    def test_migrate_paused_domain(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config()).start()
        dom.suspend()
        moved = dom.migrate(dst)
        # finish resumes on the destination (libvirt semantics for finish)
        assert moved.state() == DomainState.RUNNING

    def test_migrate_inactive_domain_rejected(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config())
        with pytest.raises(InvalidOperationError):
            dom.migrate(dst)

    def test_migrate_to_same_connection_rejected(self):
        src, _, _ = qemu_pair()
        dom = src.define_domain(kvm_config()).start()
        with pytest.raises(InvalidArgumentError):
            dom.migrate(src)

    def test_name_collision_on_destination_rolls_back(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config("same")).start()
        dst.define_domain(kvm_config("same")).start()
        with pytest.raises((DomainExistsError, MigrationError)):
            dom.migrate(dst)
        assert dom.state() == DomainState.RUNNING  # source untouched

    def test_cross_hypervisor_migration_rejected(self):
        clock = VirtualClock()
        src_backend = QemuBackend(host=SimHost(clock=clock), clock=clock)
        src = Connection(QemuDriver(src_backend), ConnectionURI.parse("qemu:///a"))
        xen_backend = XenBackend(host=SimHost(clock=clock), clock=clock)
        dst = Connection(XenDriver(xen_backend), ConnectionURI.parse("xen:///b"))
        dom = src.define_domain(kvm_config()).start()
        with pytest.raises((MigrationIncompatibleError, MigrationError)):
            dom.migrate(dst)
        assert dom.state() == DomainState.RUNNING

    def test_nonconverging_strict_migration_rolls_back(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config()).start()
        src._driver.backend._get("mover").dirty_rate_mib_s = 1e9
        from repro.migration.manager import migrate_domain

        with pytest.raises(MigrationError, match="did not converge"):
            migrate_domain(dom, dst, strict_convergence=True)
        assert dom.state() == DomainState.RUNNING
        assert dst._driver.backend.host.guest_count == 0

    def test_offline_migration_downtime_is_whole_copy(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config()).start()
        moved = dom.migrate(dst, live=False)
        stats = moved.last_migration_stats
        assert stats["downtime_s"] == pytest.approx(stats["total_time_s"])

    def test_live_migration_downtime_fraction_small(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config(memory_gib=2)).start()
        src._driver.backend._get("mover").dirty_rate_mib_s = 64.0
        moved = dom.migrate(dst, max_downtime_s=0.3, bandwidth_mib_s=1024)
        stats = moved.last_migration_stats
        assert stats["downtime_s"] <= 0.3
        assert stats["downtime_s"] < stats["total_time_s"]

    def test_bandwidth_cap_slows_migration(self):
        results = {}
        for bw in (256, 2048):
            src, dst, clock = qemu_pair()
            dom = src.define_domain(kvm_config(memory_gib=2)).start()
            t0 = clock.now()
            dom.migrate(dst, bandwidth_mib_s=bw)
            results[bw] = clock.now() - t0
        assert results[256] > results[2048]

    def test_migrated_domain_persistent_on_destination(self):
        src, dst, _ = qemu_pair()
        dom = src.define_domain(kvm_config()).start()
        moved = dom.migrate(dst)
        assert moved.persistent

    def test_test_driver_migration(self):
        """Migration also works on the zero-cost mock driver."""
        src = Connection(TestDriver(), ConnectionURI.parse("test:///a"))
        dst = Connection(TestDriver(seed_default=False), ConnectionURI.parse("test:///b"))
        dom = src.lookup_domain("test")
        moved = dom.migrate(dst)
        assert moved.state() == DomainState.RUNNING
