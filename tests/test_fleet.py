"""Fleet-scale management: connection manager, sharded registry,
drain/rebalance/rolling-restart orchestration.

Every test runs a real multi-daemon topology over the wire (remote
URIs against registered ``Libvirtd`` instances on one virtual clock);
the crash soaks additionally route the source host through the PR-6
:class:`CrashHarness` so a daemon can die mid-drain and restart with
journal recovery.
"""

import math

import pytest

from repro.daemon.libvirtd import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.errors import InvalidArgumentError, NoDomainError, VirtError
from repro.faults import CrashHarness, CrashPlan, CrashPoint
from repro.fleet import FleetError, FleetManager, FleetOrchestrator
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig

GiB_KIB = 1024 * 1024


def make_daemon(name, clock, memory_gib=32, cpus=32):
    host = SimHost(hostname=name, cpus=cpus, memory_kib=memory_gib * GiB_KIB, clock=clock)
    qemu = QemuDriver(QemuBackend(host=host, clock=clock))
    daemon = Libvirtd(
        hostname=name, drivers={"qemu": qemu, "kvm": qemu}, clock=clock, use_pool=False
    )
    daemon.listen("tcp")
    return daemon


def deploy(conn, name, memory_gib=1):
    config = DomainConfig(
        name=name, domain_type="kvm", memory_kib=memory_gib * GiB_KIB, vcpus=1
    )
    return conn.define_domain(config).start()


@pytest.fixture()
def trio():
    """Three 32-GiB daemon-managed hosts and a fleet over them."""
    clock = VirtualClock()
    daemons = {name: make_daemon(name, clock) for name in ("fl-a", "fl-b", "fl-c")}
    fleet = FleetManager([f"qemu+tcp://{name}/system" for name in daemons])
    yield fleet, daemons, clock
    fleet.close()
    for daemon in daemons.values():
        daemon.shutdown()


class TestFleetManager:
    def test_pools_connections_by_hostname(self, trio):
        fleet, daemons, _ = trio
        assert fleet.hostnames() == ["fl-a", "fl-b", "fl-c"]
        assert len(fleet) == 3 and "fl-b" in fleet
        conn = fleet.connection("fl-b")
        assert conn.hostname() == "fl-b"
        # pooled: the same object comes back while it stays healthy
        assert fleet.connection("fl-b") is conn

    def test_duplicate_host_rejected(self, trio):
        fleet, _, _ = trio
        with pytest.raises(InvalidArgumentError):
            fleet.add_host("qemu+tcp://fl-a/system")

    def test_unknown_host_is_fleet_error(self, trio):
        fleet, _, _ = trio
        with pytest.raises(FleetError):
            fleet.connection("nowhere")
        with pytest.raises(FleetError):
            fleet.remove_host("nowhere")

    def test_health_check_all_up(self, trio):
        fleet, _, _ = trio
        assert fleet.health_check() == {"fl-a": True, "fl-b": True, "fl-c": True}
        assert fleet.stats()["healthy"] == 3

    def test_dead_daemon_detected_and_redialed_on_return(self, trio):
        fleet, daemons, clock = trio
        daemons["fl-b"].shutdown()
        health = fleet.health_check()
        assert health["fl-b"] is False and health["fl-a"] is True
        assert "fl-b" in [r["hostname"] for r in fleet.fleet_status() if not r["healthy"]]
        # the daemon comes back on the same hostname; the fleet re-dials
        replacement = make_daemon("fl-b", clock)
        try:
            assert fleet.health_check()["fl-b"] is True
            entry = fleet._entry("fl-b")
            assert entry.reopens >= 1 and entry.last_error is None
            assert fleet.connection("fl-b").hostname() == "fl-b"
        finally:
            replacement.shutdown()

    def test_connection_refuses_dead_host_without_auto_reopen(self, trio):
        fleet, daemons, _ = trio
        fleet.auto_reopen = False
        daemons["fl-c"].shutdown()
        fleet.health_check()
        with pytest.raises(FleetError):
            fleet.connection("fl-c")

    def test_fleet_status_reports_capacity(self, trio):
        fleet, _, _ = trio
        deploy(fleet.connection("fl-a"), "cap1", 2)
        rows = {row["hostname"]: row for row in fleet.fleet_status()}
        assert rows["fl-a"]["domains"] == 1
        assert rows["fl-a"]["memory_kib"] == 32 * GiB_KIB
        assert rows["fl-a"]["free_memory_kib"] < rows["fl-b"]["free_memory_kib"]

    def test_remove_host_closes_connection(self, trio):
        fleet, _, _ = trio
        conn = fleet.connection("fl-c")
        fleet.remove_host("fl-c")
        assert conn.closed and "fl-c" not in fleet
        assert fleet.hostnames() == ["fl-a", "fl-b"]

    def test_context_manager_closes_everything(self, trio):
        fleet, _, _ = trio
        with fleet:
            conns = fleet.connections()
            assert len(conns) == 3
        assert all(c.closed for c in conns) and len(fleet) == 0


class TestFleetRegistry:
    def test_locate_finds_home_host(self, trio):
        fleet, _, _ = trio
        deploy(fleet.connection("fl-a"), "reg-a")
        deploy(fleet.connection("fl-b"), "reg-b")
        registry = fleet.registry()
        assert registry.locate("reg-a") == "fl-a"
        assert registry.locate("reg-b") == "fl-b"

    def test_fresh_shard_answers_from_memory(self, trio):
        fleet, _, _ = trio
        deploy(fleet.connection("fl-a"), "mem1")
        registry = fleet.registry()
        registry.locate("mem1")
        refreshes = registry.refreshes
        for _ in range(5):
            assert registry.locate("mem1") == "fl-a"
        assert registry.refreshes == refreshes  # pure-memory hits
        assert registry.stats()["hits"] >= 6

    def test_event_invalidates_only_the_mutated_shard(self, trio):
        fleet, _, _ = trio
        registry = fleet.registry()
        registry.domains()  # everything fresh
        assert registry.stats()["stale_shards"] == 0
        deploy(fleet.connection("fl-b"), "fresh-b")
        stats = registry.stats()
        assert stats["stale_shards"] == 1 and stats["invalidations"] >= 1
        # the lookup refreshes just the stale shard and finds the guest
        refreshes = registry.refreshes
        assert registry.locate("fresh-b") == "fl-b"
        assert registry.refreshes == refreshes + 1

    def test_migration_moves_the_registry_answer(self, trio):
        fleet, _, _ = trio
        dom = deploy(fleet.connection("fl-a"), "walker")
        registry = fleet.registry()
        assert registry.locate("walker") == "fl-a"
        uuid = dom.uuid
        dom.migrate(fleet.connection("fl-c"))
        assert registry.locate("walker") == "fl-c"
        assert registry.locate_by_uuid(uuid) == "fl-c"

    def test_missing_domain_raises_and_counts(self, trio):
        fleet, _, _ = trio
        registry = fleet.registry()
        with pytest.raises(NoDomainError):
            registry.locate("ghost")
        assert registry.stats()["misses"] == 1

    def test_lookup_returns_live_handle(self, trio):
        fleet, _, _ = trio
        deploy(fleet.connection("fl-b"), "handle1")
        dom = fleet.registry().lookup("handle1")
        assert dom.name == "handle1" and dom.is_active
        assert dom.connection.hostname() == "fl-b"

    def test_registry_survives_host_reopen(self, trio):
        fleet, daemons, clock = trio
        deploy(fleet.connection("fl-a"), "phoenix")
        registry = fleet.registry()
        assert registry.locate("phoenix") == "fl-a"
        daemons["fl-a"].shutdown()
        replacement = make_daemon("fl-a", clock)
        try:
            fleet.health_check()  # re-dials fl-a, rearms the shard
            # the replacement daemon is empty: the shard must notice
            with pytest.raises(NoDomainError):
                registry.locate("phoenix")
            deploy(fleet.connection("fl-a"), "phoenix2")
            assert registry.locate("phoenix2") == "fl-a"
        finally:
            replacement.shutdown()

    def test_fleet_wide_domain_listing(self, trio):
        fleet, _, _ = trio
        deploy(fleet.connection("fl-a"), "list-a")
        deploy(fleet.connection("fl-c"), "list-c")
        records = fleet.registry().domains()
        assert [(r["hostname"], r["name"]) for r in records] == [
            ("fl-a", "list-a"), ("fl-c", "list-c"),
        ]


class TestDrain:
    def test_drain_evacuates_every_guest(self, trio):
        fleet, _, _ = trio
        source = fleet.connection("fl-a")
        for index in range(6):
            deploy(source, f"ev{index}", 2)
        orch = FleetOrchestrator(fleet, max_parallel=4)
        report = orch.drain_host("fl-a")
        assert report.migrated == 6 and report.failed == 0
        assert report.unplaced == []
        assert source.active_domain_count() == 0
        # every guest landed on another host and is running there
        registry = fleet.registry()
        for index in range(6):
            home = registry.locate(f"ev{index}")
            assert home in ("fl-b", "fl-c")
            assert registry.lookup(f"ev{index}").is_active

    def test_drain_waves_and_makespan_model(self, trio):
        fleet, _, _ = trio
        source = fleet.connection("fl-a")
        for index in range(6):
            deploy(source, f"wv{index}", 2)
        orch = FleetOrchestrator(fleet, max_parallel=4, link_bandwidth_mib_s=2048.0)
        report = orch.drain_host("fl-a")
        assert report.waves == math.ceil(6 / 4)
        serial = sum(o.total_time_s for o in report.outcomes if o.ok)
        # concurrency helps: charged the slowest of each wave, not the sum
        assert 0 < report.makespan_s < serial
        assert sum(report.rounds_distribution().values()) == 6
        assert {o.wave for o in report.outcomes} == {0, 1}

    def test_drain_empty_host_is_a_noop(self, trio):
        fleet, _, _ = trio
        report = FleetOrchestrator(fleet).drain_host("fl-b")
        assert report.outcomes == [] and report.makespan_s == 0.0

    def test_capacity_limited_drain_uses_the_partial_plan(self):
        clock = VirtualClock()
        daemons = [make_daemon("big", clock, memory_gib=32)]
        daemons += [make_daemon(n, clock, memory_gib=8) for n in ("tight-1", "tight-2")]
        fleet = FleetManager([f"qemu+tcp://{d.hostname}/system" for d in daemons])
        try:
            source = fleet.connection("big")
            for index in range(6):
                deploy(source, f"fat{index}", 4)
            report = FleetOrchestrator(fleet, max_parallel=2).drain_host("big")
            # each 8-GiB host absorbs exactly one 4-GiB guest
            assert report.migrated == 2 and report.failed == 0
            assert len(report.unplaced) == 4
            # the unplaced guests still run on the source — never stranded
            assert source.active_domain_count() == 4
            running = {d.name for d in source.list_domains(active=True)}
            assert running == set(report.unplaced)
        finally:
            fleet.close()
            for daemon in daemons:
                daemon.shutdown()

    def test_stubborn_guest_falls_back_to_postcopy(self, trio):
        fleet, daemons, _ = trio
        source = fleet.connection("fl-a")
        deploy(source, "stubborn", 2)
        daemons["fl-a"].drivers["qemu"].backend._get("stubborn").dirty_rate_mib_s = 1e9
        orch = FleetOrchestrator(fleet)  # auto_converge + post_copy on by default
        report = orch.drain_host("fl-a")
        assert report.migrated == 1 and report.postcopy_count == 1
        outcome = report.outcomes[0]
        assert outcome.post_copy and not outcome.converged
        assert fleet.registry().lookup("stubborn").is_active


class TestRebalance:
    def test_rebalance_narrows_the_spread(self, trio):
        fleet, _, _ = trio
        hot = fleet.connection("fl-a")
        for index in range(8):
            deploy(hot, f"hot{index}", 2)
        orch = FleetOrchestrator(fleet)
        report = orch.rebalance(max_moves=6, threshold=0.05)
        assert report.moves and all(m.ok for m in report.moves)
        assert report.imbalance_after < report.imbalance_before
        assert all(m.source == "fl-a" for m in report.moves)
        assert hot.active_domain_count() == 8 - len(report.moves)

    def test_balanced_fleet_stays_put(self, trio):
        fleet, _, _ = trio
        for host in ("fl-a", "fl-b", "fl-c"):
            deploy(fleet.connection(host), f"even-{host}", 2)
        report = FleetOrchestrator(fleet).rebalance()
        assert report.moves == []


class TestRollingRestart:
    def test_rolling_restart_keeps_every_guest(self, tmp_path):
        clock = VirtualClock()
        harnesses = {}
        for name in ("rr-a", "rr-b", "rr-c"):
            harness = CrashHarness(str(tmp_path / name), hostname=name, clock=clock)
            harness.start()
            harnesses[name] = harness
        fleet = FleetManager([h.uri for h in harnesses.values()])
        try:
            for name in harnesses:
                deploy(fleet.connection(name), f"guest-{name}")
            procs = {
                name: harnesses[name].backend.process(f"guest-{name}")
                for name in harnesses
            }
            orch = FleetOrchestrator(fleet)
            reports = orch.rolling_restart(lambda host: harnesses[host].restart())
            assert [r.host for r in reports] == ["rr-a", "rr-b", "rr-c"]
            assert all(r.ok and r.lost == [] for r in reports)
            for report in reports:
                assert report.guests_after == report.guests_before
            # non-intrusive: the emulator processes never blinked
            for name, process in procs.items():
                assert harnesses[name].backend.process(f"guest-{name}") is process
            assert all(h.generation == 2 for h in harnesses.values())
        finally:
            fleet.close()
            for harness in harnesses.values():
                harness.shutdown()

    def test_roll_stops_at_first_failing_host(self, trio):
        fleet, _, _ = trio
        restarted = []

        def restart(host):
            if host == "fl-b":
                raise VirtError("power distribution unit fault")
            restarted.append(host)

        reports = FleetOrchestrator(fleet).rolling_restart(restart)
        assert [r.host for r in reports] == ["fl-a", "fl-b"]
        assert reports[0].ok and not reports[1].ok
        assert "power distribution" in reports[1].error
        assert restarted == ["fl-a"]  # fl-c was never touched


class TestCrashSoak:
    def _crash_fleet(self, tmp_path, clock, guests):
        """A crash-harness source plus two plain destinations."""
        source = CrashHarness(str(tmp_path / "cs-src"), hostname="cs-src", clock=clock)
        source.start()
        dests = [make_daemon(n, clock) for n in ("cs-d1", "cs-d2")]
        fleet = FleetManager(
            [source.uri] + [f"qemu+tcp://{d.hostname}/system" for d in dests]
        )
        for index in range(guests):
            deploy(fleet.connection("cs-src"), f"soak{index}")
        return source, dests, fleet

    def test_daemon_crash_mid_drain_loses_no_guest(self, tmp_path):
        clock = VirtualClock()
        source, dests, fleet = self._crash_fleet(tmp_path, clock, guests=4)
        try:
            plan = CrashPlan().crash(CrashPoint.MID_DISPATCH, op="domain.migrate_perform")
            source.daemon.install_crash_plan(plan)
            orch = FleetOrchestrator(fleet, max_parallel=2)
            report = orch.drain_host("cs-src")
            # the crash killed the first perform; nothing migrated, but the
            # rollback path kept every guest running under the hypervisor
            assert report.migrated == 0 and report.failed == 4
            assert plan.injected and plan.injected[0].op == "domain.migrate_perform"
            assert sorted(source.backend.list_guests()) == [f"soak{i}" for i in range(4)]
            # no half-built shells littering the destinations
            for dest in dests:
                assert dest.drivers["qemu"].num_of_domains() == 0

            # the daemon restarts with journal recovery; the fleet re-dials
            source.restart()
            assert fleet.health_check()["cs-src"] is True
            report = orch.drain_host("cs-src")
            assert report.migrated == 4 and report.failed == 0
            assert fleet.connection("cs-src").active_domain_count() == 0
            survivors = {
                d.name
                for hostname in ("cs-d1", "cs-d2")
                for d in fleet.connection(hostname).list_domains(active=True)
            }
            assert survivors == {f"soak{i}" for i in range(4)}
        finally:
            fleet.close()
            source.shutdown()
            for dest in dests:
                dest.shutdown()

    @pytest.mark.slow
    def test_soak_crash_at_every_seeded_migration_point(self, tmp_path):
        """The drain census: crash the source daemon at every seeded
        opportunity along the drain's RPC stream in turn; no schedule
        may ever lose a guest."""
        # census pass: a clean drain records each kill opportunity
        clock = VirtualClock()
        source, dests, fleet = self._crash_fleet(tmp_path / "census", clock, guests=3)
        plan = CrashPlan()
        source.daemon.install_crash_plan(plan)
        assert FleetOrchestrator(fleet, max_parallel=2).drain_host("cs-src").migrated == 3
        census = list(plan.opportunities)
        fleet.close()
        source.shutdown()
        for dest in dests:
            dest.shutdown()
        assert len(census) >= 10

        for index, (point, op) in enumerate(census):
            clock = VirtualClock()
            source, dests, fleet = self._crash_fleet(
                tmp_path / f"op{index}", clock, guests=3
            )
            try:
                plan = CrashPlan().at(index)
                source.daemon.install_crash_plan(plan)
                orch = FleetOrchestrator(fleet, max_parallel=2)
                try:
                    orch.drain_host("cs-src")
                except VirtError:
                    pass  # the crash can surface outside any one migration
                assert plan.injected, f"opportunity {index} ({point.value} {op})"
                source.restart()
                assert fleet.health_check()["cs-src"] is True
                orch.drain_host("cs-src")
                everywhere = {
                    d.name
                    for hostname in fleet.hostnames()
                    for d in fleet.connection(hostname).list_domains(active=True)
                }
                assert everywhere == {f"soak{i}" for i in range(3)}, (
                    f"guest lost crashing at opportunity {index} ({point.value} {op})"
                )
            finally:
                fleet.close()
                source.shutdown()
                for dest in dests:
                    dest.shutdown()
