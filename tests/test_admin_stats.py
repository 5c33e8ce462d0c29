"""Live-daemon observability tests: admin stats API + virt-admin CLI.

A real in-process :class:`Libvirtd` serves real clients; the tests
assert that ``server-stats``/``client-stats``/``reset-stats`` and the
Prometheus exposition page reflect the traffic that actually happened.
"""

import io
import threading
import time

import pytest

import repro
from repro.admin import admin_open
from repro.cli import virt_admin
from repro.daemon import Libvirtd
from repro.errors import InvalidArgumentError, NoDomainError, RPCError
from repro.observability.export import parse_prometheus
from repro.observability.metrics import MetricsRegistry
from repro.util.virtlog import LOG_INFO

GiB_KIB = 1024 * 1024


def kvm_xml(name="statsvm"):
    from repro.xmlconfig.domain import DomainConfig

    return DomainConfig(
        name=name, domain_type="kvm", memory_kib=GiB_KIB, vcpus=1
    )


def settle(daemon):
    """Wait until the pool has counted every job it was given: a worker
    counts a job after its reply has already reached the client."""
    submitted = daemon.metrics.get("workerpool_jobs_total")
    deadline = time.monotonic() + 5
    while daemon.pool.jobs_completed < sum(
        child.value for labels, child in submitted.samples() if labels["pool"] == daemon.pool.name
    ):
        assert time.monotonic() < deadline, "pool never counted its jobs"
        time.sleep(0.005)


def page_total(page, sample, **match):
    """Sum of one sample name's series on a parsed exposition page."""
    family = sample[: -len("_count")] if sample.endswith("_count") else sample
    if family not in page:
        return 0
    return sum(
        value for name, labels, value in page[family].samples
        if name == sample and match.items() <= labels.items()
    )


@pytest.fixture()
def daemon():
    with Libvirtd(
        hostname="statsnode",
        min_workers=3,
        max_workers=10,
        prio_workers=2,
        log_level=LOG_INFO,
    ) as d:
        d.listen("unix")
        d.listen("tcp")
        d.enable_admin()
        yield d


@pytest.fixture()
def traffic(daemon):
    """A client connection that exercised the full lifecycle path."""
    conn = repro.open_connection("qemu+tcp://statsnode/system")
    dom = conn.define_domain(kvm_xml())
    dom.create()
    dom.destroy()
    yield conn
    conn.close()


@pytest.fixture()
def admin(daemon):
    conn = admin_open("statsnode")
    yield conn
    if not conn.closed:
        conn.close()


class TestServerStats:
    def test_live_workerpool_rpc_and_driver_numbers(self, daemon, traffic, admin):
        stats = admin.server_stats("libvirtd")
        assert stats["server"] == "libvirtd"
        assert stats["hostname"] == "statsnode"

        pool = stats["workerpool"]
        assert pool["minWorkers"] == 3
        assert pool["maxWorkers"] == 10
        assert pool["nWorkers"] >= 3
        assert stats["jobs_completed"] > 0

        rpc = stats["rpc"]
        assert rpc["calls_served"] > 0
        assert rpc["calls_failed"] == 0
        procedures = rpc["procedures"]
        assert "connect.open" in procedures
        assert "domain.create" in procedures
        assert procedures["domain.create"]["count"] >= 1
        assert procedures["domain.create"]["mean_seconds"] >= 0.0

        assert "qemu" in stats["drivers"]
        assert stats["drivers"]["qemu"]["ops"] >= 3  # define + create + destroy

        tracing = stats["tracing"]
        assert tracing["spans_started"] > 0
        assert tracing["spans_finished"] > 0
        assert tracing["spans_failed"] == 0

        assert stats["clients"]["connected"] >= 1
        assert stats["clients"]["max"] == 120

    def test_admin_server_scoped_separately(self, daemon, traffic, admin):
        stats = admin.server_stats("admin")
        procedures = stats["rpc"]["procedures"]
        # only admin.* dispatches belong to the admin server's families
        assert all(name.startswith("admin.") for name in procedures)
        libvirtd = admin.server_stats("libvirtd")["rpc"]["procedures"]
        assert not any(name.startswith("admin.") for name in libvirtd)

    def test_admin_server_handle_stats(self, daemon, admin):
        stats = admin.lookup_server("admin").stats()
        assert stats["server"] == "admin"

    def test_unknown_server_rejected(self, admin):
        with pytest.raises(InvalidArgumentError, match="no server named"):
            admin.server_stats("ghost")


class TestClientStats:
    def test_rows_reflect_traffic(self, daemon, traffic, admin):
        rows = admin.client_stats()
        assert len(rows) >= 2  # the qemu client + this admin connection
        by_server = {row["server"] for row in rows}
        assert {"libvirtd", "admin"} <= by_server
        qemu_rows = [r for r in rows if r["server"] == "libvirtd"]
        assert qemu_rows[0]["calls"] > 0
        assert qemu_rows[0]["bytes_in"] > 0
        assert qemu_rows[0]["bytes_out"] > 0
        assert qemu_rows[0]["last_activity"] >= qemu_rows[0]["connected_since"]

    def test_single_client_lookup(self, daemon, traffic, admin):
        first = admin.client_stats()[0]
        row = admin.client_stats(first["id"])
        assert row["id"] == first["id"]

    def test_unknown_client_rejected(self, daemon, admin):
        with pytest.raises(InvalidArgumentError, match="no client"):
            admin.client_stats(9999)


class TestMetricsExport:
    def test_exposition_page_parses_and_reflects_traffic(self, daemon, traffic, admin):
        parsed = parse_prometheus(admin.metrics_text())
        for family in (
            "rpc_server_calls_total",
            "rpc_server_dispatch_seconds",
            "workerpool_queue_depth",
            "workerpool_jobs_total",
            "driver_op_seconds",
            "driver_api_calls_total",
            "transport_bytes_received_total",
            "transport_connections_total",
            "daemon_clients",
        ):
            assert family in parsed, f"{family} missing from exposition page"

        api_calls = {
            labels["driver"]: value
            for _, labels, value in parsed["driver_api_calls_total"].samples
        }
        assert api_calls["qemu"] >= 3

        ok_calls = sum(
            value
            for _, labels, value in parsed["rpc_server_calls_total"].samples
            if labels["server"] == "libvirtd" and labels["status"] == "ok"
        )
        assert ok_calls > 0

        clients = {
            labels["server"]: value
            for _, labels, value in parsed["daemon_clients"].samples
        }
        assert clients["libvirtd"] >= 1
        assert clients["admin"] >= 1

    def test_transport_faults_counted(self, daemon, admin):
        from repro.faults import FaultPlan

        daemon.listener("tcp").install_fault_plan(FaultPlan().delay(0.05))
        conn = repro.open_connection("qemu+tcp://statsnode/system")
        conn.list_domains()
        conn.close()
        parsed = parse_prometheus(daemon.metrics_text())
        faults = {
            labels["kind"]: value
            for _, labels, value in parsed["transport_faults_total"].samples
        }
        assert faults.get("delay", 0) > 0


class TestResetStats:
    def test_reset_zeroes_counters(self, daemon, traffic, admin):
        before = admin.server_stats("libvirtd")
        assert before["rpc"]["calls_served"] > 0

        result = admin.reset_stats()
        assert result["families_reset"] > 0
        assert result["spans_dropped"] > 0

        after = admin.server_stats("libvirtd")
        assert after["rpc"]["calls_served"] == 0
        assert after["rpc"]["procedures"] == {}
        assert after["drivers"] == {}
        # live views survive a reset: the clients are still connected
        assert after["clients"]["connected"] >= 1
        assert after["workerpool"]["nWorkers"] >= 3

    def test_reset_zeroes_jobs_completed(self, daemon, traffic):
        """``jobsCompleted`` is the count of ``workerpool_job_service_seconds``,
        so ``reset-stats`` zeroes it with every other series.  (``jobs_cancelled``
        has no series: it is a plain counter of the pool's, and reset leaves it.)"""
        settle(daemon)
        assert daemon.server_stats()["jobs_completed"] > 0
        daemon.reset_stats()
        assert daemon.server_stats()["jobs_completed"] == 0


class TestStatsMatchExposition:
    def test_every_aggregate_is_its_series(self):
        """Each number ``server-stats`` prints is a read of one series, so it
        equals that series on the exposition page: OK calls, an error reply,
        a keepalive ping, a queued and a rejected call, pooled jobs and
        wire-propagated spans."""
        gate = threading.Event()
        with Libvirtd(hostname="onecount", max_client_requests=1) as daemon:
            daemon.listen("unix")
            daemon.rpc.register("domain.save", lambda conn, body: gate.wait(timeout=30.0))
            daemon.rpc.max_queued_requests = 1
            conn = repro.open_connection("qemu+unix://onecount/system")
            client = conn._driver.client
            client.tracer = daemon.tracer  # so dispatches adopt a wire context
            dom = conn.define_domain(kvm_xml("counted"))
            dom.create()
            dom.destroy()
            with pytest.raises(NoDomainError):
                conn.lookup_domain("missing")
            assert client.send_ping() is True
            first = client.call_async("domain.save", "a")
            second = client.call_async("domain.save", "b")  # queued
            third = client.call_async("domain.save", "c")  # rejected
            with pytest.raises(RPCError, match="max_client_requests exceeded"):
                third.result()
            gate.set()
            first.result()
            second.result()
            settle(daemon)
            stats = daemon.server_stats()
            page = parse_prometheus(daemon.metrics_text())
            conn.close()
        rpc = stats["rpc"]
        server = {"server": "libvirtd"}
        assert (rpc["calls_queued"], rpc["calls_rejected"], rpc["pings_answered"]) == (1, 1, 1)
        assert rpc["calls_failed"] >= 2 and stats["jobs_completed"] >= 5
        assert stats["tracing"]["spans_propagated"] > 0
        assert rpc["calls_served"] == page_total(
            page, "rpc_server_calls_total", status="ok", **server
        )
        assert rpc["calls_failed"] == page_total(
            page, "rpc_server_calls_total", status="error", **server
        )
        assert rpc["pings_answered"] == page_total(
            page, "rpc_server_keepalive_pings_total", **server
        )
        assert rpc["calls_queued"] == page_total(
            page, "rpc_server_backpressure_total", outcome="queued", **server
        )
        assert rpc["calls_rejected"] == page_total(
            page, "rpc_server_backpressure_total", outcome="rejected", **server
        )
        assert stats["jobs_completed"] == page_total(
            page, "workerpool_job_service_seconds_count", pool="libvirtd@onecount"
        )
        assert stats["tracing"]["spans_propagated"] == page_total(
            page, "spans_propagated_total"
        )


class TestStatsLogging:
    def test_periodic_structured_emission(self, daemon, traffic):
        daemon.enable_stats_logging(5.0)
        daemon.clock.sleep(5.5)
        daemon.eventloop.run_due()
        lines = [r for r in daemon.logger.memory_records() if " metric " in r]
        assert lines, "no structured metric lines reached the log outputs"
        assert any("rpc_server_calls_total" in line for line in lines)


class TestMigrationPhases:
    def test_phase_histogram_recorded(self):
        from repro.core.connection import Connection
        from repro.core.uri import ConnectionURI
        from repro.drivers.qemu import QemuDriver
        from repro.hypervisors.host import SimHost
        from repro.hypervisors.qemu_backend import QemuBackend
        from repro.util.clock import VirtualClock

        clock = VirtualClock()
        src_backend = QemuBackend(host=SimHost(hostname="src", clock=clock), clock=clock)
        dst_backend = QemuBackend(host=SimHost(hostname="dst", clock=clock), clock=clock)
        src = Connection(QemuDriver(src_backend), ConnectionURI.parse("qemu:///src"))
        dst = Connection(QemuDriver(dst_backend), ConnectionURI.parse("qemu:///dst"))

        registry = MetricsRegistry(now=clock.now)
        src._driver.metrics = registry

        dom = src.define_domain(kvm_xml("mover")).start()
        dom.migrate(dst)

        phases = registry.get("migration_phase_seconds")
        recorded = {labels["phase"]: child for labels, child in phases.samples()}
        for phase in ("begin", "prepare", "perform", "finish", "confirm"):
            assert phase in recorded, f"phase {phase} not timed"
            assert recorded[phase].count == 1
        assert recorded["perform"].sum > 0.0  # the copy took modelled time


class TestCLI:
    def run(self, *argv):
        out = io.StringIO()
        rc = virt_admin.main(["-c", "statsnode", *argv], out=out)
        return rc, out.getvalue()

    def test_server_stats_command(self, daemon, traffic):
        rc, output = self.run("server-stats")
        assert rc == 0
        assert "Server: libvirtd on statsnode" in output
        assert "Workerpool:" in output
        assert "jobsCompleted" in output
        assert "domain.create" in output
        assert "qemu" in output
        assert "Tracing: started=" in output

    def test_server_stats_admin_scope(self, daemon, traffic):
        rc, output = self.run("server-stats", "admin")
        assert rc == 0
        assert "Server: admin on statsnode" in output
        assert "domain.create" not in output

    def test_client_stats_command(self, daemon, traffic):
        rc, output = self.run("client-stats")
        assert rc == 0
        assert "BytesIn" in output
        assert "libvirtd" in output

    def test_reset_stats_command(self, daemon, traffic):
        rc, output = self.run("reset-stats")
        assert rc == 0
        assert "stats reset:" in output
        assert "metric families" in output

    def test_metrics_command_round_trips(self, daemon, traffic):
        rc, output = self.run("metrics")
        assert rc == 0
        parsed = parse_prometheus(output)
        assert "rpc_server_calls_total" in parsed
        assert "driver_op_seconds" in parsed

    def test_unknown_server_is_an_error(self, daemon):
        rc, _ = self.run("server-stats", "ghost")
        assert rc == 1
