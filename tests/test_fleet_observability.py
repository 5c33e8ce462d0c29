"""Tests for the fleet-wide observability plane (PR 9).

Four pillars under test:

- **trace stitching** — one drain yields ONE trace tree containing
  spans from the client (orchestrator + rpc.call), the source daemon,
  and the destination daemons, merged by the global span-id space;
- **metrics federation** — every daemon's Prometheus page pulled,
  relabeled with ``host=``, merged, and rolled up fleet-wide;
- **health scoring & SLOs** — per-host scores from scrape freshness,
  connectivity, saturation, journal lag and event drops, feeding the
  fleet manager's health verdicts; per-procedure latency SLO burn;
- **flight recorder** — the bounded per-daemon black box that survives
  ``kill -9`` and lets the next incarnation close interrupted spans.
"""

import math
import threading

import pytest

import repro
from repro.errors import DaemonCrashError, VirtError
from repro.faults import CrashHarness, CrashPlan, CrashPoint
from repro.fleet import FleetManager, FleetOrchestrator
from repro.daemon.libvirtd import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.observability.export import parse_prometheus, render_prometheus
from repro.observability.flightrec import (
    FlightRecorder,
    interrupted_dispatches,
    read_tail,
)
from repro.observability.fleet import (
    FleetScraper,
    collect_fleet_spans,
    merge_pages,
    quantile_from_buckets,
    relabel,
    render_fleet_trace,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.state.statedir import StateDir
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig

GiB_KIB = 1024 * 1024


def make_daemon(name, clock, memory_gib=32, cpus=32):
    host = SimHost(
        hostname=name, cpus=cpus, memory_kib=memory_gib * GiB_KIB, clock=clock
    )
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
def observed_trio():
    """Three daemons and a fleet whose connections share one metrics
    registry and one tracer — the substrate for stitching."""
    clock = VirtualClock()
    daemons = {n: make_daemon(n, clock) for n in ("ob-a", "ob-b", "ob-c")}
    metrics = MetricsRegistry(now=clock.now)
    tracer = Tracer(clock.now, metrics=metrics)
    fleet = FleetManager(
        [f"qemu+tcp://{n}/system" for n in daemons],
        metrics=metrics,
        tracer=tracer,
    )
    yield fleet, daemons, clock, tracer, metrics
    fleet.close()
    for daemon in daemons.values():
        daemon.shutdown()


# ======================================================================
# cross-host trace stitching
# ======================================================================


class TestTraceStitching:
    def test_drain_yields_one_stitched_tree_across_three_processes(
        self, observed_trio
    ):
        fleet, daemons, clock, tracer, _ = observed_trio
        for index in range(3):
            deploy(fleet.connection("ob-a"), f"web-{index}")
        report = FleetOrchestrator(fleet, max_parallel=2).drain_host("ob-a")
        assert report.migrated == 3

        drains = [s for s in tracer.export() if s["name"] == "fleet.drain"]
        assert len(drains) == 1
        trace_id = drains[0]["trace_id"]
        spans = collect_fleet_spans(
            trace_id, hostnames=daemons, local_tracer=tracer
        )

        # one trace: every span, from every process, shares the id
        assert {s["trace_id"] for s in spans} == {trace_id}
        names = {s["name"] for s in spans}
        assert {"fleet.drain", "drain.wave", "fleet.migrate", "rpc.call",
                "rpc.dispatch"} <= names
        # client side + source daemon + at least one destination daemon
        hosts_of = lambda n: {
            s["attributes"]["host"]
            for s in spans
            if s["name"] == n and "host" in s.get("attributes", {})
        }
        assert "ob-a" in hosts_of("rpc.dispatch")  # source dispatches
        assert hosts_of("rpc.dispatch") - {"ob-a"}  # destination dispatches
        client_spans = [s for s in spans if s["name"] == "rpc.call"]
        assert client_spans  # the client's side of the same trace

        # migration handshake phases ride the same trace
        for phase in ("begin", "prepare", "perform", "finish", "confirm"):
            assert f"migration.{phase}" in names

    def test_spans_nest_under_the_drain_root(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        deploy(fleet.connection("ob-a"), "solo")
        FleetOrchestrator(fleet).drain_host("ob-a")
        trace_id = next(
            s["trace_id"] for s in tracer.export() if s["name"] == "fleet.drain"
        )
        spans = collect_fleet_spans(trace_id, hostnames=daemons, local_tracer=tracer)
        by_id = {s["span_id"]: s for s in spans}
        # every non-root span's parent is in the same stitched set
        roots = [s for s in spans if s["parent_id"] not in by_id]
        assert [s["name"] for s in roots] == ["fleet.drain"]
        rendered = render_fleet_trace(spans)
        assert rendered.startswith("fleet.drain")
        assert "rpc.dispatch" in rendered and "fleet.migrate" in rendered

    def test_collect_dedupes_and_tolerates_missing_daemons(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        deploy(fleet.connection("ob-a"), "lone")
        FleetOrchestrator(fleet).drain_host("ob-a")
        trace_id = next(
            s["trace_id"] for s in tracer.export() if s["name"] == "fleet.drain"
        )
        once = collect_fleet_spans(trace_id, hostnames=daemons, local_tracer=tracer)
        twice = collect_fleet_spans(
            trace_id,
            hostnames=list(daemons) * 2 + ["no-such-host"],
            local_tracer=tracer,
        )
        assert len(once) == len(twice)
        assert len({s["span_id"] for s in twice}) == len(twice)

    def test_rebalance_and_rolling_restart_open_spans(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        FleetOrchestrator(fleet).rebalance()
        assert any(s["name"] == "fleet.rebalance" for s in tracer.export())


# ======================================================================
# orchestrator metrics (satellite a)
# ======================================================================


class TestOrchestratorMetrics:
    def test_drain_emits_fleet_metrics(self, observed_trio):
        fleet, daemons, clock, tracer, metrics = observed_trio
        for index in range(3):
            deploy(fleet.connection("ob-a"), f"m-{index}")
        report = FleetOrchestrator(fleet, max_parallel=2).drain_host("ob-a")

        migrations = {
            labels["outcome"]: child.value
            for labels, child in metrics.get("fleet_migrations_total").samples()
        }
        assert migrations.get("ok") == report.migrated == 3
        ((_, waves),) = metrics.get("fleet_waves_total").samples()
        assert waves.value == report.waves == 2
        ((_, drain),) = metrics.get("fleet_drain_seconds").samples()
        assert drain.count == 1 and drain.sum == report.makespan_s > 0

    def test_unplaced_guests_counted(self, tmp_path):
        clock = VirtualClock()
        # one tiny destination that cannot absorb the source's guest
        daemons = {
            "ou-src": make_daemon("ou-src", clock, memory_gib=32),
            "ou-dst": make_daemon("ou-dst", clock, memory_gib=1),
        }
        metrics = MetricsRegistry(now=clock.now)
        fleet = FleetManager(
            [f"qemu+tcp://{n}/system" for n in daemons], metrics=metrics
        )
        try:
            deploy(fleet.connection("ou-src"), "whale", memory_gib=8)
            report = FleetOrchestrator(fleet).drain_host("ou-src")
            assert report.unplaced == ["whale"]
            outcomes = {
                labels["outcome"]: child.value
                for labels, child in metrics.get(
                    "fleet_migrations_total"
                ).samples()
            }
            assert outcomes.get("unplaced") == 1.0
        finally:
            fleet.close()
            for daemon in daemons.values():
                daemon.shutdown()


# ======================================================================
# metrics federation + parser edge cases (satellite c)
# ======================================================================


class TestFederation:
    def test_relabel_stamps_every_sample(self):
        page = parse_prometheus(
            "# TYPE x counter\nx{a=\"1\"} 2\nx{a=\"2\"} 3\n"
        )
        stamped = relabel(page, "h1")
        for _, labels, _ in stamped["x"].samples:
            assert labels["host"] == "h1"
        # the original page is untouched
        assert all("host" not in lb for _, lb, _ in page["x"].samples)

    def test_duplicate_series_across_hosts_stay_distinct(self):
        text = "# TYPE rpc_calls counter\nrpc_calls{proc=\"ping\"} 5\n"
        pages = {
            "h1": relabel(parse_prometheus(text), "h1"),
            "h2": relabel(parse_prometheus(text), "h2"),
        }
        merged = parse_prometheus(merge_pages(pages))
        samples = merged["rpc_calls"].samples
        assert len(samples) == 2  # same labels, different host → two series
        assert {lb["host"] for _, lb, _ in samples} == {"h1", "h2"}
        assert all(value == 5.0 for _, _, value in samples)

    def test_escaped_label_values_round_trip(self):
        registry = MetricsRegistry()
        family = registry.counter("esc_total", 'tricky "help"', ("path",))
        nasty = 'C:\\temp\n"quoted"'
        family.labels(path=nasty).inc(7)
        parsed = parse_prometheus(render_prometheus(registry))
        ((_, labels, value),) = parsed["esc_total"].samples
        assert labels["path"] == nasty
        assert value == 7.0
        # and the escaping survives a federation merge too
        merged = parse_prometheus(merge_pages({"hX": relabel(parsed, "hX")}))
        ((_, labels, _),) = merged["esc_total"].samples
        assert labels["path"] == nasty and labels["host"] == "hX"

    def test_inf_and_nan_samples_parse_and_rollups_skip_nan(self):
        text = (
            "# TYPE weird gauge\n"
            'weird{k="inf"} +Inf\n'
            'weird{k="ninf"} -Inf\n'
            'weird{k="nan"} NaN\n'
            'weird{k="num"} 4\n'
        )
        parsed = parse_prometheus(text)
        values = {lb["k"]: v for _, lb, v in parsed["weird"].samples}
        assert values["inf"] == math.inf and values["ninf"] == -math.inf
        assert math.isnan(values["nan"]) and values["num"] == 4.0

    def test_histogram_merge_and_quantile(self):
        text = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 8\n'
            'lat_bucket{le="+Inf"} 10\n'
            "lat_sum 1.5\n"
            "lat_count 10\n"
        )
        pages = {
            "h1": relabel(parse_prometheus(text), "h1"),
            "h2": relabel(parse_prometheus(text), "h2"),
        }
        merged = merge_pages(pages)
        reparsed = parse_prometheus(merged)
        counts = [
            value
            for name, _, value in reparsed["lat"].samples
            if name == "lat_count"
        ]
        assert sorted(counts) == [10.0, 10.0]
        assert quantile_from_buckets({0.1: 16, math.inf: 20}, 0.5) == 0.1
        assert quantile_from_buckets({0.1: 16, math.inf: 20}, 0.99) == math.inf
        assert quantile_from_buckets({}, 0.99) == 0.0

    def test_federated_blob_covers_every_host(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        deploy(fleet.connection("ob-a"), "fed-guest")
        scraper = FleetScraper(fleet)
        blob = scraper.federate()
        parsed = parse_prometheus(blob)
        dispatch = parsed["rpc_server_dispatch_seconds"]
        hosts = {lb.get("host") for _, lb, _ in dispatch.samples}
        assert hosts == {"ob-a", "ob-b", "ob-c"}
        # HELP/TYPE appear exactly once per family in the merged page
        assert blob.count("# TYPE rpc_server_dispatch_seconds ") == 1

    def test_scrape_counts_outcomes(self, observed_trio):
        fleet, daemons, clock, tracer, metrics = observed_trio
        scraper = FleetScraper(fleet)
        scraper.scrape()
        daemons["ob-c"].shutdown()
        scraper.scrape()
        outcomes = {
            labels["outcome"]: child.value
            for labels, child in metrics.get("fleet_scrapes_total").samples()
        }
        assert outcomes["ok"] == 5.0 and outcomes["error"] == 1.0


# ======================================================================
# health scoring and SLOs
# ======================================================================


class TestHealthScoring:
    def test_idle_fleet_scores_healthy(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        scraper = FleetScraper(fleet)
        scores = scraper.health_scores()
        assert set(scores) == {"ob-a", "ob-b", "ob-c"}
        for score in scores.values():
            assert score.healthy and score.score > 0.9
            assert set(score.components) == {
                "freshness", "connectivity", "saturation", "journal", "events",
            }

    def test_dead_daemon_scores_zero_freshness(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        scraper = FleetScraper(fleet)
        daemons["ob-b"].shutdown()
        score = scraper.score_host("ob-b")
        assert score.components["freshness"] == 0.0
        assert not score.healthy

    def test_stale_scrape_decays_freshness(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        scraper = FleetScraper(fleet, max_age_s=10.0)
        scraper.scrape()
        clock.sleep(60.0)
        score = scraper.score_host("ob-a", rescrape=False)
        assert score.components["freshness"] == 0.0

    def test_install_feeds_fleet_health_check(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        # an impossible threshold turns the scorer into a veto: the wire
        # probes still succeed, so any 'unhealthy' verdict proves the
        # scorer's opinion was consulted and ANDed in
        scraper = FleetScraper(fleet, healthy_threshold=2.0)
        scraper.install()
        assert fleet.health_scorer is not None
        results = fleet.health_check()
        assert results == {"ob-a": False, "ob-b": False, "ob-c": False}
        assert "health score" in fleet.entry("ob-a").last_error

    def test_drain_avoids_scorer_rejected_destination(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        deploy(fleet.connection("ob-a"), "choosy")
        scraper = FleetScraper(fleet)
        scraper.install()
        # wrap the scorer: ob-b is vetoed no matter what the scrape says
        fleet.health_scorer = lambda hostname: hostname != "ob-b"
        report = FleetOrchestrator(fleet).drain_host("ob-a")
        assert report.migrated == 1
        assert report.outcomes[0].dest == "ob-c"


class TestSLOReport:
    def test_compliant_procedures(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        deploy(fleet.connection("ob-a"), "slo-guest")
        scraper = FleetScraper(fleet)
        rows = scraper.slo_report(rescrape=True)
        assert rows
        by_proc = {r["procedure"]: r for r in rows}
        fast = by_proc["connect.get_hostname"]
        assert fast["met"] and fast["burn_rate"] == 0.0
        assert fast["compliance"] == 1.0
        # a modelled 5s guest boot honestly blows a 500ms latency target
        slow = by_proc["domain.create"]
        assert not slow["met"] and slow["burn_rate"] > 1.0

    def test_impossible_target_burns(self, observed_trio):
        fleet, daemons, clock, tracer, _ = observed_trio
        deploy(fleet.connection("ob-a"), "burn-guest")
        scraper = FleetScraper(
            fleet, slo_targets={"domain.create": 1e-9}, slo_goal=0.99
        )
        rows = scraper.slo_report(rescrape=True)
        row = next(r for r in rows if r["procedure"] == "domain.create")
        assert row["target_s"] == 1e-9
        assert row["compliance"] < 1.0
        assert row["burn_rate"] > 1.0 and not row["met"]


# ======================================================================
# flight recorder
# ======================================================================


class TestFlightRecorderUnit:
    def test_ring_is_bounded_but_total_is_not(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock.now, capacity=4)
        for index in range(10):
            recorder.record("event", n=index)
        assert len(recorder) == 4
        assert recorder.records_total == 10
        assert [r["n"] for r in recorder.records()] == [6, 7, 8, 9]

    def test_kind_filter_and_dump(self):
        clock = VirtualClock()
        recorder = FlightRecorder(clock.now, capacity=8)
        recorder.record("rpc.begin", serial=1)
        recorder.record("mutation", journal=[["domain", "g", 1]], events=[])
        assert [r["kind"] for r in recorder.records("mutation")] == ["mutation"]
        dump = recorder.dump()
        assert dump["persistent"] is False and len(dump["records"]) == 2

    def test_persistence_appends_parseable_lines(self, tmp_path):
        clock = VirtualClock()
        statedir = StateDir(str(tmp_path))
        recorder = FlightRecorder(clock.now, capacity=8, statedir=statedir)
        recorder.record("rpc.begin", server="s", serial=9)
        tail = read_tail(statedir)
        assert len(tail) == 1 and tail[0]["serial"] == 9

    def test_compaction_bounds_the_file(self, tmp_path):
        clock = VirtualClock()
        statedir = StateDir(str(tmp_path))
        recorder = FlightRecorder(clock.now, capacity=4, statedir=statedir)
        for index in range(50):
            recorder.record("event", n=index)
        assert recorder.compactions >= 1
        assert len(read_tail(statedir)) <= 4 * 4 + 4  # COMPACT_FACTOR * cap + slack

    def test_recover_seeds_ring_and_bumps_incarnation(self, tmp_path):
        clock = VirtualClock()
        statedir = StateDir(str(tmp_path))
        first = FlightRecorder(clock.now, capacity=8, statedir=statedir)
        first.record("rpc.begin", server="s", serial=1)
        second = FlightRecorder(clock.now, capacity=8, statedir=statedir)
        tail = second.recover()
        assert len(tail) == 1 and second.incarnation == 1
        assert second.recovered_records == 1
        second.record("rpc.end", server="s", serial=1)
        assert [r["life"] for r in second.records()] == [0, 1]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        clock = VirtualClock()
        statedir = StateDir(str(tmp_path))
        recorder = FlightRecorder(clock.now, capacity=8, statedir=statedir)
        recorder.record("event", n=1)
        statedir.append("flightrec.log", b'{"kind": "event", "torn')
        tail = read_tail(statedir)
        assert len(tail) == 1 and tail[0]["n"] == 1

    def test_interrupted_dispatch_detection(self):
        records = [
            {"kind": "rpc.begin", "server": "s", "serial": 1},
            {"kind": "rpc.end", "server": "s", "serial": 1},
            {"kind": "rpc.begin", "server": "s", "serial": 2},
        ]
        assert [r["serial"] for r in interrupted_dispatches(records)] == [2]

    def test_recovery_record_resets_older_incarnations(self):
        records = [
            {"kind": "rpc.begin", "server": "s", "serial": 1},
            {"kind": "recovery", "recovered": 1},
            {"kind": "rpc.begin", "server": "s", "serial": 7},
        ]
        # serial 1 was already closed by the incarnation that wrote the
        # recovery record; only serial 7 is still dangling
        assert [r["serial"] for r in interrupted_dispatches(records)] == [7]

    def test_two_connections_with_one_serial_pair_by_call(self):
        """Serials are per connection and every client starts at 1: an
        ``end`` closes the begin of its own dispatch, not whichever begin
        last carried that serial."""
        records = [
            {"kind": "rpc.begin", "server": "s", "serial": 7, "call": 11,
             "procedure": "domain.create"},
            {"kind": "rpc.begin", "server": "s", "serial": 7, "call": 12,
             "procedure": "domain.get_info"},
            {"kind": "rpc.end", "server": "s", "serial": 7, "call": 12},
        ]
        assert [r["procedure"] for r in interrupted_dispatches(records)] == ["domain.create"]

    def test_records_without_a_call_ordinal_pair_by_serial(self):
        """Tails written before the ``call`` field still close: a record
        with an ordinal never pairs with one without."""
        records = [
            {"kind": "rpc.begin", "server": "s", "serial": 1},
            {"kind": "rpc.begin", "server": "s", "serial": 1, "call": 1},
            {"kind": "rpc.end", "server": "s", "serial": 1},
        ]
        assert [r.get("call") for r in interrupted_dispatches(records)] == [1]


class TestDaemonFlightRecorder:
    def test_rpc_traffic_leaves_paired_records(self, tmp_path):
        clock = VirtualClock()
        harness = CrashHarness(str(tmp_path), hostname="fr-d", clock=clock)
        harness.start()
        try:
            fleet = FleetManager([harness.uri])
            deploy(fleet.connection("fr-d"), "boxed")
            recorder = harness.daemon.flight_recorder
            begins = recorder.records("rpc.begin")
            ends = recorder.records("rpc.end")
            assert begins and len(begins) == len(ends)
            assert all(r["server"] == "libvirtd" for r in begins)
            assert {r["status"] for r in ends} == {"ok"}
            # the funnel reported each commit once: what it journalled
            # and what it published, in one record
            mutations = recorder.records("mutation")
            assert [[e[3] for e in r["events"]] for r in mutations] == [["defined"], ["started"]]
            assert [[j[:2] for j in r["journal"]] for r in mutations] == [[("domain", "boxed")]] * 2
            assert all(r["driver"] == "qemu" for r in mutations)
            fleet.close()
        finally:
            harness.shutdown()

    def test_a_lifecycle_cycle_writes_eighteen_records(self, tmp_path):
        """define, start, suspend, resume, destroy, undefine: one
        ``rpc.begin``, one ``rpc.end`` and one ``mutation`` per call."""
        daemon = Libvirtd(hostname="fr-cycle", state_dir=str(tmp_path))
        daemon.listen("unix")
        try:
            conn = repro.open_connection("qemu+unix://fr-cycle/system")
            recorder = daemon.flight_recorder
            written = recorder.records_total
            dom = conn.define_domain(DomainConfig(name="cycled", domain_type="kvm", memory_kib=GiB_KIB))
            dom.create()
            dom.suspend()
            dom.resume()
            dom.destroy()
            dom.undefine()
            assert recorder.records_total - written == 18
            fresh = recorder.records()[-18:]
            assert [r["kind"] for r in fresh] == ["rpc.begin", "mutation", "rpc.end"] * 6
            mutations = recorder.records("mutation")
            assert [e[1:] for r in mutations for e in r["events"]] == [
                ("lifecycle", "cycled", event)
                for event in ("defined", "started", "suspended", "resumed", "stopped", "undefined")
            ]
            # suspend and resume change nothing the journal keeps
            assert [[j[:2] for j in r["journal"]] for r in mutations] == [
                [("domain", "cycled")]
            ] * 2 + [[]] * 2 + [[("domain", "cycled")]] * 2
            lsns = [j[2] for r in mutations for j in r["journal"]]
            assert lsns == sorted(lsns) and lsns[-1] == daemon.drivers["qemu"]._state.lsn
            conn.close()
        finally:
            daemon.shutdown()

    def test_a_restart_keeps_the_black_box_it_inherited(self, tmp_path):
        """Recovery rewrites every journal record.  Recorded one line each,
        600 guests' rewrites evicted every pre-crash record from the
        512-slot ring; armed after recovery, the recorder keeps the dead
        life's last 511 records beside its own ``recovery`` record."""
        harness = CrashHarness(str(tmp_path), hostname="fr-600")
        harness.start()
        drv = harness.connect()
        for n in range(600):
            drv.domain_define_xml(
                DomainConfig(name=f"g{n}", domain_type="kvm", memory_kib=GiB_KIB).to_xml()
            )
        harness.daemon.crash()
        harness.restart()
        try:
            assert harness.daemon.recovery["qemu"]["domains"] == 600
            records = harness.daemon.flight_dump()["records"]
            assert len([r for r in records if r["life"] == 0]) >= 511
            assert [r["kind"] for r in records if r["life"] == 1] == ["recovery"]
            assert records[-2]["kind"] == "rpc.end"
        finally:
            drv.close()
            harness.shutdown()

    def test_graceful_shutdown_compacts_and_recovers_clean(self, tmp_path):
        clock = VirtualClock()
        harness = CrashHarness(str(tmp_path), hostname="fr-g", clock=clock)
        harness.start()
        fleet = FleetManager([harness.uri])
        deploy(fleet.connection("fr-g"), "tidy")
        fleet.close()
        harness.daemon.shutdown()
        harness.restart()
        try:
            dump = harness.daemon.flight_dump()
            assert dump["incarnation"] == 1
            assert dump["recovered_records"] > 0
            kinds = [r["kind"] for r in dump["records"]]
            assert "shutdown" in kinds and "recovery" in kinds
            # graceful end: nothing was interrupted
            assert harness.daemon.recovery["flightrec"]["interrupted_spans"] == 0
        finally:
            harness.shutdown()


class TestCrashFlightDump:
    def test_crash_under_two_clients_closes_the_dispatch_it_cut_short(self, tmp_path):
        """Client A's pooled call is parked inside its handler; client B's
        inline read carries the same serial, begins and ends; the daemon
        dies.  Recovery must close A's dispatch — B's ``end`` is not A's."""
        clock = VirtualClock()
        daemon = Libvirtd(hostname="fr-two", clock=clock, state_dir=str(tmp_path))
        daemon.listen("unix")
        parked, released = threading.Event(), threading.Event()

        def park(conn, body):
            parked.set()
            released.wait(10)
            raise DaemonCrashError("killed while parked")  # a dead process writes no end

        daemon.rpc.register("domain.create", park)  # not priority: runs on a worker
        a = repro.open_connection("qemu+unix://fr-two/system")
        b = repro.open_connection("qemu+unix://fr-two/system")
        outcome = []

        def call_a():
            try:
                a._driver.domain_create("anything")
            except VirtError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call_a)
        caller.start()
        try:
            assert parked.wait(10)
            assert b._driver.ping() == "pong"
            tail = daemon.flight_recorder.records()
            begin_a = [r for r in tail if r["kind"] == "rpc.begin"][-2]
            begin_b, end_b = tail[-2:]
            assert begin_a["procedure"] == "domain.create"
            assert (begin_b["kind"], end_b["kind"]) == ("rpc.begin", "rpc.end")
            assert begin_a["serial"] == begin_b["serial"] == end_b["serial"]
            daemon.crash()
        finally:
            released.set()
            caller.join(10)
        assert not caller.is_alive() and len(outcome) == 1

        recovered = Libvirtd(hostname="fr-two", clock=clock, state_dir=str(tmp_path))
        try:
            assert recovered.recovery["flightrec"]["interrupted_spans"] == 1
            (span,) = [
                s for s in recovered.tracer.export()
                if s["attributes"].get("status") == "interrupted"
            ]
            assert span["attributes"]["procedure"] == "domain.create"
            assert span["span_id"] == begin_a["span_id"]
        finally:
            recovered.shutdown()

    def _crashed_harness(self, tmp_path, clock, point, op):
        harness = CrashHarness(str(tmp_path), hostname="fx-s", clock=clock)
        harness.start()
        dest = make_daemon("fx-d", clock)
        fleet = FleetManager(
            [harness.uri, "qemu+tcp://fx-d/system"]
        )
        deploy(fleet.connection("fx-s"), "victim")
        harness.daemon.install_crash_plan(CrashPlan().crash(point, op=op))
        try:
            FleetOrchestrator(fleet).drain_host("fx-s")
        except VirtError:
            pass
        return harness, dest, fleet

    @pytest.mark.parametrize(
        "point,op",
        [
            (CrashPoint.MID_DISPATCH, "domain.migrate_perform"),
            # MID_JOURNAL opportunities are named by record, not procedure
            (CrashPoint.MID_JOURNAL, "domain:victim"),
            (CrashPoint.POST_JOURNAL, "domain.migrate_confirm"),
        ],
    )
    def test_kill_minus_nine_leaves_a_parseable_dump(
        self, tmp_path, point, op
    ):
        clock = VirtualClock()
        harness, dest, fleet = self._crashed_harness(tmp_path, clock, point, op)
        try:
            # the dead daemon's tail is readable straight off disk
            tail = read_tail(StateDir(str(tmp_path / "flightrec")))
            assert tail, f"empty flight tail crashing at {point.value}"
            crash = [r for r in tail if r["kind"] == "crash"]
            assert crash and crash[-1]["point"] == point.value
            if point is not CrashPoint.MID_JOURNAL:
                assert crash[-1]["procedure"] == op

            # ...and the next incarnation serves it over flight_dump()
            harness.restart()
            dump = harness.daemon.flight_dump()
            assert dump["recovered_records"] == len(tail)
            assert any(r["kind"] == "crash" for r in dump["records"])
            assert any(r["kind"] == "recovery" for r in dump["records"])
        finally:
            fleet.close()
            harness.shutdown()
            dest.shutdown()

    def test_interrupted_dispatch_closed_as_interrupted_span(self, tmp_path):
        """Satellite: a daemon killed mid-dispatch leaves a begin-without-
        end in the tail; restart recovery closes the span as interrupted
        with its ORIGINAL span/trace ids."""
        clock = VirtualClock()
        harness, dest, fleet = self._crashed_harness(
            tmp_path, clock, CrashPoint.MID_DISPATCH, "domain.migrate_perform"
        )
        try:
            tail = read_tail(StateDir(str(tmp_path / "flightrec")))
            dangling = interrupted_dispatches(tail)
            assert dangling
            expected_ids = {r["span_id"] for r in dangling if r.get("span_id")}

            harness.restart()
            interrupted = [
                s
                for s in harness.daemon.tracer.export()
                if s["attributes"].get("status") == "interrupted"
            ]
            assert {s["span_id"] for s in interrupted} == expected_ids
            for span in interrupted:
                assert span["name"] == "rpc.dispatch"
                assert span["error"] and "interrupted" in span["error"]
                # the span is queryable by its original trace id
                assert any(
                    s["span_id"] == span["span_id"]
                    for s in harness.daemon.trace_get(span["trace_id"])
                )
            assert harness.daemon.recovery["flightrec"]["interrupted_spans"] == len(
                interrupted
            )
        finally:
            fleet.close()
            harness.shutdown()
            dest.shutdown()

    @pytest.mark.slow
    def test_soak_every_seeded_kill_point_dumps(self, tmp_path):
        """Acceptance: crash at EVERY seeded opportunity along a drain;
        each schedule must leave a non-empty, parseable flight tail."""
        clock = VirtualClock()
        census_harness = CrashHarness(
            str(tmp_path / "census"), hostname="fs-s", clock=clock
        )
        census_harness.start()
        dest = make_daemon("fs-d0", clock)
        fleet = FleetManager([census_harness.uri, "qemu+tcp://fs-d0/system"])
        deploy(fleet.connection("fs-s"), "soak0")
        deploy(fleet.connection("fs-s"), "soak1")
        plan = CrashPlan()
        census_harness.daemon.install_crash_plan(plan)
        assert FleetOrchestrator(fleet).drain_host("fs-s").migrated == 2
        census = list(plan.opportunities)
        fleet.close()
        census_harness.shutdown()
        dest.shutdown()
        assert census

        for index in range(len(census)):
            clock = VirtualClock()
            harness = CrashHarness(
                str(tmp_path / f"op{index}"), hostname="fs-s", clock=clock
            )
            harness.start()
            dest = make_daemon(f"fs-d{index + 1}", clock)
            fleet = FleetManager(
                [harness.uri, f"qemu+tcp://fs-d{index + 1}/system"]
            )
            try:
                deploy(fleet.connection("fs-s"), "soak0")
                deploy(fleet.connection("fs-s"), "soak1")
                plan = CrashPlan().at(index)
                harness.daemon.install_crash_plan(plan)
                try:
                    FleetOrchestrator(fleet).drain_host("fs-s")
                except VirtError:
                    pass
                assert plan.injected, f"kill point {index} never fired"
                tail = read_tail(
                    StateDir(str(tmp_path / f"op{index}" / "flightrec"))
                )
                assert tail, f"kill point {index}: empty flight tail"
                assert all(isinstance(r, dict) and "kind" in r for r in tail)
                assert any(r["kind"] == "crash" for r in tail), (
                    f"kill point {index}: crash record missing"
                )
                harness.restart()
                dump = harness.daemon.flight_dump()
                assert dump["records"] and dump["incarnation"] >= 1
            finally:
                fleet.close()
                harness.shutdown()
                dest.shutdown()
