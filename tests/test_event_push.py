"""The event-driven control plane, end to end.

Tentpole acceptance for the push work: the daemon's event bus fans
typed records out to bounded per-subscriber queues; the RPC layer
pushes them to remote clients as EVENT frames; and the client cache
serves repeated reads without touching the daemon until a pushed
record invalidates them.  The suite also covers the two resilience
seams the bus must survive: PR-1 auto-reconnect (re-arm, flush, no
double delivery) and PR-6 crash/restart recovery.
"""

import io
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.cache import _BUCKETS, InvalidationCache
from repro.core.events import LIFECYCLE, EventBus, lifecycle_fields, lifecycle_view
from repro.core.states import DomainEvent, DomainState
from repro.core.uri import ConnectionURI
from repro.daemon import Libvirtd
from repro.drivers.remote import RemoteDriver, ResilienceConfig
from repro.errors import InvalidArgumentError, VirtError
from repro.faults import CrashHarness
from repro.observability.metrics import MetricsRegistry
from repro.rpc.protocol import EVENT_BUS_RECORD
from repro.rpc.retry import RetryPolicy
from repro.xmlconfig.domain import DomainConfig

GiB_KIB = 1024 * 1024

#: the PR-1 resilient-client settings used throughout the reconnect tests
RESILIENT = dict(
    keepalive_interval=1.0,
    keepalive_count=2,
    retry=RetryPolicy(max_attempts=4, seed=0),
    auto_reconnect=True,
    reconnect_base_delay=0.2,
)


def plain_xml(name, domain_type="kvm"):
    return DomainConfig(
        name=name, domain_type=domain_type, memory_kib=GiB_KIB, vcpus=1
    ).to_xml()


def announce(bus, domain, event, detail=""):
    """Publish the lifecycle record a driver mutation would."""
    return bus.publish("lifecycle", **lifecycle_fields(domain, event, detail))


def make_driver(hostname, cache=False, **resilience):
    params = "?cache=1" if cache else ""
    uri = ConnectionURI.parse(f"qemu+tcp://{hostname}/system{params}")
    cfg = ResilienceConfig(**resilience) if resilience else None
    return RemoteDriver(uri, resilience=cfg)


# ---------------------------------------------------------------------------
# the bus itself (no RPC)
# ---------------------------------------------------------------------------


class TestBusSemantics:
    def test_records_are_sequenced_and_ordered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish("config", domain="web1", event="memory", memory_kib=GiB_KIB)
        bus.publish("device", domain="web1", event="attached", detail="disk")
        assert [r["seq"] for r in seen] == [1, 2]
        assert seen[0]["kind"] == "config"
        assert seen[0]["memory_kib"] == GiB_KIB
        assert seen[1]["detail"] == "disk"
        assert bus.published == 2 and bus.bus_delivered == 2

    def test_kinds_filter(self):
        bus = EventBus()
        config_only = []
        everything = []
        bus.subscribe(config_only.append, kinds={"config"})
        bus.subscribe(everything.append)
        bus.publish("config", domain="a", event="memory")
        bus.publish("network", event="defined", detail="lan0")
        assert [r["kind"] for r in config_only] == ["config"]
        assert [r["kind"] for r in everything] == ["config", "network"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.publish("config", domain="a", event="x")
        bus.unsubscribe(sub)
        bus.publish("config", domain="a", event="y")
        assert len(seen) == 1
        with pytest.raises(InvalidArgumentError):
            bus.unsubscribe(sub)

    def test_legacy_emit_mirrors_onto_the_bus(self):
        """A legacy lifecycle callback is a view over the bus: it and a
        lifecycle subscriber see the same records, in the same order."""
        bus = EventBus()
        legacy = []
        records = []
        bus.subscribe(lifecycle_view(lambda name, event, detail: legacy.append((name, event))), kinds=LIFECYCLE)
        bus.subscribe(records.append, kinds={"lifecycle"})
        announce(bus, "web1", DomainEvent.STARTED, "booted")
        assert legacy == [("web1", DomainEvent.STARTED)]
        assert records[0]["kind"] == "lifecycle"
        assert records[0]["event"] == "started"
        assert records[0]["detail"] == "booted"

    def test_subscription_stats_surface(self):
        bus = EventBus()
        sub = bus.subscribe(lambda r: None, kinds={"job"}, max_queue=8)
        bus.publish("job", domain="a", event="started")
        (stats,) = bus.subscription_stats()
        assert stats["id"] == sub
        assert stats["delivered"] == 1
        assert stats["dropped"] == 0
        assert stats["max_queue"] == 8
        assert stats["kinds"] == ["job"]


class TestSlowConsumer:
    def test_paused_subscriber_queues_then_drains_in_order(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.pause(sub)
        bus.publish("config", domain="a", event="one")
        bus.publish("config", domain="a", event="two")
        assert seen == []
        assert bus.subscription_stats()[0]["queued"] == 2
        assert bus.resume(sub) == 2
        assert [r["event"] for r in seen] == ["one", "two"]

    def test_overflow_drops_oldest_with_accounting(self):
        metrics = MetricsRegistry()
        bus = EventBus(metrics=lambda: metrics)
        seen = []
        sub = bus.subscribe(seen.append, max_queue=3)
        bus.pause(sub)
        for i in range(5):
            bus.publish("config", domain="a", event=f"e{i}")
        bus.resume(sub)
        # the two oldest were shed; the newest three survive in order
        assert [r["event"] for r in seen] == ["e2", "e3", "e4"]
        assert bus.dropped == 2
        assert bus.subscription_stats()[0]["dropped"] == 2
        assert metrics.get("events_dropped_total").value == 2

    def test_drain_all_flushes_every_queue(self):
        bus = EventBus()
        a, b = [], []
        sub_a = bus.subscribe(a.append)
        sub_b = bus.subscribe(b.append)
        bus.pause(sub_a)
        bus.pause(sub_b)
        bus.publish("config", domain="x", event="pending")
        assert bus.drain_all() == 2
        assert len(a) == len(b) == 1

    def test_one_slow_consumer_does_not_delay_the_others(self):
        bus = EventBus()
        fast = []
        slow = []
        bus.subscribe(fast.append)
        sub = bus.subscribe(slow.append)
        bus.pause(sub)
        bus.publish("config", domain="a", event="x")
        assert len(fast) == 1 and slow == []


class _Logger:
    def __init__(self):
        self.errors = []

    def error(self, source, message):
        self.errors.append((source, message))


class TestCallbackErrors:
    """The satellite bugfix: a raising callback is counted and logged,
    never silently swallowed."""

    def test_broker_counts_and_logs_raising_callback(self):
        log = _Logger()
        metrics = MetricsRegistry()
        bus = EventBus(logger=lambda: log, metrics=lambda: metrics)
        seen = []

        def bad(name, event, detail):
            raise RuntimeError("subscriber bug")

        bus.subscribe(lifecycle_view(bad), kinds=LIFECYCLE)
        bus.subscribe(lifecycle_view(lambda name, event, detail: seen.append(name)), kinds=LIFECYCLE)
        announce(bus, "web1", DomainEvent.STARTED)
        # the healthy callback still got the event
        assert seen == ["web1"]
        assert bus.callback_errors == 1
        assert metrics.get("event_callback_errors_total").value == 1
        ((source, message),) = log.errors
        assert source == "events"
        assert "RuntimeError" in message and "subscriber bug" in message

    def test_bus_handler_errors_are_counted_too(self):
        bus = EventBus()
        healthy = []
        bus.subscribe(lambda r: (_ for _ in ()).throw(ValueError("boom")))
        bus.subscribe(healthy.append)
        bus.publish("config", domain="a", event="x")
        assert bus.callback_errors == 1
        assert len(healthy) == 1

    def test_observability_attaches_late(self):
        """The daemon wires logger/metrics after driver construction;
        errors before that still count, errors after also log."""
        bus = EventBus()
        bus.subscribe(lifecycle_view(lambda *a: (_ for _ in ()).throw(KeyError("x"))), kinds=LIFECYCLE)
        announce(bus, "a", DomainEvent.DEFINED)
        assert bus.callback_errors == 1
        log = _Logger()
        metrics = MetricsRegistry()
        bus.attach_observability(logger=lambda: log, metrics=lambda: metrics)
        announce(bus, "a", DomainEvent.DEFINED)
        assert bus.callback_errors == 2
        assert len(log.errors) == 1
        assert metrics.get("event_callback_errors_total").value == 1


class TestKindsAreChecked:
    """``kinds`` is outside input: one validator, on the bus and on the
    remote driver, and the daemon hands it over unchanged."""

    @pytest.mark.parametrize("kinds", ["lifecycle", b"lifecycle", 7, [1], [["config"]]])
    def test_bus_rejects_malformed_kinds(self, kinds):
        bus = EventBus()
        with pytest.raises(InvalidArgumentError, match="kinds must be"):
            bus.subscribe(lambda record: None, kinds=kinds)
        assert bus.subscription_count == 0

    def test_bus_reads_an_empty_collection_as_nothing(self):
        bus = EventBus()
        heard = []
        bus.subscribe(heard.append, kinds=[])
        bus.subscribe(heard.append, kinds=("config",))
        bus.publish("lifecycle", domain="a", event="defined")
        bus.publish("config", domain="a", event="memory")
        assert [r["kind"] for r in heard] == ["config"]

    def test_remote_driver_rejects_a_bare_string(self, daemon):
        driver = make_driver("evt1")
        with pytest.raises(InvalidArgumentError, match="kinds must be"):
            driver.event_bus_subscribe(lambda record: None, kinds="lifecycle")

    @pytest.mark.parametrize("kinds", [7, "lifecycle", [1]])
    def test_daemon_rejects_malformed_kinds_on_the_wire(self, daemon, kinds):
        driver = make_driver("evt1")
        with pytest.raises(InvalidArgumentError, match="kinds must be"):
            driver.client.call("connect.event_subscribe", {"kinds": kinds})
        assert daemon.drivers["qemu"].events.subscription_count == 0

    def test_lifecycle_arming_reads_no_kinds(self, daemon):
        driver = make_driver("evt1")
        driver.client.call("connect.domain_event_register", {"kinds": ["config"]})
        (stats,) = daemon.drivers["qemu"].events.subscription_stats()
        assert stats["kinds"] == ["lifecycle"]

    def test_daemon_passes_an_empty_collection_unchanged(self, daemon):
        driver = make_driver("evt1")
        pushed = []
        driver.client.on_event(EVENT_BUS_RECORD, pushed.append)
        driver.client.call("connect.event_subscribe", {"kinds": []})
        (stats,) = daemon.drivers["qemu"].events.subscription_stats()
        assert stats["kinds"] == []
        driver.domain_define_xml(plain_xml("k1"))
        assert pushed == []


# ---------------------------------------------------------------------------
# EVENT frames over RPC
# ---------------------------------------------------------------------------


@pytest.fixture()
def daemon():
    with Libvirtd(hostname="evt1") as d:
        d.listen("tcp")
        yield d


class TestEventPushRPC:
    def test_bus_records_push_to_remote_subscriber(self, daemon):
        driver = make_driver("evt1")
        records = []
        driver.event_bus_subscribe(records.append)
        driver.domain_define_xml(plain_xml("pushed1"))
        driver.domain_create("pushed1")
        kinds_events = [(r["kind"], r["event"], r["domain"]) for r in records]
        assert ("lifecycle", "defined", "pushed1") in kinds_events
        assert ("lifecycle", "started", "pushed1") in kinds_events
        # seq arrived and is strictly increasing on the wire
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_kinds_filtered_client_side(self, daemon):
        driver = make_driver("evt1")
        config_only = []
        driver.event_bus_subscribe(config_only.append, kinds={"config"})
        driver.domain_define_xml(plain_xml("filt1"))
        driver.domain_set_memory("filt1", GiB_KIB // 2)
        assert [r["kind"] for r in config_only] == ["config"]
        assert config_only[0]["event"] == "memory"

    def test_unsubscribe_disarms(self, daemon):
        driver = make_driver("evt1")
        records = []
        sub = driver.event_bus_subscribe(records.append)
        driver.domain_define_xml(plain_xml("quiet1"))
        before = len(records)
        assert before > 0
        driver.event_bus_unsubscribe(sub)
        driver.domain_define_xml(plain_xml("quiet2"))
        assert len(records) == before

    def test_daemon_tracks_one_bus_subscription_per_client(self, daemon):
        driver = make_driver("evt1")
        driver.event_bus_subscribe(lambda r: None)
        bus = daemon.drivers["qemu"].events
        assert bus.subscription_count == 1
        # a second local handler multiplexes over the same wire sub
        driver.event_bus_subscribe(lambda r: None)
        assert bus.subscription_count == 1

    def test_client_close_cleans_up_daemon_subscription(self, daemon):
        driver = make_driver("evt1")
        driver.event_bus_subscribe(lambda r: None)
        bus = daemon.drivers["qemu"].events
        assert bus.subscription_count == 1
        driver.close()
        assert bus.subscription_count == 0

    def test_publish_metrics_and_span_on_daemon(self, daemon):
        driver = make_driver("evt1")
        driver.event_bus_subscribe(lambda r: None)
        driver.domain_define_xml(plain_xml("obs1"))
        metrics = daemon.metrics
        published = metrics.get("events_published_total")
        by_kind = {labels["kind"]: c.value for labels, c in published.samples()}
        assert by_kind.get("lifecycle", 0) >= 1
        assert metrics.get("events_delivered_total").value >= 1
        spans = [s for s in daemon.tracer.finished_spans() if s.name == "event.deliver"]
        assert spans and spans[-1].attributes["kind"] == "lifecycle"


# ---------------------------------------------------------------------------
# the invalidation-driven client cache
# ---------------------------------------------------------------------------


class TestClientCache:
    def test_cached_reads_hit_the_daemon_zero_times(self, daemon):
        """The acceptance criterion: between invalidations, repeated
        reads are served locally — zero daemon procedures."""
        driver = make_driver("evt1", cache=True)
        driver.domain_define_xml(plain_xml("c1"))
        # warm every cached surface
        driver.list_domains()
        driver.list_defined_domains()
        driver.num_of_domains()
        driver.domain_get_state("c1")
        driver.domain_get_xml_desc("c1")
        qemu = daemon.drivers["qemu"]
        before = qemu.api_calls
        for _ in range(10):
            driver.list_domains()
            driver.list_defined_domains()
            driver.num_of_domains()
            driver.domain_get_state("c1")
            driver.domain_get_xml_desc("c1")
        assert qemu.api_calls - before == 0
        assert driver.cache.hits == 50

    def test_pushed_record_invalidates_exactly_the_right_entries(self, daemon):
        driver = make_driver("evt1", cache=True)
        driver.domain_define_xml(plain_xml("inv1"))
        assert "inv1" in driver.list_defined_domains()
        # a mutation by ANOTHER client invalidates via push, not polling
        other = make_driver("evt1")
        other.domain_define_xml(plain_xml("inv2"))
        assert "inv2" in driver.list_defined_domains()  # refetched, not stale
        other.domain_set_memory("inv2", GiB_KIB // 2)
        # config change on inv2 does not evict inv1's per-domain entries
        driver.domain_get_xml_desc("inv1")
        before_hits = driver.cache.hits
        driver.domain_get_xml_desc("inv1")
        assert driver.cache.hits == before_hits + 1

    def test_bypass_flag_always_goes_to_the_daemon(self, daemon):
        driver = make_driver("evt1", cache=True)
        driver.num_of_domains()
        qemu = daemon.drivers["qemu"]
        before = qemu.api_calls
        driver.num_of_domains(cached=False)
        driver.num_of_domains(cached=False)
        assert qemu.api_calls - before == 2

    def test_cache_off_by_default(self, daemon):
        driver = make_driver("evt1")
        qemu = daemon.drivers["qemu"]
        before = qemu.api_calls
        driver.num_of_domains()
        driver.num_of_domains()
        assert qemu.api_calls - before == 2
        assert not driver.cache.enabled

    def test_cached_callback_reads_the_state_its_event_announced(self, daemon):
        """A lifecycle callback on a cached connection is told STARTED and
        reads RUNNING: the pushed record reaches the cache before any
        callback runs, whichever frame carries it."""
        driver = make_driver("evt1", cache=True)
        driver.domain_define_xml(plain_xml("cb1"))
        assert driver.domain_get_state("cb1") == DomainState.SHUTOFF  # now cached
        seen = []
        driver.domain_event_register(
            lambda name, event, detail: seen.append((event, driver.domain_get_state(name)))
        )
        driver.domain_create("cb1")
        assert seen == [(DomainEvent.STARTED, DomainState.RUNNING)]

    def test_a_reordered_record_still_invalidates(self, daemon):
        """Concurrent publishers may deliver seq n+2 before n+1: the late
        record must still reach the cache and the handlers."""
        driver = make_driver("evt1", cache=True)
        driver.domain_define_xml(plain_xml("ro1"))
        driver.domain_define_xml(plain_xml("ro2"))
        records = []
        driver.event_bus_subscribe(records.append)
        driver.domain_get_state("ro1")
        assert ("state", "ro1") in driver.cache.keys()
        seq = daemon.drivers["qemu"].events.published
        driver._on_bus_record({"seq": seq + 2, "kind": "config", "domain": "ro2", "event": "memory", "detail": ""})
        driver._on_bus_record({"seq": seq + 1, "kind": "config", "domain": "ro1", "event": "memory", "detail": ""})
        assert ("state", "ro1") not in driver.cache.keys()
        assert [r["seq"] for r in records] == [seq + 2, seq + 1]
        # a record already handed over is not handed over twice
        driver._on_bus_record({"seq": seq + 1, "kind": "config", "domain": "ro1", "event": "memory", "detail": ""})
        assert len(records) == 2

    @pytest.mark.stress
    def test_concurrent_deliveries_hand_each_seq_over_once(self, daemon):
        """Concurrent publishes reach a client on concurrent threads: the
        seen-window stays consistent while it evicts, and each seq
        reaches a handler exactly once."""
        driver = make_driver("evt1")
        seen, errors = [], []
        driver.event_bus_subscribe(lambda record: seen.append(record["seq"]))

        def feed(first):
            try:
                for seq in range(first, first + 3000):
                    driver._on_bus_record({"seq": seq, "kind": "config", "domain": "", "event": "x", "detail": ""})
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        feeders = [threading.Thread(target=feed, args=(1 + 3000 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for feeder in feeders:
                feeder.start()
            for feeder in feeders:
                feeder.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(feeder.is_alive() for feeder in feeders)
        assert errors == []
        assert sorted(seen) == list(range(1, 12001))

    def test_a_read_that_crossed_its_invalidation_is_not_stored(self, daemon):
        """Another client destroys the guest after the daemon answered a
        cached read and before the reply is stored: the record reaches
        the cache first, so the old answer is returned but never kept."""
        driver = make_driver("evt1", cache=True)
        other = make_driver("evt1")
        other.domain_define_xml(plain_xml("crossed1"))
        other.domain_create("crossed1")
        wire = driver._call

        def destroyed_behind_the_reply(name, body=None):
            driver._call = wire
            reply = wire(name, body)
            other.domain_destroy("crossed1")
            return reply

        driver._call = destroyed_behind_the_reply
        assert driver.domain_get_state("crossed1") == DomainState.RUNNING
        assert ("state", "crossed1") not in driver.cache.keys()
        assert driver.domain_get_state("crossed1") == DomainState.SHUTOFF
        assert driver.domain_get_state("crossed1") == DomainState.SHUTOFF
        assert driver.cache.hits == 1

    @pytest.mark.stress
    def test_reads_racing_another_clients_mutations_leave_nothing_stale(self, daemon):
        """Four threads read a guest through the cache while another client
        starts and destroys it: a read after each change returns, whether
        it hits or not, sees that change."""
        driver = make_driver("evt1", cache=True)
        other = make_driver("evt1")
        other.domain_define_xml(plain_xml("race1"))
        stop, errors, states = threading.Event(), [], []

        def read():
            try:
                while not stop.is_set():
                    driver.domain_get_state("race1")
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for _ in range(200):
                other.domain_create("race1")
                states.append(driver.domain_get_state("race1"))
                other.domain_destroy("race1")
                states.append(driver.domain_get_state("race1"))
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert states == [DomainState.RUNNING, DomainState.SHUTOFF] * 200

    def test_only_a_change_covering_the_key_drops_a_crossed_answer(self):
        # two domains stamped in buckets of their own, apart from the lists'
        buckets, names = {hash(None) % _BUCKETS}, []
        for name in (f"g{index}" for index in range(4 * _BUCKETS)):
            if len(names) < 2 and hash(name) % _BUCKETS not in buckets:
                buckets.add(hash(name) % _BUCKETS)
                names.append(name)
        g1, elsewhere = names
        cache = InvalidationCache()
        since = cache.generation
        cache.invalidate_domain(elsewhere)
        cache.put("state", g1, 1, since)
        cache.invalidate_lists()
        cache.put("xml", g1, "<domain/>", since)
        cache.put("list", "connect.list_domains", [g1], since)
        assert cache.keys() == [("state", g1), ("xml", g1)]
        since = cache.generation
        cache.invalidate_domain(g1)
        cache.put("lookup", g1, {"name": g1}, since)
        since = cache.generation
        cache.flush("reconnect")
        cache.put("state", elsewhere, 1, since)
        assert cache.keys() == []

    def test_connection_surface_exposes_cache_stats(self, daemon):
        conn = repro.open_connection("qemu+tcp://evt1/system?cache=1")
        conn.num_of_domains()
        conn.num_of_domains()
        stats = conn.cache_stats()
        assert stats["enabled"]
        assert stats["hits"] >= 1
        # local connections have no client cache
        assert repro.open_connection("test:///default").cache_stats() is None


# ---------------------------------------------------------------------------
# resilience seams: reconnect and crash/restart
# ---------------------------------------------------------------------------


class TestReconnectSeam:
    def test_bus_rearms_and_cache_flushes_on_reconnect(self, daemon):
        driver = make_driver("evt1", cache=True, **RESILIENT)
        records = []
        driver.event_bus_subscribe(records.append)
        driver.domain_define_xml(plain_xml("r1"))
        driver.list_defined_domains()
        driver.client._channel.sever()  # pull the cable directly
        # next call detects death via keepalive and re-dials + re-arms
        driver.num_of_domains()
        assert driver.reconnects == 1
        assert driver.cache.flush_reasons.get("reconnect") == 1
        before = len(records)
        driver.domain_define_xml(plain_xml("r2"))
        delivered = [(r["event"], r["domain"]) for r in records[before:]]
        # exactly one record for the post-reconnect mutation: the new
        # wire subscription delivers, the dead one is gone
        assert delivered.count(("defined", "r2")) == 1

    def test_no_record_is_delivered_twice_across_reconnect(self, daemon):
        driver = make_driver("evt1", cache=True, **RESILIENT)
        records = []
        driver.event_bus_subscribe(records.append)
        driver.domain_define_xml(plain_xml("d1"))
        driver.client._channel.sever()
        driver.num_of_domains()
        driver.domain_define_xml(plain_xml("d2"))
        defined = [r["domain"] for r in records if r["event"] == "defined"]
        assert sorted(defined) == ["d1", "d2"]  # each exactly once


    def test_cached_callback_reads_fresh_state_after_reconnect(self, daemon):
        driver = make_driver("evt1", cache=True, **RESILIENT)
        driver.domain_define_xml(plain_xml("cb2"))
        seen = []
        driver.domain_event_register(
            lambda name, event, detail: seen.append((event, driver.domain_get_state(name)))
        )
        driver.client._channel.sever()
        driver.num_of_domains()
        assert driver.reconnects == 1
        assert driver.domain_get_state("cb2") == DomainState.SHUTOFF  # cached again
        driver.domain_create("cb2")
        assert seen == [(DomainEvent.STARTED, DomainState.RUNNING)]


class TestCrashRestartSeam:
    """PR-6 recovery: the daemon dies and a fresh incarnation takes
    over the hostname; the subscribed client re-arms against it and no
    event reaches the same callback twice."""

    def _scenario(self, tmp_path):
        harness = CrashHarness(str(tmp_path / "state"), hostname="crashevt")
        harness.start()
        uri = ConnectionURI.parse("qemu+tcp://crashevt/system?cache=1")
        driver = RemoteDriver(uri, resilience=ResilienceConfig(**RESILIENT))
        return harness, driver

    def test_resubscribe_after_crash_restart_no_double_delivery(self, tmp_path):
        harness, driver = self._scenario(tmp_path)
        records = []
        driver.event_bus_subscribe(records.append)
        driver.domain_define_xml(plain_xml("vm1"))

        harness.daemon.crash()
        harness.restart()

        # reconnect re-arms the bus against the new incarnation
        driver.num_of_domains()
        assert driver.reconnects == 1
        driver.domain_define_xml(plain_xml("vm2"))
        defined = [r["domain"] for r in records if r["event"] == "defined"]
        assert sorted(defined) == ["vm1", "vm2"]  # each exactly once
        # the restarted daemon restarted its seq counter; the client's
        # dedupe reset with it instead of discarding the fresh stream
        assert any(r["domain"] == "vm2" and r["seq"] >= 1 for r in records)

    def test_cache_survives_restart_coherently(self, tmp_path):
        harness, driver = self._scenario(tmp_path)
        driver.domain_define_xml(plain_xml("vmA"))
        assert "vmA" in driver.list_defined_domains()
        harness.daemon.crash()
        harness.restart()
        # a cached read alone would serve pre-crash entries without ever
        # touching the dead link; the first wire call trips the
        # reconnect, which flushes the cache
        driver.ping()
        assert driver.reconnects == 1
        assert driver.cache.flush_reasons.get("reconnect") == 1
        assert "vmA" in driver.list_defined_domains()


# ---------------------------------------------------------------------------
# the legacy callback is a lossless view of the lifecycle records
# ---------------------------------------------------------------------------

GUESTS = ("p1", "p2")


def _apply(driver, op, name):
    if op == "define":
        driver.domain_define_xml(plain_xml(name))
    elif op == "start":
        driver.domain_create(name)
    elif op == "suspend":
        driver.domain_suspend(name)
    elif op == "resume":
        driver.domain_resume(name)
    elif op == "destroy":
        driver.domain_destroy(name)
    elif op == "undefine":
        driver.domain_undefine(name)
    elif op == "save":
        driver.domain_save(name, f"/saves/{name}")
    else:
        driver.domain_restore(f"/saves/{name}")


OPS = st.lists(
    st.tuples(
        # "start" twice: most other operations need a running guest
        st.sampled_from(["define", "start", "start", "suspend", "resume", "destroy", "undefine", "save", "restore"]),
        st.sampled_from(GUESTS),
    ),
    max_size=30,
)


class TestViewLosesNothing:
    @settings(max_examples=50, deadline=None)
    @given(ops=OPS)
    def test_callbacks_equal_the_lifecycle_records(self, ops):
        """Locally and over RPC, the callback stream is exactly the
        lifecycle-filtered ``record_history``, as callback arguments."""
        with Libvirtd(hostname="view1") as daemon:
            daemon.listen("tcp")
            qemu = daemon.drivers["qemu"]
            local, remote = [], []
            qemu.domain_event_register(lambda *event: local.append(event))
            driver = make_driver("view1")
            driver.domain_event_register(lambda *event: remote.append(event))
            first = qemu.events.published
            for op, name in [("define", name) for name in GUESTS] + ops:
                try:
                    _apply(driver, op, name)
                except VirtError:
                    pass  # refused in this state: nothing published
            driver.close()
            expected = [
                (r["domain"], DomainEvent[r["event"].upper()], r["detail"])
                for r in qemu.events.record_history
                if r["seq"] > first and r["kind"] == "lifecycle"
            ]
            assert local == expected
            assert remote == expected


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


class TestVirshEventCommand:
    def test_event_command_streams_and_exits_at_count(self):
        from repro.cli.virsh import main

        out = io.StringIO()
        result = {}
        bus = repro.open_connection("test:///default")._driver.events
        baseline = bus.subscription_count

        def run_cli():
            result["code"] = main(
                ["-c", "test:///default", "event", "--count", "2",
                 "--timeout", "10"],
                out=out,
            )

        thread = threading.Thread(target=run_cli)
        thread.start()
        # wait for the CLI's subscription to arm before mutating
        deadline = time.time() + 5
        while bus.subscription_count <= baseline and time.time() < deadline:
            time.sleep(0.01)
        assert bus.subscription_count > baseline

        mutator = repro.open_connection("test:///default")
        mutator.define_domain(plain_xml("evtcli", domain_type="test"))
        mutator.lookup_domain("evtcli").undefine()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["code"] == 0
        output = out.getvalue()
        assert "event 'lifecycle/defined' for evtcli" in output
        assert "event 'lifecycle/undefined' for evtcli" in output
        assert "events received: 2" in output
        # the CLI unsubscribed on exit
        assert bus.subscription_count == baseline

    def test_event_command_domain_filter(self):
        from repro.cli.virsh import main

        out = io.StringIO()
        result = {}
        bus = repro.open_connection("test:///default")._driver.events
        baseline = bus.subscription_count

        def run_cli():
            result["code"] = main(
                ["-c", "test:///default", "event", "--domain", "wanted",
                 "--count", "1", "--timeout", "10"],
                out=out,
            )

        thread = threading.Thread(target=run_cli)
        thread.start()
        deadline = time.time() + 5
        while bus.subscription_count <= baseline and time.time() < deadline:
            time.sleep(0.01)

        mutator = repro.open_connection("test:///default")
        mutator.define_domain(plain_xml("ignored", domain_type="test"))
        mutator.define_domain(plain_xml("wanted", domain_type="test"))
        thread.join(timeout=10)
        assert not thread.is_alive()
        output = out.getvalue()
        assert "for wanted" in output
        assert "for ignored" not in output
        mutator.lookup_domain("ignored").undefine()
        mutator.lookup_domain("wanted").undefine()
