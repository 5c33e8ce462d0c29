"""What one more call costs the observer, as counts that repeat exactly.

After every procedure has been called once, a further call registers no
metric family and looks up no child (``MetricsRegistry.counter`` /
``histogram`` / ``gauge`` and ``MetricFamily.labels`` are wrapped with
counters: PR 21 made at least one registration and seven look-ups per
call) — while the spans started, the flight records written and every
exported sample rise by exactly what they rose by at PR 21.  The observer
got cheaper per fact, not by recording fewer facts.
"""

import pytest

import repro
from repro.daemon.libvirtd import Libvirtd
from repro.observability.export import parse_prometheus, render_prometheus
from repro.observability.metrics import MetricFamily, MetricsRegistry
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig

HOSTNAME = "observer-cost"
READS, PAIRS, POOLED = 200, 50, 50


def _samples(registry):
    """``{(sample name, sorted labels): value}`` for the whole page."""
    out = {}
    for family in parse_prometheus(render_prometheus(registry)).values():
        for name, labels, value in family.samples:
            out[name, tuple(sorted(labels.items()))] = value
    return out


def _workload(conn, xml, reads, pairs, pooled):
    driver = conn._driver
    for _ in range(reads):
        driver.domain_get_info("kept")
    for _ in range(pairs):
        driver.domain_define_xml(xml)
        driver.domain_undefine("cycled")
    for _ in range(pooled):
        driver.get_all_domain_stats(None)


@pytest.fixture(scope="module")
def measured():
    daemon = Libvirtd(hostname=HOSTNAME, clock=VirtualClock())
    daemon.listen("unix")
    conn = repro.open_connection(f"qemu+unix://{HOSTNAME}/system")
    heard = []
    counts = {"register": 0, "labels": 0}
    originals = {
        name: getattr(MetricsRegistry, name) for name in ("counter", "histogram", "gauge")
    }
    labels = MetricFamily.labels

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    try:
        conn.subscribe_events(heard.append)
        conn.define_domain(DomainConfig(name="kept", domain_type="kvm", memory_kib=65536))
        xml = DomainConfig(name="cycled", domain_type="kvm", memory_kib=65536).to_xml()
        _workload(conn, xml, 1, 1, 1)  # warm-up: every procedure once
        before = {
            "spans": daemon.tracer.spans_started,
            "records": daemon.flight_recorder.records_total,
            "samples": _samples(daemon.metrics),
            "heard": len(heard),
        }
        for name, fn in originals.items():
            setattr(MetricsRegistry, name, counting(fn, "register"))
        MetricFamily.labels = counting(labels, "labels")
        try:
            _workload(conn, xml, READS, PAIRS, POOLED)
        finally:
            for name, fn in originals.items():
                setattr(MetricsRegistry, name, fn)
            MetricFamily.labels = labels
        after = _samples(daemon.metrics)
        yield {
            "counts": counts,
            "spans": daemon.tracer.spans_started - before["spans"],
            "records": daemon.flight_recorder.records_total - before["records"],
            "heard": len(heard) - before["heard"],
            "new_series": sorted(set(after) - set(before["samples"])),
            "moved": {
                key: value - before["samples"][key]
                for key, value in after.items()
                if key in before["samples"] and value != before["samples"][key]
            },
        }
    finally:
        conn.close()
        daemon.shutdown()


def test_a_further_call_registers_no_metric_family(measured):
    assert measured["counts"]["register"] == 0


def test_a_further_call_looks_up_no_metric_child(measured):
    assert measured["counts"]["labels"] == 0


def test_every_span_and_flight_record_is_still_written(measured):
    calls = READS + 2 * PAIRS + POOLED
    # rpc.dispatch + driver.op per call, event.deliver per define/undefine
    assert measured["spans"] == 2 * calls + 2 * PAIRS
    # rpc.begin + rpc.end per call, one bus record per define/undefine
    assert measured["records"] == 2 * calls + 2 * PAIRS
    assert measured["heard"] == 2 * PAIRS


def test_every_exported_sample_rises_by_what_it_rose_by_before(measured):
    """The deltas PR 21's observer exported for the same calls (counters
    and histogram counts; modelled sums and the gauges are left to the
    golden, which compares the whole page)."""
    assert measured["new_series"] == []
    calls = READS + 2 * PAIRS + POOLED
    moved = {
        (name, labels): delta
        for (name, labels), delta in measured["moved"].items()
        if not name.endswith(("_sum", "_bucket"))
    }

    def series(metric, /, **labels):
        return metric, tuple(sorted(labels.items()))

    per_procedure = {
        "domain.get_info": READS,
        "domain.define_xml": PAIRS,
        "domain.undefine": PAIRS,
        "connect.get_all_domain_stats": POOLED,
    }
    expected = {
        series("driver_api_calls_total", driver="qemu"): calls,
        series("events_delivered_total"): 2 * PAIRS,
        series("events_published_total", kind="lifecycle"): 2 * PAIRS,
        series("span_seconds_count", name="rpc.dispatch"): calls,
        series("span_seconds_count", name="driver.op"): calls,
        series("span_seconds_count", name="event.deliver"): 2 * PAIRS,
        # only define/undefine and the bulk stats leave the receiving thread
        series("workerpool_jobs_total", pool=f"libvirtd@{HOSTNAME}", lane="normal"): 2 * PAIRS,
        series("workerpool_jobs_total", pool=f"libvirtd@{HOSTNAME}", lane="priority"): POOLED,
        series("workerpool_job_wait_seconds_count", pool=f"libvirtd@{HOSTNAME}"): 2 * PAIRS + POOLED,
        series("workerpool_job_service_seconds_count", pool=f"libvirtd@{HOSTNAME}"): 2 * PAIRS + POOLED,
    }
    for procedure, n in per_procedure.items():
        expected[series("rpc_server_calls_total", server="libvirtd", procedure=procedure, status="ok")] = n
        expected[series("rpc_server_dispatch_seconds_count", server="libvirtd", procedure=procedure)] = n
        expected[series("driver_op_seconds_count", driver="qemu", procedure=procedure)] = n
    # bytes on the wire are whatever the frames weigh; that they moved is enough
    for direction in ("received", "sent"):
        assert moved.pop(series(f"transport_bytes_{direction}_total", transport="unix")) > 0
    assert moved == expected


def test_a_procedure_has_no_series_before_its_first_call():
    daemon = Libvirtd(hostname=HOSTNAME + "-fresh", clock=VirtualClock())
    try:
        daemon.listen("unix")
        conn = repro.open_connection(f"qemu+unix://{HOSTNAME}-fresh/system")
        page = render_prometheus(daemon.metrics)
        assert 'procedure="connect.open"' in page
        assert "connect.get_node_info" not in page and "driver_op_seconds_count" not in page
        conn.node_info()
        page = render_prometheus(daemon.metrics)
        families = ("rpc_server_calls_total", "rpc_server_dispatch_seconds_count", "driver_op_seconds_count")
        for family in families:
            assert any(
                line.startswith(family) and 'procedure="connect.get_node_info"' in line
                for line in page.splitlines()
            ), family
        conn.close()
    finally:
        daemon.shutdown()
