"""One seeded management scenario and everything the daemon observed of it.

Shared by ``tools/record_observer_golden.py`` (which wrote
``tests/data/observer_golden.json`` from PR 21's observer, before PR 22
touched it) and ``tests/test_observer_golden.py`` (which holds the
current observer to those bytes).  The scenario runs on a
``VirtualClock`` daemon with a ``state_dir``, so every timestamp is
modelled and the three outputs repeat exactly.
"""

import json
import pathlib
import tempfile

import repro
from repro.core.connection import Connection
from repro.core.uri import ConnectionURI
from repro.daemon.libvirtd import Libvirtd
from repro.drivers.remote import RemoteDriver
from repro.errors import NoDomainError
from repro.observability.export import render_prometheus
from repro.observability.flightrec import FLIGHT_FILE
from repro.observability.tracing import Tracer
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

GOLDEN_FILE = pathlib.Path(__file__).resolve().parent / "data" / "observer_golden.json"
HOSTNAME = "observer-golden"
URI = f"qemu+unix://{HOSTNAME}/system"
ID_FIELDS = ("span_id", "trace_id", "parent_id")
KiB = 1024


def drive(daemon):
    """The scenario proper: one plain client with a bus subscription,
    then one traced client whose context rides the wire."""
    bus_records = []
    conn = repro.open_connection(URI)
    conn.subscribe_events(bus_records.append)
    domain = conn.define_domain(
        DomainConfig(name="web1", domain_type="kvm", memory_kib=512 * KiB, vcpus=2)
    )
    domain.start()
    domain.info()
    domain.state()
    conn._driver.ping()
    try:
        conn.lookup_domain("ghost")
    except NoDomainError:
        pass
    else:  # pragma: no cover - the scenario's failing call must fail
        raise AssertionError("lookup of an undefined guest succeeded")
    domain.suspend()
    domain.resume()
    domain.destroy()
    conn.list_domains()
    conn.get_all_domain_stats(active=None)
    pool = conn.define_storage_pool(StoragePoolConfig(name="gold", capacity_bytes=64 * KiB * KiB))
    pool.start()
    volume = pool.create_volume(
        VolumeConfig(name="gold.raw", capacity_bytes=KiB * KiB, volume_format="raw")
    )
    volume.upload(bytes(range(256)) * 256)  # 64 KiB, one stream
    uri = ConnectionURI.parse(URI)
    traced = Connection(RemoteDriver(uri, tracer=Tracer(daemon.clock.now)), uri)
    traced.get_all_domain_stats(active=None)  # pooled, under the wire context
    traced.close()
    conn.close()
    return bus_records


def _relative(value, base):
    return value - base if isinstance(value, int) and not isinstance(value, bool) else value


def relative_ids(records, base=None):
    """``records`` with span/trace/parent ids counted from the smallest
    one among them (the id space is process-global, so absolute values
    depend on what ran before)."""
    if base is None:
        base = min(
            r[k] for r in records for k in ID_FIELDS if isinstance(r.get(k), int)
        ) - 1
    return [
        {k: _relative(v, base) if k in ID_FIELDS else v for k, v in r.items()}
        for r in records
    ], base


def observe():
    """Run the scenario; return the three outputs as plain data."""
    with tempfile.TemporaryDirectory(prefix="observer-golden-") as state_dir:
        daemon = Libvirtd(hostname=HOSTNAME, clock=VirtualClock(), state_dir=state_dir)
        try:
            listener = daemon.listen("unix")
            # one registry serves the daemon and its listeners
            assert listener.metrics is daemon.metrics
            bus_records = drive(daemon)
            spans, base = relative_ids(daemon.tracer.export(include_open=True))
            metrics = render_prometheus(daemon.metrics)
        finally:
            daemon.shutdown()
        raw = (pathlib.Path(state_dir) / "flightrec" / FLIGHT_FILE).read_bytes()
    flight, _ = relative_ids([json.loads(line) for line in raw.splitlines()], base)
    return {
        "bus_records": len(bus_records),
        "trace": spans,
        "flightrec": [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in flight],
        "metrics": metrics.splitlines(),
    }
