"""``docs/OBSERVABILITY.md``'s metric-reference tables against the registries.

The way ``tests/test_rpc_procedures.py`` keeps ``docs/PROTOCOL.md``: run
the golden scenario (``tests/observer_scenario.py``) and, on top of it, a
client with its own registry, a backup job, a migration, a shed and a
failed event delivery — every family that then exists in the daemon's or
the client's registry has exactly one table row with its type and label
names, and every row names a family that exists.  Tables only; the span
tables are prose until the tracer can enumerate what it emits.
"""

import pathlib
import re

import pytest

import repro
from repro.core.connection import Connection
from repro.core.uri import ConnectionURI
from repro.daemon.libvirtd import Libvirtd
from repro.drivers.remote import RemoteDriver
from repro.observability.metrics import MetricsRegistry
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DiskDevice, DomainConfig
from repro.xmlconfig.storage import StoragePoolConfig
from tests.observer_scenario import HOSTNAME, URI, drive

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
ROW = re.compile(r"^\| `(\w+)` \| (counter|gauge|histogram)(?: \(live\))? \| ([^|]+) \|")
GiB = 1024**3


def documented():
    """``(name, type, labelnames)`` per row of the metric-reference tables."""
    section = DOC.read_text().split("## Metric reference")[1].split("\n## ")[0]
    rows = []
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            name, mtype, labels = match.groups()
            labels = labels.strip()
            rows.append((name, mtype, () if labels == "—" else tuple(labels.split(", "))))
    return rows


def _raise(record):
    raise RuntimeError("broken subscriber")


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    clock = VirtualClock()
    state_dir = str(tmp_path_factory.mktemp("observability-docs"))
    daemon = Libvirtd(hostname=HOSTNAME, clock=clock, state_dir=state_dir)
    dest = Libvirtd(hostname=HOSTNAME + "-dest", clock=clock)
    try:
        daemon.listen("unix")
        dest.listen("unix")
        drive(daemon)
        registry = MetricsRegistry()
        uri = ConnectionURI.parse(URI)
        client = Connection(RemoteDriver(uri, metrics=registry), uri)
        disk = DiskDevice("/img/kept.qcow2", "vda", capacity_bytes=GiB)
        kept = client.define_domain(
            DomainConfig(name="kept", domain_type="kvm", memory_kib=65536, disks=[disk])
        )
        kept.start()
        client.define_storage_pool(StoragePoolConfig(name="backups", capacity_bytes=8 * GiB)).start()
        kept.backup_begin("backups")  # the job
        clock.sleep(3600.0)
        assert kept.job_info()["phase"] == "completed"
        mover = client.define_domain(DomainConfig(name="mover", domain_type="kvm", memory_kib=65536))
        mover.start()
        with repro.open_connection(f"qemu+unix://{HOSTNAME}-dest/system") as there:
            mover.migrate(there)
        bus = daemon.drivers["qemu"].events
        bus.pause(bus.subscribe(lambda record: None, max_queue=1))
        bus.subscribe(_raise)
        for _ in range(2):  # the second overflows the paused queue; both raise
            bus.publish("config", domain="kept")
        client.close()
        families = [f for r in (daemon.metrics, registry) for f in r.families()]
        yield [(f.name, f.type, f.labelnames) for f in families]
    finally:
        dest.shutdown()
        daemon.shutdown()


def test_every_exported_family_has_exactly_one_row(exported):
    rows = documented()
    assert len({name for name, _, _ in rows}) == len(rows), "a family documented twice"
    assert len({name for name, _, _ in exported}) == len(exported), "daemon and client share a name"
    missing = sorted(set(exported) - set(rows))
    assert not missing, f"exported but not (or differently) documented: {missing}"


def test_every_row_names_an_exported_family(exported):
    stale = sorted(set(documented()) - set(exported))
    assert not stale, f"documented but never exported: {stale}"
