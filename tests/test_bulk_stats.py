"""``get_all_domain_stats``: one driver walk, one round trip, same rows.

Every comparison below builds the same seeded world twice — the bulk call
reads one, the per-guest loop the other — so rows that carry modelled
counters (``cpu_seconds``, the I/O totals) and the hypervisor time charged
can be compared exactly instead of approximately.
"""

import contextlib
import io

import pytest

import repro
from repro.cli.virsh import main as virsh
from repro.core.connection import Connection
from repro.core.driver import Driver
from repro.core.uri import ConnectionURI
from repro.daemon import Libvirtd
from repro.drivers.esx import EsxDriver
from repro.drivers.test import TestDriver
from repro.errors import NoDomainError, UnsupportedError
from repro.hypervisors.esx_backend import EsxBackend
from repro.xmlconfig.domain import DomainConfig
from tests.test_drivers_hypervisors import ALL_KINDS, config_for, make_connection

GUESTS = ("a-run", "b-idle", "c-run", "d-paused", "e-idle")


def world(kind, remote, stack):
    """(driver under test, the backend that is charged, the daemon or None)."""
    if kind == "esx":
        local = EsxDriver(EsxBackend())
        configs = [DomainConfig(name=n, domain_type="esx", memory_kib=1024 * 1024) for n in GUESTS]
    else:
        local = make_connection(kind)[0]._driver
        configs = [config_for(kind, name) for name in GUESTS]
    for config in configs:
        local.domain_define_xml(config.to_xml())
        if "idle" not in config.name:
            local.domain_create(config.name)
    local.domain_suspend("d-paused")
    if not remote:
        return local, local.backend, None
    daemon = stack.enter_context(Libvirtd(hostname=f"bulk-{kind}", drivers={kind: local}))
    daemon.listen("tcp")
    conn = stack.enter_context(repro.open_connection(f"{kind}+tcp://bulk-{kind}/system"))
    return conn._driver, local.backend, daemon


def begun(daemon):
    return [r["procedure"] for r in daemon.flight_recorder.records() if r["kind"] == "rpc.begin"]


@pytest.mark.parametrize("active", [True, False, None])
@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bulk_equals_the_loop_and_charges_the_same(kind, remote, active):
    with contextlib.ExitStack() as stack:
        bulk_driver, bulk_backend, daemon = world(kind, remote, stack)
        loop_driver, loop_backend, _ = world(kind, False, stack)
        listing = Connection(loop_driver, ConnectionURI.parse(f"{kind}:///system")).list_domains(active)
        started = loop_backend.clock.now()
        want = [loop_driver.domain_get_stats(domain.name) for domain in listing]
        loop_charge = loop_backend.clock.now() - started

        calls = len(begun(daemon)) if remote else 0
        started = bulk_backend.clock.now()
        got = bulk_driver.get_all_domain_stats(active)
        assert bulk_backend.clock.now() - started == loop_charge
        assert got == want
        assert [row["name"] for row in got] == {
            True: ["a-run", "c-run", "d-paused"],
            False: ["b-idle", "e-idle"],
            None: sorted(GUESTS),
        }[active]
        assert bulk_backend.ops_charged.get("query", 0) == loop_backend.ops_charged.get("query", 0)
        if remote:
            assert begun(daemon)[calls:] == ["connect.get_all_domain_stats"]


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
def test_esx_has_no_stats_bulk_or_single(remote):
    with contextlib.ExitStack() as stack:
        driver, _, daemon = world("esx", remote, stack)
        with pytest.raises(UnsupportedError):
            driver.domain_get_stats("a-run")
        calls = len(begun(daemon)) if remote else 0
        with pytest.raises(UnsupportedError):
            driver.get_all_domain_stats()
        if remote:
            # the daemon serving a backend without a cheaper walk still takes one CALL
            assert begun(daemon)[calls:] == ["connect.get_all_domain_stats"]


class _ListsAGhost(Driver):
    """The base default's view: a listing that names a guest already gone."""

    name = "double"

    def list_domains(self):
        return ["a", "ghost", "b"]

    def list_defined_domains(self):
        return []

    def domain_get_stats(self, name):
        if name == "ghost":
            raise NoDomainError("no domain with matching name 'ghost'")
        return {"name": name, "state": 1}


class _ForgetsAGuest(TestDriver):
    """The stateful walk's view: a transient guest destroyed — and so
    forgotten — between the read of the guest table and its own turn."""

    doomed = None

    def _record(self, name):
        if name == self.doomed:
            self.doomed = None
            self.domain_destroy(name)
        return super()._record(name)


def forgetful():
    driver = _ForgetsAGuest(seed_default=False)
    for name in ("a", "ghost", "b"):
        driver.domain_create_xml(config_for("test", name).to_xml())
    driver.doomed = "ghost"
    return driver


@pytest.mark.parametrize("make", [_ListsAGhost, forgetful], ids=["base-default", "stateful-walk"])
def test_a_guest_gone_since_the_listing_does_not_abort_the_sweep(make):
    conn = Connection(make(), ConnectionURI.parse("test:///default"))
    assert [row["name"] for row in conn.get_all_domain_stats()] == ["a", "b"]
    assert conn.active_domain_count() == 2


def test_active_domain_count_is_one_round_trip():
    with Libvirtd(hostname="bulk-count") as daemon:
        daemon.listen("tcp")
        with repro.open_connection("test+tcp://bulk-count/default") as conn:
            for name in GUESTS:
                domain = conn.define_domain(config_for("test", name))
                if "idle" not in name:
                    domain.start()
            calls = len(begun(daemon))
            assert conn.active_domain_count() == 3
            assert begun(daemon)[calls:] == ["connect.get_all_domain_stats"]


def test_virsh_domstats_without_a_domain_is_one_remote_call():
    with Libvirtd(hostname="bulk-virsh") as daemon:
        daemon.listen("tcp")
        uri = "test+tcp://bulk-virsh/default"
        with repro.open_connection(uri) as conn:
            for name in GUESTS[:3]:
                conn.define_domain(config_for("test", name)).start()
        calls = len(begun(daemon))
        out = io.StringIO()
        assert virsh(["-c", uri, "domstats"], out=out) == 0
        assert out.getvalue().count("cpu_seconds:") == 3
        session = [p for p in begun(daemon)[calls:] if p not in ("connect.open", "connect.close")]
        assert session == ["connect.get_all_domain_stats"]
