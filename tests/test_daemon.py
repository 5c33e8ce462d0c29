"""Tests for the libvirtd-analogue daemon (repro.daemon)."""

import threading

import pytest

from repro.daemon import Libvirtd, lookup_daemon, reset_daemons
from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    ConnectionError_,
    InvalidArgumentError,
    InvalidURIError,
    OperationFailedError,
    TransportHangError,
)
from repro.rpc.client import RPCClient
from repro.xmlconfig.domain import DomainConfig

GiB_KIB = 1024 * 1024


@pytest.fixture()
def daemon():
    with Libvirtd(hostname="node1", max_clients=5) as d:
        d.listen("unix")
        d.listen("tcp")
        yield d


def raw_client(daemon, transport="unix", credentials=None):
    channel = daemon.listener(transport).connect(credentials)
    return RPCClient(channel)


def kvm_config(name="web1", memory_gib=1):
    return DomainConfig(
        name=name, domain_type="kvm", memory_kib=memory_gib * GiB_KIB, vcpus=1
    )


class TestRegistry:
    def test_daemon_registers_itself(self, daemon):
        assert lookup_daemon("node1") is daemon
        assert lookup_daemon("NODE1") is daemon  # case-insensitive

    def test_shutdown_unregisters(self):
        d = Libvirtd(hostname="tmp")
        d.shutdown()
        with pytest.raises(ConnectionError_):
            lookup_daemon("tmp")

    def test_reset_daemons(self, daemon):
        reset_daemons()
        with pytest.raises(ConnectionError_):
            lookup_daemon("node1")


class TestConnectOpen:
    def test_calls_require_open(self, daemon):
        client = raw_client(daemon)
        with pytest.raises(ConnectionError_, match=r"connection not opened \(call connect\.open first\)"):
            client.call("connect.list_domains")
        assert daemon.list_clients()[0]["calls"] == 1  # refused, but counted
        with pytest.raises(ConnectionError_, match=r"connection not opened \(call connect\.open first\)"):
            client.call("connect.domain_event_register")
        assert daemon.list_clients()[0]["calls"] == 2  # an arming call is counted too

    def test_event_arming_calls_are_counted_and_traced(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "test:///default"})
        procedures = (
            "connect.event_subscribe",
            "connect.domain_event_register",
            "connect.domain_event_deregister",
            "connect.event_unsubscribe",
        )
        for calls, procedure in enumerate(procedures, start=2):
            daemon.clock.advance(1.0)
            sent = daemon.clock.now()
            client.call(procedure)
            (record,) = daemon.client_stats()
            assert record["calls"] == calls
            assert sent <= record["last_activity"] <= daemon.clock.now()
        traced = [span.attributes["procedure"] for span in daemon.tracer.find("driver.op")]
        assert traced == list(procedures)

    def test_an_event_arming_call_has_a_mid_dispatch_kill_point(self, daemon):
        from repro.faults import CrashPlan, CrashPoint

        client = raw_client(daemon)
        client.call("connect.open", {"uri": "test:///default"})
        plan = CrashPlan().crash(CrashPoint.MID_DISPATCH, op="connect.event_subscribe")
        daemon.install_crash_plan(plan)
        with pytest.raises(TransportHangError):  # the daemon died with the call in flight
            client.call("connect.event_subscribe")
        assert (CrashPoint.MID_DISPATCH, "connect.event_subscribe") in plan.opportunities
        assert daemon.flight_recorder.records("crash")[-1]["procedure"] == "connect.event_subscribe"

    def test_a_call_looks_its_client_up_once(self, daemon, monkeypatch):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "test:///default"})
        looked_up = []
        record_of = daemon._record_of
        monkeypatch.setattr(daemon, "_record_of", lambda conn: looked_up.append(conn) or record_of(conn))
        client.call("connect.list_domains")
        assert len(looked_up) == 1

    def test_open_binds_driver(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "qemu:///system"})
        assert client.call("connect.list_domains") == []

    def test_open_unknown_scheme(self, daemon):
        client = raw_client(daemon)
        with pytest.raises(InvalidURIError):
            client.call("connect.open", {"uri": "vbox:///session"})

    def test_open_without_uri(self, daemon):
        client = raw_client(daemon)
        with pytest.raises(InvalidArgumentError):
            client.call("connect.open", {})

    def test_qemu_and_kvm_share_one_driver(self, daemon):
        assert daemon.drivers["qemu"] is daemon.drivers["kvm"]


class TestClientManagement:
    def test_client_list_and_info(self, daemon):
        c1 = raw_client(daemon, "unix", {"username": "root", "uid": 0, "pid": 77})
        c2 = raw_client(daemon, "tcp", {"addr": "10.0.0.9:4123"})
        clients = daemon.list_clients()
        assert len(clients) == 2
        assert [c["transport"] for c in clients] == ["unix", "tcp"]
        info1 = daemon.client_info(clients[0]["id"])
        assert info1["unix_user_id"] == 0
        assert info1["unix_process_id"] == 77
        info2 = daemon.client_info(clients[1]["id"])
        assert info2["sock_addr"] == "10.0.0.9:4123"

    def test_client_info_unknown_id(self, daemon):
        with pytest.raises(InvalidArgumentError):
            daemon.client_info(999)

    def test_max_clients_enforced(self, daemon):
        clients = [raw_client(daemon) for _ in range(5)]
        with pytest.raises(OperationFailedError, match="max_clients"):
            raw_client(daemon)
        clients[0].close()
        raw_client(daemon)  # slot freed

    def test_set_max_clients_runtime(self, daemon):
        daemon.set_max_clients(1)
        raw_client(daemon)
        with pytest.raises(OperationFailedError):
            raw_client(daemon)
        daemon.set_max_clients(10)
        raw_client(daemon)
        with pytest.raises(InvalidArgumentError):
            daemon.set_max_clients(0)

    def test_disconnect_client_forcefully(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "test:///default"})
        client_id = daemon.list_clients()[0]["id"]
        daemon.disconnect_client(client_id)
        with pytest.raises(ConnectionClosedError):
            client.call("connect.list_domains")
        assert daemon.list_clients() == []

    def test_disconnect_unknown_client(self, daemon):
        with pytest.raises(InvalidArgumentError):
            daemon.disconnect_client(404)

    def test_closed_clients_pruned_from_stats(self, daemon):
        client = raw_client(daemon)
        assert daemon.stats()["nclients"] == 1
        client.close()
        assert daemon.stats()["nclients"] == 0

    def test_connect_close_cleans_up(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "test:///default"})
        client.call("connect.close")
        assert daemon.list_clients() == []


class TestAuthentication:
    def test_tcp_with_sasl_authenticator(self):
        def sasl(creds):
            if creds.get("password") != "hunter2":
                raise AuthenticationError("SASL authentication failed")
            return {"sasl_user_name": creds.get("username", "?")}

        with Libvirtd(hostname="authnode") as daemon:
            daemon.listen("tcp", authenticator=sasl)
            with pytest.raises(AuthenticationError):
                raw_client(daemon, "tcp", {"username": "eve", "password": "x"})
            client = raw_client(
                daemon, "tcp", {"username": "bob", "password": "hunter2"}
            )
            client.call("connect.open", {"uri": "test:///default"})
            info = daemon.client_info(daemon.list_clients()[0]["id"])
            assert info["sasl_user_name"] == "bob"


class TestDispatch:
    def test_domain_lifecycle_through_wire(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "qemu:///system"})
        client.call("domain.define_xml", {"xml": kvm_config().to_xml()})
        client.call("domain.create", {"name": "web1"})
        assert client.call("connect.list_domains") == ["web1"]
        info = client.call("domain.get_info", {"name": "web1"})
        assert info["state"] == 1  # RUNNING
        client.call("domain.destroy", {"name": "web1"})
        assert client.call("connect.list_domains") == []
        assert client.call("connect.list_defined_domains") == ["web1"]

    def test_errors_cross_the_wire_typed(self, daemon):
        from repro.errors import NoDomainError

        client = raw_client(daemon)
        client.call("connect.open", {"uri": "qemu:///system"})
        with pytest.raises(NoDomainError):
            client.call("domain.lookup_by_name", {"name": "ghost"})

    def test_two_clients_share_node_state(self, daemon):
        c1 = raw_client(daemon)
        c1.call("connect.open", {"uri": "qemu:///system"})
        c1.call("domain.define_xml", {"xml": kvm_config("shared").to_xml()})
        c2 = raw_client(daemon)
        c2.call("connect.open", {"uri": "qemu:///system"})
        assert c2.call("connect.list_defined_domains") == ["shared"]

    def test_distinct_drivers_per_scheme(self, daemon):
        c1 = raw_client(daemon)
        c1.call("connect.open", {"uri": "qemu:///system"})
        c1.call("domain.define_xml", {"xml": kvm_config("kvmguest").to_xml()})
        c2 = raw_client(daemon)
        c2.call("connect.open", {"uri": "test:///default"})
        assert c2.call("connect.list_defined_domains") == []

    def test_stats_counts_calls(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "test:///default"})
        client.call("connect.list_domains")
        stats = daemon.stats()
        assert stats["calls_served"] >= 2
        assert stats["minWorkers"] == 5


class TestPriorityLane:
    def test_destroy_completes_while_workers_hung(self):
        """The guaranteed-finish lane: destroy works under a stuck pool."""
        gate = threading.Event()
        with Libvirtd(
            hostname="hungnode", min_workers=1, max_workers=1, prio_workers=2
        ) as daemon:
            daemon.listen("unix")
            # a running guest, set up before the pool wedges
            driver = daemon.drivers["test"]
            driver.domain_define_xml(
                DomainConfig(name="v", domain_type="test").to_xml()
            )
            driver.domain_create("v")
            # occupy the one ordinary worker with a blocking job
            daemon.pool.submit(gate.wait)
            import time

            deadline = time.monotonic() + 5
            while daemon.pool.stats()["freeWorkers"] > 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            client = raw_client(daemon)
            client.call("connect.open", {"uri": "test:///default"})
            # only priority procedures can make progress now — and the
            # critical one, destroy, must succeed
            assert client.call("domain.get_state", {"name": "v"}) == 1
            client.call("domain.destroy", {"name": "v"})
            assert client.call("domain.get_state", {"name": "v"}) == 5
            gate.set()


class TestLogging:
    def test_daemon_logs_connections(self):
        with Libvirtd(hostname="lognode", log_level=1) as daemon:
            daemon.listen("unix")
            raw_client(daemon)
            records = daemon.logger.memory_records()
            assert any("client 1 connected" in line for line in records)

    def test_log_level_reconfigurable_at_runtime(self):
        with Libvirtd(hostname="lognode2") as daemon:
            daemon.listen("unix")
            raw_client(daemon)
            assert not daemon.logger.memory_records()  # ERROR level: quiet
            daemon.logger.set_level(1)
            raw_client(daemon)
            assert daemon.logger.memory_records()


class TestAutostart:
    def test_autostart_flagged_domains_start_on_daemon_boot(self, daemon):
        client = raw_client(daemon)
        client.call("connect.open", {"uri": "qemu:///system"})
        client.call("domain.define_xml", {"xml": kvm_config("boot1").to_xml()})
        client.call("domain.set_autostart", {"name": "boot1", "autostart": True})
        client.call("domain.define_xml", {"xml": kvm_config("stay").to_xml()})
        started = daemon.drivers["qemu"].autostart_all()
        assert started == ["boot1"]
        assert client.call("connect.list_domains") == ["boot1"]
