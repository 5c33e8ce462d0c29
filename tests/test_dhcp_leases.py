"""Tests for virtual-network DHCP lease modelling."""

import pytest

import repro
from repro.core.connection import Connection
from repro.core.uri import ConnectionURI
from repro.daemon import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig, InterfaceDevice
from repro.xmlconfig.network import DHCPRange, IPConfig, NetworkConfig

GiB_KIB = 1024 * 1024


@pytest.fixture()
def conn():
    clock = VirtualClock()
    host = SimHost(cpus=32, memory_kib=64 * GiB_KIB, clock=clock)
    driver = QemuDriver(QemuBackend(host=host, clock=clock))
    return Connection(driver, ConnectionURI.parse("qemu:///dhcp"))


def nat_net(name="default", first="10.0.0.2", last="10.0.0.254"):
    return NetworkConfig(
        name=name,
        ip=IPConfig("10.0.0.1", "255.255.255.0", DHCPRange(first, last)),
    )


def guest(name, network="default", mac=None):
    return DomainConfig(
        name=name,
        domain_type="kvm",
        memory_kib=GiB_KIB,
        interfaces=[InterfaceDevice("network", network, mac)],
    )


class TestLeaseLifecycle:
    def test_started_guest_gets_a_lease(self, conn):
        net = conn.define_network(nat_net()).start()
        dom = conn.define_domain(guest("web1")).start()
        leases = net.dhcp_leases()
        assert len(leases) == 1
        assert leases[0]["ip"] == "10.0.0.2"
        assert leases[0]["hostname"] == "web1"
        assert leases[0]["mac"] == dom.config().interfaces[0].mac

    def test_leases_are_distinct(self, conn):
        net = conn.define_network(nat_net()).start()
        for index in range(3):
            conn.define_domain(guest(f"g{index}")).start()
        leases = net.dhcp_leases()
        assert len(leases) == 3
        assert len({l["ip"] for l in leases}) == 3

    def test_lease_released_on_destroy(self, conn):
        net = conn.define_network(nat_net()).start()
        dom = conn.define_domain(guest("web1")).start()
        dom.destroy()
        assert net.dhcp_leases() == []

    def test_lease_released_on_shutdown(self, conn):
        net = conn.define_network(nat_net()).start()
        dom = conn.define_domain(guest("web1")).start()
        dom.shutdown()
        assert net.dhcp_leases() == []

    def test_released_address_reused(self, conn):
        net = conn.define_network(nat_net()).start()
        first = conn.define_domain(guest("a")).start()
        first.destroy()
        conn.define_domain(guest("b")).start()
        leases = net.dhcp_leases()
        assert [l["ip"] for l in leases] == ["10.0.0.2"]

    def test_inactive_network_hands_out_nothing(self, conn):
        net = conn.define_network(nat_net())  # defined, not started
        conn.define_domain(guest("web1")).start()
        assert net.dhcp_leases() == []

    def test_network_without_dhcp_hands_out_nothing(self, conn):
        net = conn.define_network(NetworkConfig(name="default")).start()
        conn.define_domain(guest("web1")).start()
        assert net.dhcp_leases() == []

    def test_range_exhaustion_is_graceful(self, conn):
        net = conn.define_network(nat_net(first="10.0.0.2", last="10.0.0.3")).start()
        for index in range(3):
            conn.define_domain(guest(f"g{index}")).start()
        assert len(net.dhcp_leases()) == 2  # third guest simply has no lease

    def test_network_destroy_drops_all_leases(self, conn):
        net = conn.define_network(nat_net()).start()
        conn.define_domain(guest("web1")).start()
        net.destroy()
        net.start()
        assert net.dhcp_leases() == []

    def test_bridge_interfaces_get_no_lease(self, conn):
        net = conn.define_network(nat_net()).start()
        config = DomainConfig(
            name="br1",
            domain_type="kvm",
            memory_kib=GiB_KIB,
            interfaces=[InterfaceDevice("bridge", "br0")],
        )
        conn.define_domain(config).start()
        assert net.dhcp_leases() == []


class TestRemoteAndCli:
    def test_leases_over_remote_connection(self):
        with Libvirtd(hostname="dhcpnode") as daemon:
            daemon.listen("tcp")
            conn = repro.open_connection("qemu+tcp://dhcpnode/system")
            net = conn.define_network(nat_net()).start()
            conn.define_domain(guest("remote1")).start()
            leases = net.dhcp_leases()
            assert leases[0]["hostname"] == "remote1"

    def test_cli_net_dhcp_leases(self, tmp_path):
        import io

        from repro.cli.virsh import main

        with Libvirtd(hostname="dhcpcli") as daemon:
            daemon.listen("tcp")
            uri = "qemu+tcp://dhcpcli/system"
            net_xml = tmp_path / "net.xml"
            net_xml.write_text(nat_net().to_xml())
            dom_xml = tmp_path / "dom.xml"
            dom_xml.write_text(guest("clileases").to_xml())
            for argv in (
                ["-c", uri, "net-define", str(net_xml)],
                ["-c", uri, "net-start", "default"],
                ["-c", uri, "define", str(dom_xml)],
                ["-c", uri, "start", "clileases"],
            ):
                assert main(argv, out=io.StringIO()) == 0
            out = io.StringIO()
            assert main(["-c", uri, "net-dhcp-leases", "default"], out=out) == 0
            text = out.getvalue()
            assert "10.0.0.2" in text
            assert "clileases" in text

    def test_cli_domstats(self, tmp_path):
        import io

        from repro.cli.virsh import main

        dom_xml = tmp_path / "d.xml"
        dom_xml.write_text(
            DomainConfig(name="statcli", domain_type="test", memory_kib=GiB_KIB).to_xml()
        )
        assert main(["define", str(dom_xml)], out=io.StringIO()) == 0
        out = io.StringIO()
        assert main(["domstats", "statcli"], out=out) == 0
        assert "cpu_seconds:" in out.getvalue()

    def test_cli_p2p_migrate(self, tmp_path):
        import io

        from repro.cli.virsh import main

        with Libvirtd(hostname="p2pcli-src") as src, Libvirtd(hostname="p2pcli-dst") as dst:
            src.listen("tcp")
            dst.listen("tcp")
            dom_xml = tmp_path / "d.xml"
            dom_xml.write_text(guest("p2pwalker").to_xml())
            uri = "qemu+tcp://p2pcli-src/system"
            assert main(["-c", uri, "define", str(dom_xml)], out=io.StringIO()) == 0
            assert main(["-c", uri, "start", "p2pwalker"], out=io.StringIO()) == 0
            out = io.StringIO()
            code = main(
                ["-c", uri, "migrate", "p2pwalker", "qemu+tcp://p2pcli-dst/system", "--p2p"],
                out=out,
            )
            assert code == 0
            assert "migrated to" in out.getvalue()
            assert "p2pwalker" in dst.drivers["qemu"].list_domains()
