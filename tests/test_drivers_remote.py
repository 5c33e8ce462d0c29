"""Remote-driver integration: local vs remote behavioural parity.

The paper's remote-management claim: an application pointed at
``qemu+tcp://host/system`` behaves exactly as if pointed at the local
``qemu:///system`` — same results, same errors, only transport latency
added.
"""

import pytest

import repro
from repro.core.states import DomainState
from repro.daemon import Libvirtd
from repro.errors import NoDomainError, OperationFailedError
from repro.xmlconfig.domain import DomainConfig
from repro.xmlconfig.network import NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

GiB_KIB = 1024 * 1024
GiB = 1024**3


@pytest.fixture()
def daemon():
    with Libvirtd(hostname="farm1") as d:
        d.listen("unix")
        d.listen("tcp")
        d.listen("tls")
        yield d


@pytest.fixture()
def conn(daemon):
    connection = repro.open_connection("qemu+tcp://farm1/system")
    yield connection
    connection.close()


def kvm_config(name="web1", memory_gib=1):
    return DomainConfig(
        name=name, domain_type="kvm", memory_kib=memory_gib * GiB_KIB, vcpus=1
    )


class TestConnectionLevel:
    def test_hostname_comes_from_daemon_node(self, conn):
        assert conn.hostname() == "farm1"

    def test_capabilities_cross_the_wire(self, conn):
        caps = conn.capabilities()
        assert caps.supports("hvm", "x86_64", "kvm")

    def test_node_info(self, conn):
        info = conn.node_info()
        assert info["cpus"] >= 1

    def test_version_and_features(self, conn):
        assert conn.version() == (1, 0, 0)
        assert conn.supports("migration")
        assert not conn.supports("levitation")

    def test_unix_and_tls_transports_work(self, daemon):
        for transport in ("unix", "tls"):
            c = repro.open_connection(f"qemu+{transport}://farm1/system")
            assert c.hostname() == "farm1"
            c.close()


class TestDomainParity:
    def test_full_lifecycle_remote(self, conn):
        dom = conn.define_domain(kvm_config())
        dom.start()
        assert dom.state() == DomainState.RUNNING
        dom.suspend()
        assert dom.state() == DomainState.PAUSED
        dom.resume()
        dom.shutdown()
        assert dom.state() == DomainState.SHUTOFF
        dom.undefine()
        with pytest.raises(NoDomainError):
            conn.lookup_domain("web1")

    def test_remote_errors_keep_their_class(self, conn):
        with pytest.raises(NoDomainError, match="ghost"):
            conn.lookup_domain("ghost")

    def test_xml_round_trip_over_wire(self, conn):
        dom = conn.define_domain(kvm_config(memory_gib=2))
        config = dom.config()
        assert config.memory_kib == 2 * GiB_KIB
        assert config.domain_type == "kvm"

    def test_set_memory_remote(self, conn):
        dom = conn.define_domain(kvm_config(memory_gib=2)).start()
        dom.set_memory(GiB_KIB)
        assert dom.info().memory_kib == GiB_KIB

    def test_save_restore_remote(self, conn):
        dom = conn.define_domain(kvm_config()).start()
        dom.save("/save/web1")
        restored = conn.restore_domain("/save/web1")
        assert restored.state() == DomainState.RUNNING

    def test_snapshots_remote(self, conn):
        dom = conn.define_domain(kvm_config())
        dom.create_snapshot("s1")
        assert dom.list_snapshots() == ["s1"]
        dom.delete_snapshot("s1")

    def test_autostart_remote(self, conn):
        dom = conn.define_domain(kvm_config())
        dom.autostart = True
        assert dom.autostart is True

    def test_remote_and_local_views_agree(self, conn, daemon):
        conn.define_domain(kvm_config("agreed")).start()
        local_driver = daemon.drivers["qemu"]
        assert "agreed" in local_driver.list_domains()


class TestRemoteEvents:
    def test_events_stream_back_to_client(self, conn):
        events = []
        conn.register_domain_event(lambda n, e, d: events.append((n, e.name)))
        dom = conn.define_domain(kvm_config("evt"))
        dom.start()
        dom.destroy()
        assert ("evt", "DEFINED") in events
        assert ("evt", "STARTED") in events
        assert ("evt", "STOPPED") in events

    def test_deregister_stops_stream(self, conn):
        events = []
        cb = conn.register_domain_event(lambda *a: events.append(a))
        conn.deregister_domain_event(cb)
        conn.define_domain(kvm_config("quiet"))
        assert events == []

    def test_events_from_another_client_arrive(self, daemon, conn):
        """Client B sees lifecycle changes made by client A."""
        events = []
        conn.register_domain_event(lambda n, e, d: events.append(e.name))
        other = repro.open_connection("qemu+unix://farm1/system")
        other.define_domain(kvm_config("third-party")).start()
        other.close()
        assert "STARTED" in events


class TestRemoteNetworksAndStorage:
    def test_networks_remote(self, conn):
        net = conn.define_network(NetworkConfig(name="lab"))
        net.start()
        assert conn.lookup_network("lab").is_active
        assert [n.name for n in conn.list_networks()] == ["lab"]
        net.destroy()
        net.undefine()

    def test_storage_remote(self, conn):
        pool = conn.define_storage_pool(
            StoragePoolConfig(name="imgs", capacity_bytes=20 * GiB)
        ).start()
        vol = pool.create_volume(VolumeConfig("a.qcow2", GiB))
        assert vol.info().capacity_bytes == GiB
        assert pool.info().capacity_bytes == 20 * GiB
        vol.delete()
        pool.destroy()


class TestTransportCost:
    def test_remote_adds_transport_latency_over_local(self, daemon):
        clock = daemon.clock
        remote = repro.open_connection("qemu+tcp://farm1/system")
        t0 = clock.now()
        remote.list_domains(active=True)
        remote_cost = clock.now() - t0

        local_driver = daemon.drivers["qemu"]
        t0 = clock.now()
        local_driver.list_domains()
        local_cost = clock.now() - t0
        assert remote_cost > local_cost

    def test_transport_ordering_end_to_end(self, daemon):
        clock = daemon.clock
        costs = {}
        for transport in ("unix", "tcp", "tls"):
            c = repro.open_connection(f"qemu+{transport}://farm1/system")
            t0 = clock.now()
            for _ in range(5):
                c.list_domains(active=True)
            costs[transport] = clock.now() - t0
            c.close()
        assert costs["unix"] < costs["tcp"] < costs["tls"]


class TestRemoteMigration:
    def test_migrate_between_two_daemons(self):
        with Libvirtd(hostname="srcnode") as src_daemon, Libvirtd(
            hostname="dstnode"
        ) as dst_daemon:
            src_daemon.listen("tcp")
            dst_daemon.listen("tcp")
            src = repro.open_connection("qemu+tcp://srcnode/system")
            dst = repro.open_connection("qemu+tcp://dstnode/system")
            dom = src.define_domain(kvm_config("mover")).start()
            moved = dom.migrate(dst)
            assert moved.state() == DomainState.RUNNING
            assert moved.connection is dst
            assert dom.state() == DomainState.SHUTOFF
            assert "mover" in [d.name for d in dst.list_domains(active=True)]
            stats = moved.last_migration_stats
            assert stats["converged"] is True
            assert stats["downtime_s"] <= stats["total_time_s"]

    def test_failed_migration_rolls_back(self):
        with Libvirtd(hostname="s2") as sd, Libvirtd(hostname="d2") as dd:
            sd.listen("tcp")
            dd.listen("tcp")
            src = repro.open_connection("qemu+tcp://s2/system")
            dst = repro.open_connection("qemu+tcp://d2/system")
            dom = src.define_domain(kvm_config("sticky")).start()
            # make the guest dirty memory faster than any link can carry
            sd.drivers["qemu"].backend._get("sticky").dirty_rate_mib_s = 1e9
            from repro.errors import MigrationError

            with pytest.raises(MigrationError):
                from repro.migration.manager import migrate_domain

                migrate_domain(dom, dst, strict_convergence=True)
            # source still running, destination clean
            assert dom.state() == DomainState.RUNNING
            assert dst.list_domains(active=True) == []


class TestMalformedDocumentsOverTheWire:
    """A document the daemon cannot parse is the caller's XML error (code 14),
    not the daemon's internal error (code 1)."""

    @pytest.mark.parametrize(
        "broken",
        [
            '<vcpu current="1">one</vcpu>',
            '<vcpu current="1">1</vcpu><devices><disk><source file="/a" /><target dev="vda" />'
            '<capacity unit="bytes">five</capacity></disk></devices>',
            '<vcpu current="1">1</vcpu><devices><disk><source file="/a" /><target dev="vda" />'
            '<capacity unit="bytes" /></disk></devices>',
            "<features><a:b /></features>",
        ],
    )
    def test_define_domain_answers_xml_error(self, daemon, broken):
        from repro.errors import ErrorCode, XMLError

        xml = f'<domain type="kvm"><name>bad</name><memory>1024</memory>{broken}</domain>'
        connection = repro.open_connection("qemu+unix://farm1/system")
        try:
            with pytest.raises(XMLError) as caught:
                connection.define_domain(xml)
            assert caught.value.code == ErrorCode.XML_ERROR
            assert "internal error" not in str(caught.value)
            assert connection.list_domains() == []
        finally:
            connection.close()
