"""The fleet registry reads through each host connection's client cache:
it costs nothing until it reads a host, and it answers from what the
daemon's records left standing."""

import pytest

from repro.core.states import DomainState
from repro.errors import NoDomainError
from repro.fleet import FleetManager
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig
from tests.test_fleet import GiB_KIB, deploy, make_daemon


@pytest.fixture()
def trio():
    clock = VirtualClock()
    daemons = {name: make_daemon(name, clock) for name in ("fl-a", "fl-b", "fl-c")}
    fleet = FleetManager([f"qemu+tcp://{name}/system" for name in daemons])
    yield fleet, daemons
    fleet.close()
    for daemon in daemons.values():
        daemon.shutdown()


def subscriptions(daemon):
    return daemon.drivers["qemu"].events.subscription_count


class TestReadThroughTheHostCaches:
    def test_an_unread_host_has_no_cache_and_no_subscription(self, trio):
        fleet, daemons = trio
        deploy(fleet.connection("fl-a"), "idle")
        registry = fleet.registry()
        assert registry.stats()["stale_shards"] == 3
        for hostname in fleet.hostnames():
            assert fleet.connection(hostname).cache_stats()["enabled"] is False
            assert subscriptions(daemons[hostname]) == 0
        # the first host in order runs the guest: no other host is read
        assert registry.locate("idle") == "fl-a"
        assert fleet.connection("fl-a").cache_stats()["enabled"] is True
        assert subscriptions(daemons["fl-a"]) == 1
        for hostname in ("fl-b", "fl-c"):
            assert fleet.connection(hostname).cache_stats()["enabled"] is False
            assert subscriptions(daemons[hostname]) == 0

    def test_locate_by_uuid_follows_a_redefinition(self, trio):
        fleet, daemons = trio
        conn = fleet.connection("fl-b")
        first = DomainConfig(
            name="twin", domain_type="kvm", memory_kib=GiB_KIB, vcpus=1,
            uuid="11111111-1111-4111-8111-111111111111",
        )
        dom = conn.define_domain(first).start()
        registry = fleet.registry()
        assert registry.locate_by_uuid(first.uuid) == "fl-b"
        dom.destroy()
        dom.undefine()
        second = DomainConfig(
            name="twin", domain_type="kvm", memory_kib=GiB_KIB, vcpus=1,
            uuid="22222222-2222-4222-8222-222222222222",
        )
        conn.define_domain(second).start()
        assert registry.locate_by_uuid(second.uuid) == "fl-b"
        # a fresh host answers from its cache, with no call to its daemon
        qemu = daemons["fl-b"].drivers["qemu"]
        before = qemu.api_calls
        assert registry.locate_by_uuid(second.uuid) == "fl-b"
        assert qemu.api_calls == before
        with pytest.raises(NoDomainError):
            registry.locate_by_uuid(first.uuid)
        assert registry.lookup("twin").state() == DomainState.RUNNING
