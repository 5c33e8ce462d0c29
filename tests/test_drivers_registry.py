"""Tests for URI → driver resolution (registry + nodes) and for the
capability set each driver derives from what it implements."""

import pytest

import repro
from repro.core.driver import Driver, open_driver, registered_schemes
from repro.daemon import Libvirtd
from repro.drivers import nodes
from repro.drivers.esx import EsxDriver
from repro.drivers.lxc import LxcDriver
from repro.drivers.qemu import QemuDriver
from repro.drivers.remote import RemoteDriver
from repro.drivers.test import TestDriver
from repro.drivers.xen import XenDriver
from repro.errors import ConnectionError_, InvalidURIError
from repro.hypervisors.esx_backend import EsxBackend


class TestLocalResolution:
    def test_all_local_schemes_registered(self):
        schemes = registered_schemes()
        for scheme in ("test", "qemu", "xen", "lxc", "esx"):
            assert scheme in schemes

    def test_test_uri_yields_test_driver(self):
        driver = open_driver("test:///default")
        assert isinstance(driver, TestDriver)

    def test_qemu_uri_yields_qemu_driver(self):
        driver = open_driver("qemu:///system")
        assert isinstance(driver, QemuDriver)

    def test_same_uri_shares_driver_singleton(self):
        assert open_driver("qemu:///system") is open_driver("qemu:///system")

    def test_different_schemes_different_nodes(self):
        assert open_driver("qemu:///system") is not open_driver("test:///default")


class TestRemoteResolution:
    def test_explicit_transport_forces_remote_driver(self):
        with Libvirtd(hostname="nodeR") as daemon:
            daemon.listen("tcp")
            driver = open_driver("qemu+tcp://nodeR/system")
            assert isinstance(driver, RemoteDriver)
            driver.close()

    def test_unknown_scheme_falls_back_to_remote(self):
        """A scheme no local driver claims goes through the daemon."""
        with pytest.raises(ConnectionError_):
            # remote fallback selected, but no daemon at 'somehost'
            open_driver("qemu://somehost/system")

    def test_daemon_must_listen_on_requested_transport(self):
        with Libvirtd(hostname="nodeT") as daemon:
            daemon.listen("unix")
            with pytest.raises(ConnectionError_, match="not listening"):
                open_driver("qemu+tls://nodeT/system")

    def test_remote_open_unknown_scheme_on_daemon(self):
        with Libvirtd(hostname="nodeU") as daemon:
            daemon.listen("tcp")
            with pytest.raises(InvalidURIError, match="no driver for scheme"):
                repro.open_connection("vbox+tcp://nodeU/session")


class TestEsxHostRegistry:
    def test_register_and_resolve(self):
        backend = nodes.register_esx_host("esx9")
        assert nodes.esx_host("esx9") is backend

    def test_reset_forgets_hosts(self):
        nodes.register_esx_host("esx9")
        nodes.reset_nodes()
        with pytest.raises(InvalidURIError):
            nodes.esx_host("esx9")


#: each shipped driver's ``features()``, pinned: deriving the set from the
#: procedure table must move no claim and no position
FULL = ["lifecycle", "pause_resume", "reboot", "save_restore", "managed_save", "set_memory", "set_vcpus",
        "snapshots", "checkpoints", "backup", "bulk_streams", "migration", "networks", "storage", "events",
        "device_hotplug", "remote", "autostart"]
LXC = ["lifecycle", "pause_resume", "reboot", "set_memory", "set_vcpus", "snapshots", "bulk_streams",
       "networks", "storage", "events", "device_hotplug", "remote", "autostart"]
ESX = ["lifecycle", "pause_resume", "reboot", "set_memory", "set_vcpus"]
SHIPPED = {
    "qemu": (QemuDriver, FULL),
    "xen": (XenDriver, FULL),
    "test": (lambda: TestDriver(seed_default=False), FULL),
    "lxc": (LxcDriver, LXC),
    "esx": (lambda: EsxDriver(EsxBackend()), ESX),
}
CHECKPOINT_METHODS = {"checkpoint_create", "checkpoint_list", "checkpoint_delete", "checkpoint_get_xml_desc"}


class TestDerivedFeatures:
    """A driver claims a feature iff it overrides every method the table
    files under it and lists none of them in ``unsupported_ops``."""

    @pytest.mark.parametrize("scheme", sorted(SHIPPED))
    def test_shipped_drivers_claim_what_they_claimed_before(self, scheme):
        make, claimed = SHIPPED[scheme]
        driver = make()
        assert driver.features() == claimed
        assert all(driver.supports_feature(feature) for feature in claimed)

    @pytest.mark.parametrize("scheme", ["qemu", "xen", "lxc", "test"])
    def test_a_remote_driver_relays_the_daemons_list(self, scheme):
        with Libvirtd(hostname="nodeF") as daemon:
            daemon.listen("unix")
            conn = repro.open_connection(f"{scheme}+unix://nodeF/system")
            assert conn.features() == SHIPPED[scheme][1]
            conn.close()

    def test_a_driver_that_overrides_nothing_claims_nothing(self):
        class Bare(Driver):
            name = "bare"
            stateless = True

        assert Bare().features() == []

        # ``remote`` has no methods: a driver a daemon can host claims it
        class Hosted(Driver):
            name = "hosted"

        assert Hosted().features() == ["remote"]

    def test_refusing_stubs_listed_in_unsupported_ops_claim_nothing(self):
        class DoubleSpeak(LxcDriver):
            name = "doublespeak"

        assert "checkpoints" not in DoubleSpeak().features()

        # the stubs override the methods; only the listing keeps the claim out
        class Unlisted(LxcDriver):
            name = "unlisted"
            unsupported_ops = LxcDriver.unsupported_ops - CHECKPOINT_METHODS

        assert Unlisted().features() == LXC[:6] + ["checkpoints"] + LXC[6:]

    def test_one_unsupported_method_drops_its_feature_and_nothing_else(self):
        class Sandbagger(QemuDriver):
            name = "sandbagger"
            unsupported_ops = frozenset({"checkpoint_create"})

        assert Sandbagger().features() == [f for f in FULL if f != "checkpoints"]

    def test_unsupported_ops_name_driver_methods(self):
        surface = {name for name, value in vars(Driver).items() if callable(value) and not name.startswith("_")}
        for scheme, (make, _) in SHIPPED.items():
            assert set(make().unsupported_ops) <= surface, scheme

    def test_each_call_hands_out_its_own_list(self):
        driver = QemuDriver()
        driver.features().clear()
        assert driver.features() == FULL
