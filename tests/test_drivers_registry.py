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
from repro.drivers.stateful import StatefulDriver
from repro.drivers.test import TestDriver
from repro.drivers.xen import XenDriver
from repro.bench.workloads import guest_config
from repro.errors import ConnectionError_, InvalidURIError, UnsupportedError
from repro.hypervisors.esx_backend import EsxBackend
from repro.rpc.procedures import REMOTE_PROCEDURES


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


#: well-formed arguments for each method ``LxcDriver`` lists as unsupported,
#: against the running container ``c1``
COOKIE = {"name": "c1", "uuid": None, "driver": "lxc"}
REFUSED_ARGS = {
    "domain_save": ("c1", "/var/lib/lxc/c1.save"),
    "domain_restore": ("/var/lib/lxc/c1.save",),
    "domain_managed_save": ("c1",),
    "domain_managed_save_remove": ("c1",),
    "domain_has_managed_save": ("c1",),
    "migrate_begin": ("c1",),
    "migrate_prepare": ({"driver": "lxc", "name": "c2", "xml": guest_config("lxc", "c2").to_xml()},),
    "migrate_perform": ("c1", COOKIE, {"live": True}),
    "migrate_finish": (COOKIE, {"failed": False}),
    "migrate_confirm": ("c1", False),
    "migrate_p2p": ("c1", "lxc+tcp://elsewhere/system", {}),
    "checkpoint_create": ("c1", "cp1"),
    "checkpoint_list": ("c1",),
    "checkpoint_delete": ("c1", "cp1"),
    "checkpoint_get_xml_desc": ("c1", "cp1"),
    "backup_begin": ("c1", {"pool": "default"}),
    "backup_begin_pull": ("c1", {}),
    "domain_abort_job": ("c1",),
}


class TestTheTableSaysItOnce:
    """A listed method refuses before anything else runs; a stateful
    driver counts each served entry once; and serves no row it defines."""

    @pytest.mark.parametrize("method", sorted(LxcDriver.unsupported_ops))
    def test_a_listed_method_refuses_and_leaves_the_container_running(self, method):
        driver = LxcDriver()
        driver.domain_create_xml(guest_config("lxc", "c1").to_xml())
        calls = driver.api_calls
        with pytest.raises(UnsupportedError, match=f"driver 'lxc' does not support {method}"):
            getattr(driver, method)(*REFUSED_ARGS[method])
        assert driver.api_calls == calls
        assert driver.backend.list_guests() == ["c1"]
        assert driver.domain_get_info("c1")["state"] == 1

    def test_every_listed_method_has_arguments_here(self):
        assert set(REFUSED_ARGS) == LxcDriver.unsupported_ops

    def test_a_stats_sweep_is_one_call(self):
        driver = QemuDriver()
        for name in ("a", "b", "c"):
            driver.domain_create_xml(guest_config("kvm", name).to_xml())
        calls = driver.api_calls
        assert [row["name"] for row in driver.get_all_domain_stats(None)] == ["a", "b", "c"]
        assert driver.api_calls == calls + 1

    def test_a_stateful_driver_that_defines_a_row_method_is_refused(self):
        with pytest.raises(TypeError, match="domain_get_info"):

            class Overrider(QemuDriver):
                def domain_get_info(self, name):
                    return {}

    def test_the_counting_stubs_live_on_the_class_and_wrap_nothing(self):
        # the span recorder wraps what ``vars(StatefulDriver)`` holds, and
        # reads a ``__wrapped__`` as one of its own wrappers left installed
        served = {row.method for row in REMOTE_PROCEDURES if row.method is not None}
        assert served <= set(vars(StatefulDriver))
        assert not [name for name in served if hasattr(vars(StatefulDriver)[name], "__wrapped__")]
        assert StatefulDriver.domain_get_info.__qualname__ == "StatefulDriver.domain_get_info"
