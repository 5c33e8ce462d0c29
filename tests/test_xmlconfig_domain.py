"""Tests for domain XML configuration (repro.xmlconfig.domain)."""

import pytest

from repro.errors import XMLError
from repro.util.xmlutil import element_to_string
from repro.xmlconfig.domain import (
    ConsoleDevice,
    DiskDevice,
    DomainConfig,
    GraphicsDevice,
    InterfaceDevice,
    OSConfig,
)


def full_config(**overrides):
    defaults = dict(
        name="web1",
        domain_type="kvm",
        uuid="123e4567-e89b-42d3-a456-426614174000",
        memory_kib=2 * 1024 * 1024,
        current_memory_kib=1024 * 1024,
        vcpus=2,
        max_vcpus=4,
        os=OSConfig("hvm", "x86_64", ["hd", "network"]),
        disks=[
            DiskDevice("/var/lib/img/web1.qcow2", "vda", capacity_bytes=10 * 1024**3),
            DiskDevice("/iso/install.iso", "hdc", device="cdrom", driver_format="raw",
                       target_bus="ide", readonly=True),
        ],
        interfaces=[InterfaceDevice("network", "default", "52:54:00:aa:bb:cc")],
        graphics=[GraphicsDevice("vnc", port=5901, autoport=False)],
        consoles=[ConsoleDevice("pty", 0)],
        features=["acpi", "apic"],
    )
    defaults.update(overrides)
    return DomainConfig(**defaults)


class TestValidation:
    def test_minimal_config_valid(self):
        cfg = DomainConfig(name="d")
        assert cfg.vcpus == 1
        assert cfg.current_memory_kib == cfg.memory_kib

    @pytest.mark.parametrize("bad_name", ["", "has space", "semi;colon", "sla/sh"])
    def test_bad_names_rejected(self, bad_name):
        with pytest.raises(XMLError):
            DomainConfig(name=bad_name)

    def test_unknown_type_rejected(self):
        with pytest.raises(XMLError):
            DomainConfig(name="d", domain_type="hyperwave")

    def test_non_positive_memory_rejected(self):
        with pytest.raises(XMLError):
            DomainConfig(name="d", memory_kib=0)

    def test_current_memory_above_max_rejected(self):
        with pytest.raises(XMLError):
            DomainConfig(name="d", memory_kib=1024, current_memory_kib=2048)

    def test_zero_vcpus_rejected(self):
        with pytest.raises(XMLError):
            DomainConfig(name="d", vcpus=0)

    def test_max_vcpus_below_current_rejected(self):
        with pytest.raises(XMLError):
            DomainConfig(name="d", vcpus=4, max_vcpus=2)

    def test_duplicate_disk_targets_rejected(self):
        disks = [DiskDevice("/a.img", "vda"), DiskDevice("/b.img", "vda")]
        with pytest.raises(XMLError, match="duplicate disk target"):
            DomainConfig(name="d", disks=disks)

    def test_duplicate_macs_rejected(self):
        mac = "52:54:00:00:00:01"
        ifaces = [InterfaceDevice(mac=mac), InterfaceDevice(mac=mac)]
        with pytest.raises(XMLError, match="duplicate interface MAC"):
            DomainConfig(name="d", interfaces=ifaces)

    def test_lxc_requires_exe_os(self):
        with pytest.raises(XMLError, match="os type 'exe'"):
            DomainConfig(name="c", domain_type="lxc")
        DomainConfig(name="c", domain_type="lxc", os=OSConfig("exe", "x86_64", [], init="/sbin/init"))

    def test_kvm_requires_hvm_os(self):
        with pytest.raises(XMLError, match="os type 'hvm'"):
            DomainConfig(name="d", domain_type="kvm", os=OSConfig("exe", "x86_64", []))

    def test_unknown_lifecycle_action_rejected(self):
        with pytest.raises(XMLError):
            DomainConfig(name="d", on_crash="explode")

    def test_bad_uuid_rejected(self):
        with pytest.raises(ValueError):
            DomainConfig(name="d", uuid="not-a-uuid")


class TestDevices:
    def test_disk_rejects_unknown_bits(self):
        with pytest.raises(XMLError):
            DiskDevice("/a", "vda", disk_type="tape")
        with pytest.raises(XMLError):
            DiskDevice("/a", "vda", device="punchcard")
        with pytest.raises(XMLError):
            DiskDevice("/a", "vda", driver_format="gif")
        with pytest.raises(XMLError):
            DiskDevice("/a", "vda", target_bus="usb4")
        with pytest.raises(XMLError):
            DiskDevice("/a", "")

    def test_interface_mac_validation(self):
        InterfaceDevice(mac="52:54:00:AA:BB:CC")  # upper ok, normalized
        with pytest.raises(XMLError):
            InterfaceDevice(mac="52:54:00:aa:bb")
        with pytest.raises(XMLError):
            InterfaceDevice(interface_type="token-ring")

    def test_interface_mac_normalized_to_lowercase(self):
        iface = InterfaceDevice(mac="52:54:00:AA:BB:CC")
        assert iface.mac == "52:54:00:aa:bb:cc"

    def test_graphics_and_console_validation(self):
        with pytest.raises(XMLError):
            GraphicsDevice("hologram")
        with pytest.raises(XMLError):
            ConsoleDevice("telegraph")

    def test_os_config_validation(self):
        with pytest.raises(XMLError):
            OSConfig(os_type="dos")
        with pytest.raises(XMLError):
            OSConfig(arch="vax")
        with pytest.raises(XMLError):
            OSConfig(boot=["tape"])


class TestRoundTrip:
    def test_full_config_round_trips(self):
        cfg = full_config()
        rebuilt = DomainConfig.from_xml(cfg.to_xml())
        assert rebuilt == cfg
        assert rebuilt.disks == cfg.disks
        assert rebuilt.interfaces == cfg.interfaces
        assert rebuilt.graphics == cfg.graphics
        assert rebuilt.consoles == cfg.consoles
        assert rebuilt.features == cfg.features

    def test_minimal_config_round_trips(self):
        cfg = DomainConfig(name="tiny")
        assert DomainConfig.from_xml(cfg.to_xml()) == cfg

    def test_lxc_config_round_trips(self):
        cfg = DomainConfig(
            name="ct1",
            domain_type="lxc",
            os=OSConfig("exe", "x86_64", [], init="/bin/sh"),
        )
        rebuilt = DomainConfig.from_xml(cfg.to_xml())
        assert rebuilt.os.init == "/bin/sh"

    def test_xml_contains_expected_elements(self):
        xml = full_config().to_xml()
        for snippet in (
            '<domain type="kvm">',
            "<name>web1</name>",
            '<memory unit="KiB">2097152</memory>',
            '<vcpu current="2">4</vcpu>',
            '<boot dev="hd" />',
            '<target dev="vda" bus="virtio" />',
            "<acpi />",
        ):
            assert snippet in xml


class TestParsing:
    def test_memory_units_converted(self):
        xml = (
            '<domain type="test"><name>d</name>'
            '<memory unit="GiB">2</memory>'
            "<os><type arch='x86_64'>hvm</type></os></domain>"
        )
        cfg = DomainConfig.from_xml(xml)
        assert cfg.memory_kib == 2 * 1024 * 1024

    def test_bytes_unit_converted(self):
        xml = (
            '<domain type="test"><name>d</name>'
            '<memory unit="bytes">2097152</memory>'
            "<os><type arch='x86_64'>hvm</type></os></domain>"
        )
        assert DomainConfig.from_xml(xml).memory_kib == 2048

    def test_unknown_memory_unit_rejected(self):
        xml = (
            '<domain type="test"><name>d</name>'
            '<memory unit="floppies">3</memory>'
            "<os><type>hvm</type></os></domain>"
        )
        with pytest.raises(XMLError, match="unknown memory unit"):
            DomainConfig.from_xml(xml)

    @pytest.mark.parametrize(
        "unit, value, kib",
        [
            # per unit: a value that is a whole number of KiB, and one that is
            # not (libvirt rounds up to the next KiB)
            ("b", 2048, 2), ("b", 1000, 1), ("bytes", 1024**3 + 1, 1024**2 + 1),
            ("KiB", 7, 7), ("k", 7, 7),
            ("KB", 128, 125), ("KB", 1, 1), ("kb", 1025, 1001),
            ("MiB", 3, 3 * 1024), ("M", 3, 3 * 1024),
            ("MB", 128, 125_000), ("MB", 1, 977),
            ("GiB", 2, 2 * 1024**2), ("G", 2, 2 * 1024**2),
            ("GB", 128, 125_000_000), ("GB", 1, 976_563),
            ("TiB", 1, 1024**3), ("T", 1, 1024**3),
            ("TB", 128, 125_000_000_000), ("TB", 1, 976_562_500),
            ("PiB", 1, 1024**4), ("PB", 1, 976_562_500_000),
        ],
    )
    def test_memory_units_as_libvirt_reads_them(self, unit, value, kib):
        xml = (
            f'<domain type="test"><name>d</name><memory unit="{unit}">{value}</memory>'
            f'<currentMemory unit="{unit}">{value}</currentMemory></domain>'
        )
        cfg = DomainConfig.from_xml(xml)
        assert (cfg.memory_kib, cfg.current_memory_kib) == (kib, kib)
        assert f'<memory unit="KiB">{kib}</memory>' in cfg.to_xml()
        assert f'<currentMemory unit="KiB">{kib}</currentMemory>' in cfg.to_xml()

    def test_current_memory_rounds_up_on_its_own(self):
        xml = (
            '<domain type="test"><name>d</name><memory unit="MiB">1</memory>'
            '<currentMemory unit="b">1048575</currentMemory></domain>'
        )
        cfg = DomainConfig.from_xml(xml)
        assert (cfg.memory_kib, cfg.current_memory_kib) == (1024, 1024)

    def test_unknown_current_memory_unit_rejected(self):
        xml = (
            '<domain type="test"><name>d</name><memory>1024</memory>'
            '<currentMemory unit="KBs">1</currentMemory></domain>'
        )
        with pytest.raises(XMLError, match="unknown memory unit 'kbs' on <currentMemory>"):
            DomainConfig.from_xml(xml)

    def test_wrong_root_element_rejected(self):
        with pytest.raises(XMLError, match="expected <domain>"):
            DomainConfig.from_xml("<network><name>n</name></network>")

    def test_missing_name_rejected(self):
        with pytest.raises(XMLError, match="lacks a <name>"):
            DomainConfig.from_xml('<domain type="test"><memory>1</memory></domain>')

    def test_missing_memory_rejected(self):
        with pytest.raises(XMLError, match="lacks a <memory>"):
            DomainConfig.from_xml('<domain type="test"><name>d</name></domain>')

    def test_malformed_xml_rejected(self):
        with pytest.raises(XMLError, match="malformed"):
            DomainConfig.from_xml("<domain><name>")

    def test_defaults_applied_when_optional_elements_absent(self):
        xml = (
            '<domain type="test"><name>d</name><memory>1024</memory></domain>'
        )
        cfg = DomainConfig.from_xml(xml)
        assert cfg.vcpus == 1
        assert cfg.os.os_type == "hvm"
        assert cfg.on_reboot == "restart"


class TestCopy:
    def test_copy_is_deep(self):
        cfg = full_config()
        clone = cfg.copy()
        assert clone == cfg
        clone.disks.append(DiskDevice("/c.img", "vdb"))
        assert len(cfg.disks) == 2  # original untouched

    def test_copy_with_overrides(self):
        clone = full_config().copy(name="web2", vcpus=1)
        assert clone.name == "web2"
        assert clone.vcpus == 1

    def test_copy_validates_overrides(self):
        with pytest.raises(XMLError):
            full_config().copy(vcpus=0)
        with pytest.raises(XMLError):
            full_config().copy(nonexistent_field=1)

    @pytest.mark.parametrize(
        "overrides",
        [{"to_xml": lambda: "oops"}, {"validate": None}, {"copy": None}, {"__class__": object}],
    )
    def test_copy_overrides_must_name_a_field(self, overrides):
        """``hasattr`` used to admit methods: ``to_xml=`` replaced the
        writer and ``validate=None`` died with ``TypeError``."""
        cfg = full_config()
        with pytest.raises(XMLError, match="unknown domain config field"):
            cfg.copy(**overrides)
        assert cfg == full_config()


def _doc(extra="", vcpu='<vcpu current="1">1</vcpu>', devices=""):
    return (
        f'<domain type="test"><name>d</name><memory>1024</memory>{vcpu}{extra}'
        f"<devices>{devices}</devices></domain>"
    )


def _disk(capacity):
    return (
        f'<disk type="file" device="disk"><source file="/a.img" />'
        f'<target dev="vda" bus="virtio" />{capacity}</disk>'
    )


class TestMalformedIntegers:
    """A non-integer where the schema wants one is an XMLError, never a bare
    ValueError/TypeError (which a daemon would report as an internal error)."""

    @pytest.mark.parametrize(
        "xml, element",
        [
            (_doc(vcpu='<vcpu current="1">one</vcpu>'), "<vcpu>"),
            (_doc(vcpu='<vcpu current="x">2</vcpu>'), "<vcpu>"),
            (_doc(devices=_disk('<capacity unit="bytes">five</capacity>')), "<capacity>"),
            (_doc(devices=_disk('<capacity unit="bytes" />')), "<capacity>"),
            (_doc(devices='<graphics type="vnc" port="auto" />'), "<graphics>"),
            (_doc(devices='<console type="pty"><target port="p" /></console>'), "<target>"),
            (_doc().replace("<memory>1024", "<memory>lots"), "<memory>"),
        ],
    )
    def test_domain_document(self, xml, element):
        with pytest.raises(XMLError, match=element):
            DomainConfig.from_xml(xml)

    def test_well_formed_integers_still_parse(self):
        cfg = DomainConfig.from_xml(
            _doc(vcpu='<vcpu current=" 2 "> 4 </vcpu>',
                 devices=_disk('<capacity unit="bytes"> 4096 </capacity>'))
        )
        assert (cfg.vcpus, cfg.max_vcpus, cfg.disks[0].capacity_bytes) == (2, 4, 4096)


class TestFeatureNames:
    """Features are written as tag names, so they must be XML names."""

    @pytest.mark.parametrize(
        "feature", ["a b", "x><y", "", "1st", "a/b", 'a"b', "ns:tag", "acpi\n", "<!--"]
    )
    def test_invalid_feature_rejected_at_construction(self, feature):
        with pytest.raises(XMLError, match="invalid feature name"):
            DomainConfig(name="a", features=[feature])

    def test_invalid_feature_rejected_by_copy_and_validate(self):
        cfg = DomainConfig(name="a", features=["acpi"])
        with pytest.raises(XMLError, match="invalid feature name"):
            cfg.copy(features=["x><y"])
        cfg.features.append("a b")
        with pytest.raises(XMLError, match="invalid feature name"):
            cfg.validate()

    def test_namespaced_feature_rejected_by_from_xml(self):
        xml = _doc(extra='<features><x:f xmlns:x="urn:x" /></features>')
        with pytest.raises(XMLError, match="invalid feature name"):
            DomainConfig.from_xml(xml)

    def test_xml_names_accepted_and_round_trip(self):
        cfg = DomainConfig(name="a", features=["acpi", "hyper-v", "_x", "vm.port", "Pae2"])
        assert "    <hyper-v />\n" in cfg.to_xml()
        assert DomainConfig.from_xml(cfg.to_xml()).features == cfg.features


class TestDeviceElements:
    """to_element() is parse_xml of what the writer wrote: one source of truth."""

    @pytest.mark.parametrize(
        "device",
        [
            DiskDevice("/a&b.img", "vda", capacity_bytes=7, readonly=True),
            DiskDevice("/dev/sdb", "sdb", disk_type="block", driver_format="raw"),
            InterfaceDevice("bridge", 'br"0', "52:54:00:00:00:01", "e1000"),
            InterfaceDevice("user"),
        ],
    )
    def test_element_round_trips_and_matches_the_document(self, device):
        elem = device.to_element()
        assert type(device).from_element(elem) == device
        lines = element_to_string(elem).splitlines()
        if isinstance(device, DiskDevice):
            document = DomainConfig(name="d", disks=[device]).to_xml()
        else:
            document = DomainConfig(name="d", interfaces=[device]).to_xml()
        assert "\n".join("    " + line for line in lines) in document
