"""Property-based tests: XML configuration round-trip invariants."""

import xml.etree.ElementTree as ET

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.util.xmlutil import parse_xml
from repro.xmlconfig.capabilities import Capabilities, GuestCapability, HostCapability
from repro.xmlconfig.checkpoint import CheckpointConfig, CheckpointDisk
from repro.xmlconfig.domain import (
    ConsoleDevice,
    DiskDevice,
    DomainConfig,
    GraphicsDevice,
    InterfaceDevice,
    OSConfig,
)
from repro.xmlconfig.network import DHCPRange, IPConfig, NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

# -- strategies -----------------------------------------------------------

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.",
    min_size=1,
    max_size=30,
)

# free text: XML metacharacters, quotes and whitespace among ordinary characters
_FREE = "abcXYZ019 /._-&<>\"'\n\t"
#: an attribute value survives a round trip whole, CR and edge whitespace included
attr_text = st.text(alphabet=_FREE + "\ré☃", min_size=1, max_size=20)
#: element text is stripped by the parsers, and any XML parser turns CR into LF
elem_text = st.text(alphabet=_FREE + "é☃", min_size=1, max_size=20).map(str.strip).filter(bool)

hexdigits = "0123456789abcdef"


@st.composite
def uuids(draw):
    digits = draw(st.lists(st.sampled_from(hexdigits), min_size=32, max_size=32))
    raw = "".join(digits)
    return f"{raw[:8]}-{raw[8:12]}-{raw[12:16]}-{raw[16:20]}-{raw[20:]}"


@st.composite
def macs(draw):
    octets = draw(st.lists(st.integers(0, 255), min_size=6, max_size=6))
    return ":".join(f"{o:02x}" for o in octets)


@st.composite
def disks(draw, index):
    return DiskDevice(
        source=f"/img/{draw(attr_text)}.img",
        target_dev=f"vd{chr(97 + index)}",
        disk_type=draw(st.sampled_from(DiskDevice.TYPES)),
        device=draw(st.sampled_from(DiskDevice.DEVICES)),
        driver_format=draw(st.sampled_from(DiskDevice.FORMATS)),
        target_bus=draw(st.sampled_from(DiskDevice.BUSES)),
        readonly=draw(st.booleans()),
        capacity_bytes=draw(st.integers(0, 2**40)),
    )


@st.composite
def domain_configs(draw):
    memory = draw(st.integers(1024, 64 * 1024 * 1024))
    vcpus = draw(st.integers(1, 32))
    n_disks = draw(st.integers(0, 4))
    disk_list = [draw(disks(i)) for i in range(n_disks)]
    mac_list = draw(st.lists(macs(), max_size=3, unique=True))
    interfaces = [
        InterfaceDevice(
            draw(st.sampled_from(InterfaceDevice.TYPES)),
            draw(attr_text),
            mac,
            draw(st.sampled_from(InterfaceDevice.MODELS)),
        )
        for mac in mac_list
    ]
    container = draw(st.booleans())
    return DomainConfig(
        name=draw(names),
        domain_type="lxc" if container else draw(st.sampled_from(("qemu", "kvm", "esx", "test"))),
        uuid=draw(st.one_of(st.none(), uuids())),
        memory_kib=memory,
        current_memory_kib=draw(st.integers(1, memory)),
        vcpus=vcpus,
        max_vcpus=draw(st.integers(vcpus, 64)),
        os=OSConfig(
            "exe" if container else "hvm",
            draw(st.sampled_from(OSConfig.ARCHES)),
            draw(st.lists(st.sampled_from(OSConfig.BOOT_DEVICES), min_size=1, max_size=3)),
            init=draw(st.one_of(st.none(), elem_text)) if container else None,
        ),
        disks=disk_list,
        interfaces=interfaces,
        graphics=[
            GraphicsDevice(
                draw(st.sampled_from(GraphicsDevice.TYPES)),
                draw(st.integers(-1, 65535)),
                draw(st.booleans()),
            )
        ]
        if draw(st.booleans())
        else [],
        consoles=[ConsoleDevice("pty", draw(st.integers(0, 4)))]
        if draw(st.booleans())
        else [],
        features=draw(
            st.lists(st.sampled_from(["acpi", "apic", "pae", "hyper-v", "_x.y"]), unique=True)
        ),
        on_poweroff=draw(st.sampled_from(("destroy", "restart", "preserve"))),
        on_reboot=draw(st.sampled_from(("destroy", "restart"))),
        on_crash=draw(st.sampled_from(("destroy", "restart", "preserve"))),
    )


class TestDomainRoundTrip:
    @given(domain_configs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_identity(self, config):
        rebuilt = DomainConfig.from_xml(config.to_xml())
        assert rebuilt == config
        # and a second pass is a fixed point
        assert DomainConfig.from_xml(rebuilt.to_xml()) == rebuilt

    @given(domain_configs())
    @settings(max_examples=50, deadline=None)
    def test_copy_preserves_equality(self, config):
        assert config.copy() == config

    @given(domain_configs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_devices(self, config):
        rebuilt = DomainConfig.from_xml(config.to_xml())
        assert rebuilt.disks == config.disks
        assert rebuilt.interfaces == config.interfaces
        assert rebuilt.graphics == config.graphics
        assert rebuilt.consoles == config.consoles


@st.composite
def network_configs(draw):
    base = draw(st.integers(1, 220))
    ip = None
    if draw(st.booleans()):
        dhcp = None
        if draw(st.booleans()):
            lo, hi = sorted([draw(st.integers(2, 120)), draw(st.integers(121, 254))])
            dhcp = DHCPRange(f"10.{base}.0.{lo}", f"10.{base}.0.{hi}")
        ip = IPConfig(f"10.{base}.0.1", "255.255.255.0", dhcp)
    return NetworkConfig(
        name=draw(names),
        uuid=draw(st.one_of(st.none(), uuids())),
        bridge=draw(st.one_of(st.none(), attr_text.map(lambda n: f"br-{n}"))),
        forward_mode=draw(st.sampled_from(("nat", "route", "bridge", "isolated"))),
        ip=ip,
    )


class TestNetworkRoundTrip:
    @given(network_configs())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_identity(self, config):
        assert NetworkConfig.from_xml(config.to_xml()) == config


@st.composite
def pool_configs(draw):
    return StoragePoolConfig(
        name=draw(names),
        pool_type=draw(st.sampled_from(("dir", "fs", "logical", "netfs"))),
        uuid=draw(st.one_of(st.none(), uuids())),
        target_path=f"/srv/{draw(elem_text)}",
        capacity_bytes=draw(st.integers(1, 2**50)),
    )


@st.composite
def volume_configs(draw):
    capacity = draw(st.integers(1, 2**45))
    fmt = draw(st.sampled_from(("raw", "qcow2", "vmdk")))
    return VolumeConfig(
        name=draw(names),
        capacity_bytes=capacity,
        allocation_bytes=draw(st.integers(0, capacity)),
        volume_format=fmt,
        backing_store=(
            f"/img/{draw(elem_text)}" if fmt != "raw" and draw(st.booleans()) else None
        ),
    )


class TestStorageRoundTrip:
    @given(pool_configs())
    @settings(max_examples=100, deadline=None)
    def test_pool_round_trip(self, config):
        assert StoragePoolConfig.from_xml(config.to_xml()) == config

    @given(volume_configs())
    @settings(max_examples=100, deadline=None)
    def test_volume_round_trip(self, config):
        assert VolumeConfig.from_xml(config.to_xml()) == config


@st.composite
def checkpoint_configs(draw):
    return CheckpointConfig(
        name=draw(names),
        parent=draw(st.one_of(st.none(), names)),
        creation_time=draw(st.floats(0, 4e9)),
        state=draw(st.one_of(st.sampled_from(("running", "paused", "")), elem_text)),
        disks=draw(
            st.lists(
                st.builds(
                    CheckpointDisk, attr_text, attr_text,
                    st.integers(0, 2**40), st.integers(0, 2**20),
                ),
                max_size=3,
            )
        ),
        domain=draw(st.one_of(st.none(), names)),
    )


@st.composite
def capabilities(draw):
    host = HostCapability(
        uuid=draw(uuids()),
        arch=draw(st.sampled_from(OSConfig.ARCHES)),
        cpu_model=draw(elem_text),
        sockets=draw(st.integers(1, 4)),
        cores=draw(st.integers(1, 16)),
        threads=draw(st.integers(1, 2)),
        memory_kib=draw(st.integers(1024, 2**34)),
        mhz=draw(st.integers(1, 6000)),
        numa_cells=draw(st.integers(1, 4)),
    )
    guests = [
        GuestCapability(
            draw(st.sampled_from(OSConfig.OS_TYPES)),
            draw(st.sampled_from(OSConfig.ARCHES)),
            draw(st.lists(st.sampled_from(("qemu", "kvm", "lxc", "test")), min_size=1, unique=True)),
            emulator=draw(st.one_of(st.none(), elem_text.map(lambda t: f"/usr/bin/{t}"))),
            max_vcpus=draw(st.integers(1, 512)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return Capabilities(host, guests)


class TestCheckpointAndCapabilitiesRoundTrip:
    @given(checkpoint_configs())
    @settings(max_examples=100, deadline=None)
    def test_checkpoint_round_trip(self, config):
        assume(config.state)  # an empty <state /> parses as the default, "running"
        # no __eq__ on checkpoints: the document is the identity
        assert CheckpointConfig.from_xml(config.to_xml()).to_xml() == config.to_xml()

    @given(capabilities())
    @settings(max_examples=100, deadline=None)
    def test_capabilities_round_trip(self, config):
        assert Capabilities.from_xml(config.to_xml()) == config


any_config = st.one_of(
    domain_configs(), network_configs(), pool_configs(), volume_configs(),
    checkpoint_configs(), capabilities(),
)


def assert_written_as_elementtree_writes(config):
    """The document equals what this interpreter's ElementTree serialises for its tree."""
    root = parse_xml(config.to_xml())
    ET.indent(root)
    assert config.to_xml() == ET.tostring(root, encoding="unicode")


class TestWriterMatchesElementTree:
    """Every to_xml() is exactly what ElementTree would write for the same
    tree — on whichever interpreter runs this, so an escaping difference
    between Python versions is a red test, not a moved wire_bytes_per_op."""

    @given(any_config)
    @settings(max_examples=300, deadline=None)
    def test_documents_equal_elementtree_output(self, config):
        assert_written_as_elementtree_writes(config)

    @pytest.mark.slow
    @given(any_config)
    @settings(max_examples=2000, deadline=None)
    def test_documents_equal_elementtree_output_soak(self, config):
        assert_written_as_elementtree_writes(config)
