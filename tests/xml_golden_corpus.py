"""The configs behind ``tests/data/xml_golden/``.

One config per golden file, between them covering every document kind
and every optional branch of its formatter.  The files were written
once by ``tools/record_xml_golden.py`` from the ``ElementTree``-built
``to_xml()`` of PR 17; ``tests/test_xml_golden.py`` holds today's
``to_xml()`` to them byte for byte.
"""

import pathlib

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

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "xml_golden"

UUID = "123e4567-e89b-42d3-a456-426614174000"

#: every character either ElementTree escaper treats specially, plus ``'``
NASTY = "a&b<c>d\"e'f\ng\th"


def corpus() -> dict:
    """``{file name: config}`` — built fresh on every call."""
    return {
        "domain_minimal.xml": DomainConfig(name="bare"),
        "domain_full.xml": DomainConfig(
            name="web-1",
            domain_type="kvm",
            uuid=UUID,
            memory_kib=4 * 1024 * 1024,
            current_memory_kib=2 * 1024 * 1024,
            vcpus=2,
            max_vcpus=8,
            os=OSConfig("hvm", "aarch64", ["cdrom", "hd", "network"]),
            disks=[
                DiskDevice("/img/root.qcow2", "vda", capacity_bytes=20 * 1024**3),
                DiskDevice(
                    "/dev/vg0/data", "sdb", disk_type="block", driver_format="raw",
                    target_bus="scsi",
                ),
                DiskDevice(
                    "default/install.iso", "hdc", disk_type="volume", device="cdrom",
                    driver_format="raw", target_bus="ide", readonly=True,
                ),
            ],
            interfaces=[
                InterfaceDevice("network", "default", "52:54:00:AA:bb:01"),
                InterfaceDevice("bridge", "br0", None, "e1000"),
                InterfaceDevice("user", "ignored", "52:54:00:aa:bb:02", "rtl8139"),
            ],
            graphics=[GraphicsDevice("vnc"), GraphicsDevice("spice", 5901, False)],
            consoles=[ConsoleDevice("pty", 0), ConsoleDevice("file", 1)],
            features=["acpi", "apic", "pae"],
            on_poweroff="preserve",
            on_reboot="rename-restart",
            on_crash="restart",
        ),
        "domain_container.xml": DomainConfig(
            name="ct-1",
            domain_type="lxc",
            uuid=UUID,
            memory_kib=65536,
            os=OSConfig("exe", "x86_64", ["hd"], init="/sbin/init"),
            consoles=[ConsoleDevice()],
        ),
        "domain_escapes.xml": DomainConfig(
            name="esc",
            domain_type="lxc",
            os=OSConfig("exe", init=f"/bin/{NASTY} --x"),
            disks=[
                DiskDevice(f"/img/{NASTY}\r.img", "vda"),
                DiskDevice(pathlib.Path("/img/p&q/disk.img"), "vdb", readonly=True),
            ],
            interfaces=[InterfaceDevice("bridge", f"br-{NASTY}\r")],
        ),
        "network_nat_dhcp.xml": NetworkConfig(
            "default",
            uuid=UUID,
            ip=IPConfig(
                "192.168.122.1", "255.255.255.0",
                DHCPRange("192.168.122.2", "192.168.122.254"),
            ),
        ),
        "network_route_static.xml": NetworkConfig(
            "routed", bridge="br1", forward_mode="route",
            ip=IPConfig("10.9.0.1", "255.255.0.0"),
        ),
        "network_isolated.xml": NetworkConfig("island", forward_mode="isolated"),
        "network_escapes.xml": NetworkConfig(
            "esc", bridge=f"br-{NASTY}\r", forward_mode="bridge"
        ),
        "pool_dir.xml": StoragePoolConfig("default"),
        "pool_logical_uuid.xml": StoragePoolConfig(
            "vg0", "logical", UUID, "/dev/vg0", 5 * 1024**4
        ),
        "pool_escapes.xml": StoragePoolConfig("esc", target_path=f"/srv/{NASTY}/pool"),
        "volume_raw.xml": VolumeConfig("data.img", 1024**3, volume_format="raw"),
        "volume_backing.xml": VolumeConfig(
            "overlay.qcow2", 10 * 1024**3, 4096, "qcow2", "/img/base.qcow2"
        ),
        "volume_escapes.xml": VolumeConfig(
            f"v {NASTY}", 1, backing_store=f"/img/{NASTY}.qcow2"
        ),
        "checkpoint_root.xml": CheckpointConfig("cp0"),
        "checkpoint_child.xml": CheckpointConfig(
            "cp1",
            parent="cp0",
            creation_time=1700000000.75,
            state="paused",
            disks=[
                CheckpointDisk("/img/root.qcow2", "cp1", 17, 65536),
                CheckpointDisk(f"/img/{NASTY}.img", f"bm {NASTY}"),
            ],
            domain="web-1",
        ),
        "capabilities_numa.xml": Capabilities(
            HostCapability(
                UUID, "x86_64", "sim-epyc", sockets=2, cores=8, threads=2,
                memory_kib=64 * 1024 * 1024, mhz=3000, numa_cells=2,
            ),
            [
                GuestCapability("hvm", "x86_64", ["qemu", "kvm"], "/usr/bin/sim-qemu"),
                GuestCapability("hvm", "i686", ["qemu"], max_vcpus=16),
                GuestCapability("exe", "x86_64", ["lxc"]),
            ],
        ),
        "capabilities_bare.xml": Capabilities(HostCapability(UUID)),
        "capabilities_escapes.xml": Capabilities(
            HostCapability(UUID, cpu_model=f"sim {NASTY}"),
            [GuestCapability("hvm", "x86_64", ["test"], f"/usr/bin/{NASTY}")],
        ),
    }
