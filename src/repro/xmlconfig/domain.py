"""Domain (virtual machine) XML configuration.

Implements the core of libvirt's ``<domain>`` schema: identity, memory
and vCPU sizing, the OS boot block, lifecycle-event actions, features,
and the device tree (disks, network interfaces, graphics, consoles).

The document is hypervisor-agnostic: the same config can be defined on
any driver whose capabilities accept its ``type`` and architecture —
that uniformity is the paper's central claim.
"""

from __future__ import annotations

import functools
import re
import xml.etree.ElementTree as ET
from typing import Any, List, Optional, Sequence

from repro.errors import XMLError
from repro.util import uuidutil
from repro.util.units import UNIT_MULTIPLIERS
from repro.util.xmlutil import (
    child_text,
    escape_attr,
    escape_text,
    int_attr,
    int_text,
    parse_xml,
    require_attr,
)

#: domain/hypervisor types understood by the library
DOMAIN_TYPES = ("qemu", "kvm", "xen", "lxc", "esx", "test")

#: accepted values for lifecycle-event actions
LIFECYCLE_ACTIONS = ("destroy", "restart", "preserve", "rename-restart")

_NAME_RE = re.compile(r"^[A-Za-z0-9_.+:@-]+$")
_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")
#: a feature is written as a tag, so it must be an XML name (no prefix)
_FEATURE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")

# Formatting: each class writes its own, already indented, lines (``_xml``);
# ``str`` fields pass through an escaper, ``int`` fields are formatted as they
# are, and the bytes are ``ElementTree``'s (``tests/data/xml_golden/``).


class DiskDevice:
    """A ``<disk>`` element: a block device attached to the guest."""

    TYPES = ("file", "block", "volume")
    DEVICES = ("disk", "cdrom", "floppy")
    FORMATS = ("raw", "qcow2", "vmdk")
    BUSES = ("virtio", "ide", "scsi", "sata", "xen")

    def __init__(
        self,
        source: str,
        target_dev: str,
        disk_type: str = "file",
        device: str = "disk",
        driver_format: str = "qcow2",
        target_bus: str = "virtio",
        readonly: bool = False,
        capacity_bytes: int = 0,
    ) -> None:
        if disk_type not in self.TYPES:
            raise XMLError(f"unknown disk type {disk_type!r}")
        if device not in self.DEVICES:
            raise XMLError(f"unknown disk device {device!r}")
        if driver_format not in self.FORMATS:
            raise XMLError(f"unknown disk format {driver_format!r}")
        if target_bus not in self.BUSES:
            raise XMLError(f"unknown disk bus {target_bus!r}")
        if not target_dev:
            raise XMLError("disk target device name must be non-empty")
        self.source = source
        self.target_dev = target_dev
        self.disk_type = disk_type
        self.device = device
        self.driver_format = driver_format
        self.target_bus = target_bus
        self.readonly = readonly
        self.capacity_bytes = capacity_bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiskDevice):
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        return (
            self.source,
            self.target_dev,
            self.disk_type,
            self.device,
            self.driver_format,
            self.target_bus,
            self.readonly,
            self.capacity_bytes,
        )

    def _xml(self) -> str:
        source_attr = "file" if self.disk_type == "file" else (
            "dev" if self.disk_type == "block" else "volume"
        )
        capacity = readonly = ""
        if self.capacity_bytes:
            capacity = f'      <capacity unit="bytes">{self.capacity_bytes}</capacity>\n'
        if self.readonly:
            readonly = "      <readonly />\n"
        return (
            f'    <disk type="{escape_attr(self.disk_type)}"'
            f' device="{escape_attr(self.device)}">\n'
            f'      <driver name="sim" type="{escape_attr(self.driver_format)}" />\n'
            f'      <source {source_attr}="{escape_attr(self.source)}" />\n'
            f'      <target dev="{escape_attr(self.target_dev)}"'
            f' bus="{escape_attr(self.target_bus)}" />\n'
            f"{capacity}{readonly}"
            "    </disk>\n"
        )

    def to_element(self) -> ET.Element:
        return parse_xml(self._xml())

    @staticmethod
    def from_element(elem: ET.Element) -> "DiskDevice":
        disk_type = elem.get("type", "file")
        device = elem.get("device", "disk")
        driver = elem.find("driver")
        driver_format = driver.get("type", "qcow2") if driver is not None else "qcow2"
        source_elem = elem.find("source")
        if source_elem is None:
            raise XMLError("disk element lacks <source>")
        source = (
            source_elem.get("file")
            or source_elem.get("dev")
            or source_elem.get("volume")
            or ""
        )
        target = elem.find("target")
        if target is None:
            raise XMLError("disk element lacks <target>")
        capacity_elem = elem.find("capacity")
        capacity = int_text(capacity_elem) if capacity_elem is not None else 0
        return DiskDevice(
            source=source,
            target_dev=require_attr(target, "dev"),
            disk_type=disk_type,
            device=device,
            driver_format=driver_format,
            target_bus=target.get("bus", "virtio"),
            readonly=elem.find("readonly") is not None,
            capacity_bytes=capacity,
        )


class InterfaceDevice:
    """An ``<interface>`` element: a guest network adapter."""

    TYPES = ("network", "bridge", "user")
    MODELS = ("virtio", "e1000", "rtl8139", "netfront")

    def __init__(
        self,
        interface_type: str = "network",
        source: str = "default",
        mac: Optional[str] = None,
        model: str = "virtio",
    ) -> None:
        if interface_type not in self.TYPES:
            raise XMLError(f"unknown interface type {interface_type!r}")
        if model not in self.MODELS:
            raise XMLError(f"unknown interface model {model!r}")
        if mac is not None and not _MAC_RE.match(mac.lower()):
            raise XMLError(f"malformed MAC address {mac!r}")
        self.interface_type = interface_type
        # user-mode networking has no source element; normalize so the
        # document round-trips
        self.source = "default" if interface_type == "user" else source
        self.mac = mac.lower() if mac else None
        self.model = model

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterfaceDevice):
            return NotImplemented
        return (self.interface_type, self.source, self.mac, self.model) == (
            other.interface_type,
            other.source,
            other.mac,
            other.model,
        )

    def _xml(self) -> str:
        mac = f'      <mac address="{escape_attr(self.mac)}" />\n' if self.mac else ""
        source = ""
        if self.interface_type != "user":
            source_attr = "network" if self.interface_type == "network" else "bridge"
            source = f'      <source {source_attr}="{escape_attr(self.source)}" />\n'
        return (
            f'    <interface type="{escape_attr(self.interface_type)}">\n'
            f"{mac}{source}"
            f'      <model type="{escape_attr(self.model)}" />\n'
            "    </interface>\n"
        )

    def to_element(self) -> ET.Element:
        return parse_xml(self._xml())

    @staticmethod
    def from_element(elem: ET.Element) -> "InterfaceDevice":
        interface_type = elem.get("type", "network")
        mac_elem = elem.find("mac")
        mac = mac_elem.get("address") if mac_elem is not None else None
        source_elem = elem.find("source")
        if source_elem is not None:
            source = source_elem.get("network") or source_elem.get("bridge") or "default"
        else:
            source = "default"
        model_elem = elem.find("model")
        model = model_elem.get("type", "virtio") if model_elem is not None else "virtio"
        return InterfaceDevice(interface_type, source, mac, model)


class GraphicsDevice:
    """A ``<graphics>`` element (VNC/SPICE display)."""

    TYPES = ("vnc", "spice", "sdl")

    def __init__(self, graphics_type: str = "vnc", port: int = -1, autoport: bool = True) -> None:
        if graphics_type not in self.TYPES:
            raise XMLError(f"unknown graphics type {graphics_type!r}")
        self.graphics_type = graphics_type
        self.port = port
        self.autoport = autoport

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphicsDevice):
            return NotImplemented
        return (self.graphics_type, self.port, self.autoport) == (
            other.graphics_type,
            other.port,
            other.autoport,
        )

    def _xml(self) -> str:
        return (
            f'    <graphics type="{escape_attr(self.graphics_type)}" port="{self.port}"'
            f' autoport="{"yes" if self.autoport else "no"}" />\n'
        )

    @staticmethod
    def from_element(elem: ET.Element) -> "GraphicsDevice":
        return GraphicsDevice(
            graphics_type=elem.get("type", "vnc"),
            port=int_attr(elem, "port", -1),
            autoport=elem.get("autoport", "yes") == "yes",
        )


class ConsoleDevice:
    """A ``<console>`` element (serial console endpoint)."""

    TYPES = ("pty", "file")

    def __init__(self, console_type: str = "pty", target_port: int = 0) -> None:
        if console_type not in self.TYPES:
            raise XMLError(f"unknown console type {console_type!r}")
        self.console_type = console_type
        self.target_port = target_port

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConsoleDevice):
            return NotImplemented
        return (self.console_type, self.target_port) == (
            other.console_type,
            other.target_port,
        )

    def _xml(self) -> str:
        return (
            f'    <console type="{escape_attr(self.console_type)}">\n'
            f'      <target port="{self.target_port}" />\n'
            "    </console>\n"
        )

    @staticmethod
    def from_element(elem: ET.Element) -> "ConsoleDevice":
        target = elem.find("target")
        port = int_attr(target, "port", 0) if target is not None else 0
        return ConsoleDevice(elem.get("type", "pty"), port)


class OSConfig:
    """The ``<os>`` boot block."""

    OS_TYPES = ("hvm", "xen", "exe")
    ARCHES = ("x86_64", "i686", "aarch64")
    BOOT_DEVICES = ("hd", "cdrom", "network", "fd")

    def __init__(
        self,
        os_type: str = "hvm",
        arch: str = "x86_64",
        boot: Sequence[str] = ("hd",),
        init: Optional[str] = None,
    ) -> None:
        if os_type not in self.OS_TYPES:
            raise XMLError(f"unknown os type {os_type!r}")
        if arch not in self.ARCHES:
            raise XMLError(f"unknown architecture {arch!r}")
        for dev in boot:
            if dev not in self.BOOT_DEVICES:
                raise XMLError(f"unknown boot device {dev!r}")
        self.os_type = os_type
        self.arch = arch
        self.boot = list(boot)
        self.init = init  # container init binary (os_type == "exe")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OSConfig):
            return NotImplemented
        return (self.os_type, self.arch, self.boot, self.init) == (
            other.os_type,
            other.arch,
            other.boot,
            other.init,
        )

    def _xml(self) -> str:
        boot = "".join([f'    <boot dev="{escape_attr(dev)}" />\n' for dev in self.boot])
        init = f"    <init>{escape_text(self.init)}</init>\n" if self.init else ""
        return (
            "  <os>\n"
            f'    <type arch="{escape_attr(self.arch)}">{escape_text(self.os_type)}</type>\n'
            f"{boot}{init}"
            "  </os>\n"
        )

    @staticmethod
    def from_element(elem: ET.Element) -> "OSConfig":
        type_elem = elem.find("type")
        if type_elem is None or not type_elem.text:
            raise XMLError("<os> lacks a <type> element")
        boot = [require_attr(b, "dev") for b in elem.findall("boot")]
        return OSConfig(
            os_type=type_elem.text.strip(),
            arch=type_elem.get("arch", "x86_64"),
            boot=boot or ["hd"],
            init=child_text(elem, "init"),
        )


class DomainConfig:
    """A complete, validated ``<domain>`` document."""

    def __init__(
        self,
        name: str,
        domain_type: str = "test",
        uuid: Optional[str] = None,
        memory_kib: int = 1024 * 1024,
        current_memory_kib: Optional[int] = None,
        vcpus: int = 1,
        max_vcpus: Optional[int] = None,
        os: Optional[OSConfig] = None,
        disks: Optional[List[DiskDevice]] = None,
        interfaces: Optional[List[InterfaceDevice]] = None,
        graphics: Optional[List[GraphicsDevice]] = None,
        consoles: Optional[List[ConsoleDevice]] = None,
        features: Optional[List[str]] = None,
        on_poweroff: str = "destroy",
        on_reboot: str = "restart",
        on_crash: str = "destroy",
    ) -> None:
        self.name = name
        self.domain_type = domain_type
        self.uuid = uuidutil.normalize_uuid(uuid) if uuid else None
        self.memory_kib = memory_kib
        self.current_memory_kib = (
            current_memory_kib if current_memory_kib is not None else memory_kib
        )
        self.vcpus = vcpus
        self.max_vcpus = max_vcpus if max_vcpus is not None else vcpus
        self.os = os or OSConfig()
        self.disks = list(disks or [])
        self.interfaces = list(interfaces or [])
        self.graphics = list(graphics or [])
        self.consoles = list(consoles or [])
        self.features = list(features or [])
        self.on_poweroff = on_poweroff
        self.on_reboot = on_reboot
        self.on_crash = on_crash
        self.validate()

    # -- validation ---------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`XMLError` if the document is semantically invalid."""
        if not self.name or not _NAME_RE.match(self.name):
            raise XMLError(f"invalid domain name {self.name!r}")
        if self.domain_type not in DOMAIN_TYPES:
            raise XMLError(f"unknown domain type {self.domain_type!r}")
        if self.memory_kib <= 0:
            raise XMLError(f"domain memory must be positive, got {self.memory_kib}")
        if not 0 < self.current_memory_kib <= self.memory_kib:
            raise XMLError(
                f"current memory {self.current_memory_kib} out of range "
                f"(0, {self.memory_kib}]"
            )
        if self.vcpus < 1:
            raise XMLError(f"domain needs at least 1 vCPU, got {self.vcpus}")
        if self.max_vcpus < self.vcpus:
            raise XMLError(
                f"max vcpus {self.max_vcpus} below current vcpus {self.vcpus}"
            )
        for action in (self.on_poweroff, self.on_reboot, self.on_crash):
            if action not in LIFECYCLE_ACTIONS:
                raise XMLError(f"unknown lifecycle action {action!r}")
        targets = [d.target_dev for d in self.disks]
        if len(targets) != len(set(targets)):
            raise XMLError(f"duplicate disk target devices in {targets}")
        macs = [i.mac for i in self.interfaces if i.mac]
        if len(macs) != len(set(macs)):
            raise XMLError(f"duplicate interface MAC addresses in {macs}")
        for feature in self.features:
            if not _FEATURE_RE.fullmatch(feature):
                raise XMLError(f"invalid feature name {feature!r}")
        if self.domain_type == "lxc" and self.os.os_type != "exe":
            raise XMLError("lxc domains require os type 'exe'")
        if self.domain_type in ("qemu", "kvm", "esx", "test") and self.os.os_type != "hvm":
            raise XMLError(f"{self.domain_type} domains require os type 'hvm'")

    # -- equality -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainConfig):
            return NotImplemented
        return self.to_xml() == other.to_xml()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DomainConfig(name={self.name!r}, type={self.domain_type!r})"

    # -- serialization --------------------------------------------------

    def to_xml(self) -> str:
        """Format the config as a ``<domain>`` document."""
        uuid = f"  <uuid>{escape_text(self.uuid)}</uuid>\n" if self.uuid else ""
        features = "".join([f"    <{feature} />\n" for feature in self.features])
        if features:
            features = f"  <features>\n{features}  </features>\n"
        devices = "".join(
            [d._xml() for d in self.disks + self.interfaces + self.graphics + self.consoles]
        )
        devices = f"  <devices>\n{devices}  </devices>\n" if devices else "  <devices />\n"
        return (
            f'<domain type="{escape_attr(self.domain_type)}">\n'
            f"  <name>{escape_text(self.name)}</name>\n"
            f"{uuid}"
            f'  <memory unit="KiB">{self.memory_kib}</memory>\n'
            f'  <currentMemory unit="KiB">{self.current_memory_kib}</currentMemory>\n'
            f'  <vcpu current="{self.vcpus}">{self.max_vcpus}</vcpu>\n'
            f"{self.os._xml()}{features}"
            f"  <on_poweroff>{escape_text(self.on_poweroff)}</on_poweroff>\n"
            f"  <on_reboot>{escape_text(self.on_reboot)}</on_reboot>\n"
            f"  <on_crash>{escape_text(self.on_crash)}</on_crash>\n"
            f"{devices}</domain>"
        )

    @staticmethod
    def from_xml(text: str) -> "DomainConfig":
        """Parse and validate a ``<domain>`` document.

        A text seen before is not parsed again: the result is a private
        copy of what its first parse produced, so callers may mutate it.
        """
        if len(text) > _MEMO_MAX_CHARS:
            return DomainConfig._parse(text)
        return _remembered(text)._clone()

    @staticmethod
    def _parse(text: str) -> "DomainConfig":
        """One real parse: ``ElementTree``, extraction, construction, ``validate()``."""
        root = parse_xml(text)
        if root.tag != "domain":
            raise XMLError(f"expected <domain> root element, got <{root.tag}>")
        domain_type = require_attr(root, "type")
        name = child_text(root, "name")
        if not name:
            raise XMLError("domain lacks a <name>")
        memory = _parse_memory_element(root, "memory")
        if memory is None:
            raise XMLError("domain lacks a <memory> element")
        current = _parse_memory_element(root, "currentMemory")
        vcpu_elem = root.find("vcpu")
        if vcpu_elem is not None and vcpu_elem.text:
            max_vcpus = int_text(vcpu_elem)
            vcpus = int_attr(vcpu_elem, "current", max_vcpus)
        else:
            max_vcpus = vcpus = 1
        os_elem = root.find("os")
        os_config = OSConfig.from_element(os_elem) if os_elem is not None else OSConfig()
        features_elem = root.find("features")
        features = (
            [child.tag for child in features_elem] if features_elem is not None else []
        )
        devices_elem = root.find("devices")
        disks: List[DiskDevice] = []
        interfaces: List[InterfaceDevice] = []
        graphics: List[GraphicsDevice] = []
        consoles: List[ConsoleDevice] = []
        if devices_elem is not None:
            disks = [DiskDevice.from_element(e) for e in devices_elem.findall("disk")]
            interfaces = [
                InterfaceDevice.from_element(e)
                for e in devices_elem.findall("interface")
            ]
            graphics = [
                GraphicsDevice.from_element(e) for e in devices_elem.findall("graphics")
            ]
            consoles = [
                ConsoleDevice.from_element(e) for e in devices_elem.findall("console")
            ]
        return DomainConfig(
            name=name,
            domain_type=domain_type,
            uuid=child_text(root, "uuid"),
            memory_kib=memory,
            current_memory_kib=current,
            vcpus=vcpus,
            max_vcpus=max_vcpus,
            os=os_config,
            disks=disks,
            interfaces=interfaces,
            graphics=graphics,
            consoles=consoles,
            features=features,
            on_poweroff=child_text(root, "on_poweroff", "destroy"),
            on_reboot=child_text(root, "on_reboot", "restart"),
            on_crash=child_text(root, "on_crash", "destroy"),
        )

    def copy(self, **overrides: object) -> "DomainConfig":
        """A modified copy (used by migration/rename paths)."""
        config = self._clone()
        for key, value in overrides.items():
            if key not in config.__dict__:
                raise XMLError(f"unknown domain config field {key!r}")
            setattr(config, key, value)
        config.validate()
        return config

    def _clone(self) -> "DomainConfig":
        """A copy sharing no mutable object with ``self``; not re-validated
        (a copy of a validated state is that state)."""
        return _copy_instance(self)


# A document is remembered by its text: the same text is the same parse and a
# changed config is a different text, so an entry is never invalidated, only
# evicted (least recently used).  What is remembered is a template that never
# leaves this module; ``from_xml`` hands out ``_clone()``s of it, because
# ``StatefulDriver`` mutates configs in place.  Both bounds were measured
# (CHANGES.md, PR 24) and nothing sets them: an entry costs about four bytes a
# character (text + template; ~4 KiB for the ~1 Ki-character documents of the
# fixtures, ~4 MiB for a full memo of them), and a text over 8 Ki characters
# (a ~33-disk guest, a ~0.35 ms parse; the longest document in the corpus or a
# workload is 1.7 Ki) is parsed every time and not kept, so however large the
# documents a client sends a full memo pins about 32 MiB at most.
_MEMO_ENTRIES = 1024
_MEMO_MAX_CHARS = 8 * 1024
_remembered = functools.lru_cache(maxsize=_MEMO_ENTRIES)(DomainConfig._parse)

#: leaf values a clone shares with its template
_IMMUTABLE = frozenset((str, int, bool, type(None)))


def _copy_instance(obj: Any) -> Any:
    """Copy an instance ``__dict__`` by ``__dict__``, so a field added later is
    copied too: lists and instances are new, immutable leaves are shared."""
    new = object.__new__(type(obj))
    fields = new.__dict__
    for key, value in obj.__dict__.items():
        if type(value) is list:
            value = [v if type(v) in _IMMUTABLE else _copy_instance(v) for v in value]
        elif type(value) not in _IMMUTABLE:
            value = _copy_instance(value)
        fields[key] = value
    return new


def _parse_memory_element(root: ET.Element, tag: str) -> Optional[int]:
    """Read a ``<memory unit=...>`` style element into KiB, rounded up as
    libvirt rounds (``KiB`` and ``K`` are 1024, ``KB`` is 1000)."""
    elem = root.find(tag)
    if elem is None or not elem.text:
        return None
    unit = elem.get("unit", "KiB").lower()
    if unit not in UNIT_MULTIPLIERS:
        raise XMLError(f"unknown memory unit {unit!r} on <{tag}>")
    return -(-int_text(elem) * UNIT_MULTIPLIERS[unit] // 1024)
