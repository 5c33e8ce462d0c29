"""Storage pool and volume XML configuration."""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import XMLError
from repro.util import uuidutil
from repro.util.xmlutil import child_text, escape_attr, escape_text, int_child_text, parse_xml, require_attr

_NAME_RE = re.compile(r"^[A-Za-z0-9_.+:@-]+$")

POOL_TYPES = ("dir", "fs", "logical", "netfs")
VOLUME_FORMATS = ("raw", "qcow2", "vmdk")


class StoragePoolConfig:
    """A ``<pool>`` document: a container for storage volumes."""

    def __init__(
        self,
        name: str,
        pool_type: str = "dir",
        uuid: Optional[str] = None,
        target_path: Optional[str] = None,
        capacity_bytes: int = 100 * 1024**3,
    ) -> None:
        if not name or not _NAME_RE.match(name):
            raise XMLError(f"invalid pool name {name!r}")
        if pool_type not in POOL_TYPES:
            raise XMLError(f"unknown pool type {pool_type!r}")
        if capacity_bytes <= 0:
            raise XMLError(f"pool capacity must be positive, got {capacity_bytes}")
        self.name = name
        self.pool_type = pool_type
        self.uuid = uuidutil.normalize_uuid(uuid) if uuid else None
        self.target_path = target_path or f"/var/lib/pyvirt/images/{name}"
        if not self.target_path.startswith("/"):
            raise XMLError(f"pool target path must be absolute, got {target_path!r}")
        self.capacity_bytes = capacity_bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoragePoolConfig):
            return NotImplemented
        return self.to_xml() == other.to_xml()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoragePoolConfig(name={self.name!r}, type={self.pool_type!r})"

    def to_xml(self) -> str:
        uuid = f"  <uuid>{escape_text(self.uuid)}</uuid>\n" if self.uuid else ""
        return (
            f'<pool type="{escape_attr(self.pool_type)}">\n'
            f"  <name>{escape_text(self.name)}</name>\n"
            f"{uuid}"
            f'  <capacity unit="bytes">{self.capacity_bytes}</capacity>\n'
            "  <target>\n"
            f"    <path>{escape_text(self.target_path)}</path>\n"
            "  </target>\n"
            "</pool>"
        )

    @staticmethod
    def from_xml(text: str) -> "StoragePoolConfig":
        root = parse_xml(text)
        if root.tag != "pool":
            raise XMLError(f"expected <pool> root element, got <{root.tag}>")
        name = child_text(root, "name")
        if not name:
            raise XMLError("pool lacks a <name>")
        target = root.find("target")
        target_path = child_text(target, "path") if target is not None else None
        return StoragePoolConfig(
            name=name,
            pool_type=require_attr(root, "type"),
            uuid=child_text(root, "uuid"),
            target_path=target_path,
            capacity_bytes=int_child_text(root, "capacity", 100 * 1024**3),
        )


class VolumeConfig:
    """A ``<volume>`` document: one image inside a pool."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        allocation_bytes: Optional[int] = None,
        volume_format: str = "qcow2",
        backing_store: Optional[str] = None,
    ) -> None:
        if not name or "/" in name:
            raise XMLError(f"invalid volume name {name!r}")
        if capacity_bytes <= 0:
            raise XMLError(f"volume capacity must be positive, got {capacity_bytes}")
        if volume_format not in VOLUME_FORMATS:
            raise XMLError(f"unknown volume format {volume_format!r}")
        allocation = allocation_bytes if allocation_bytes is not None else (
            0 if volume_format == "qcow2" else capacity_bytes
        )
        if not 0 <= allocation <= capacity_bytes:
            raise XMLError(
                f"volume allocation {allocation} out of range [0, {capacity_bytes}]"
            )
        if backing_store is not None and volume_format == "raw":
            raise XMLError("raw volumes cannot have a backing store")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.allocation_bytes = allocation
        self.volume_format = volume_format
        self.backing_store = backing_store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VolumeConfig):
            return NotImplemented
        return self.to_xml() == other.to_xml()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VolumeConfig(name={self.name!r}, format={self.volume_format!r})"

    def to_xml(self) -> str:
        backing = (
            f"  <backingStore>\n    <path>{escape_text(self.backing_store)}</path>\n"
            "  </backingStore>\n"
            if self.backing_store
            else ""
        )
        return (
            f"<volume>\n  <name>{escape_text(self.name)}</name>\n"
            f'  <capacity unit="bytes">{self.capacity_bytes}</capacity>\n'
            f'  <allocation unit="bytes">{self.allocation_bytes}</allocation>\n'
            "  <target>\n"
            f'    <format type="{escape_attr(self.volume_format)}" />\n'
            "  </target>\n"
            f"{backing}"
            "</volume>"
        )

    @staticmethod
    def from_xml(text: str) -> "VolumeConfig":
        root = parse_xml(text)
        if root.tag != "volume":
            raise XMLError(f"expected <volume> root element, got <{root.tag}>")
        name = child_text(root, "name")
        if not name:
            raise XMLError("volume lacks a <name>")
        capacity = int_child_text(root, "capacity")
        if capacity is None:
            raise XMLError("volume lacks a <capacity>")
        target = root.find("target")
        volume_format = "qcow2"
        if target is not None:
            format_elem = target.find("format")
            if format_elem is not None:
                volume_format = format_elem.get("type", "qcow2")
        backing_elem = root.find("backingStore")
        backing = child_text(backing_elem, "path") if backing_elem is not None else None
        return VolumeConfig(
            name=name,
            capacity_bytes=capacity,
            allocation_bytes=int_child_text(root, "allocation"),
            volume_format=volume_format,
            backing_store=backing,
        )
