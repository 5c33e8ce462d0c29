"""Domain checkpoint XML configuration.

Mirrors libvirt's ``<domaincheckpoint>`` document: the checkpoint
name, its parent, creation time, and one ``<disk>`` element per disk
recording the frozen bitmap's statistics.  Drivers emit this shape
from ``checkpoint_get_xml_desc``; :meth:`CheckpointConfig.from_xml`
round-trips it for tooling and tests.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import List, Optional

from repro.errors import XMLError
from repro.util.xmlutil import (
    child_text,
    escape_attr,
    escape_text,
    int_attr,
    parse_xml,
    require_attr,
    text_element,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9_.+:@-]+$")


class CheckpointDisk:
    """One ``<disk>`` row: which image, and how much its bitmap froze."""

    def __init__(
        self,
        name: str,
        bitmap: str,
        dirty_blocks: int = 0,
        block_size: int = 0,
    ) -> None:
        if not name:
            raise XMLError("checkpoint disk needs a name")
        self.name = name
        self.bitmap = bitmap
        self.dirty_blocks = dirty_blocks
        self.block_size = block_size

    def _xml(self) -> str:
        return (
            f'    <disk name="{escape_attr(self.name)}" checkpoint="bitmap"'
            f' bitmap="{escape_attr(self.bitmap)}" dirty-blocks="{self.dirty_blocks}"'
            f' block-size="{self.block_size}" />\n'
        )

    @staticmethod
    def from_element(elem: ET.Element) -> "CheckpointDisk":
        return CheckpointDisk(
            require_attr(elem, "name"),
            elem.get("bitmap", ""),
            int_attr(elem, "dirty-blocks", 0),
            int_attr(elem, "block-size", 0),
        )


class CheckpointConfig:
    """A ``<domaincheckpoint>`` document."""

    def __init__(
        self,
        name: str,
        parent: Optional[str] = None,
        creation_time: float = 0.0,
        state: str = "running",
        disks: Optional[List[CheckpointDisk]] = None,
        domain: Optional[str] = None,
    ) -> None:
        if not name or not _NAME_RE.match(name):
            raise XMLError(f"invalid checkpoint name {name!r}")
        self.name = name
        self.parent = parent
        self.creation_time = creation_time
        self.state = state
        self.disks = list(disks or [])
        self.domain = domain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointConfig(name={self.name!r}, parent={self.parent!r})"

    def to_xml(self) -> str:
        parent = (
            f"  <parent>\n    <name>{escape_text(self.parent)}</name>\n  </parent>\n"
            if self.parent
            else ""
        )
        domain = f"  <domain>{escape_text(self.domain)}</domain>\n" if self.domain else ""
        disks = "".join([disk._xml() for disk in self.disks])
        disks = f"  <disks>\n{disks}  </disks>\n" if disks else "  <disks />\n"
        return (
            f"<domaincheckpoint>\n  <name>{escape_text(self.name)}</name>\n"
            f"{parent}"
            f"  <creationTime>{int(self.creation_time)}</creationTime>\n"
            f"  {text_element('state', self.state)}\n"
            f"{domain}{disks}</domaincheckpoint>"
        )

    @staticmethod
    def from_xml(text: str) -> "CheckpointConfig":
        root = parse_xml(text)
        if root.tag != "domaincheckpoint":
            raise XMLError(f"expected <domaincheckpoint>, got <{root.tag}>")
        name = child_text(root, "name")
        if not name:
            raise XMLError("<domaincheckpoint> needs a <name>")
        parent = None
        parent_elem = root.find("parent")
        if parent_elem is not None:
            parent = child_text(parent_elem, "name")
        creation = float(child_text(root, "creationTime") or 0)
        state = child_text(root, "state") or "running"
        domain = child_text(root, "domain")
        disks = [
            CheckpointDisk.from_element(elem) for elem in root.findall("./disks/disk")
        ]
        return CheckpointConfig(name, parent, creation, state, disks, domain)

    @staticmethod
    def from_tree_checkpoint(checkpoint, domain: Optional[str] = None) -> "CheckpointConfig":
        """Build the XML view of a :class:`repro.checkpoint.Checkpoint`."""
        disks = [
            CheckpointDisk(
                path,
                bitmap=checkpoint.name,
                dirty_blocks=len(blocks),
                block_size=checkpoint.block_size,
            )
            for path, blocks in sorted(checkpoint.disks.items())
        ]
        return CheckpointConfig(
            checkpoint.name,
            checkpoint.parent,
            checkpoint.creation_time,
            checkpoint.state,
            disks,
            domain,
        )
