"""Host/guest capabilities XML (``<capabilities>`` documents).

Capabilities are how a management tool discovers — uniformly, before
creating anything — what a connection can do: the host's topology and
the guest types (os type × architecture × domain type) the hypervisor
can run.  The paper's feature-matrix table is generated from these.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import List, Optional, Sequence

from repro.errors import XMLError
from repro.util.xmlutil import (
    child_text,
    escape_attr,
    escape_text,
    int_attr,
    int_child_text,
    parse_xml,
    require_attr,
    text_element,
)


class HostCapability:
    """The ``<host>`` block: physical node identity and topology."""

    def __init__(
        self,
        uuid: str,
        arch: str = "x86_64",
        cpu_model: str = "sim-core",
        sockets: int = 1,
        cores: int = 4,
        threads: int = 1,
        memory_kib: int = 16 * 1024 * 1024,
        mhz: int = 2400,
        numa_cells: int = 1,
    ) -> None:
        if sockets < 1 or cores < 1 or threads < 1:
            raise XMLError("host topology counts must be at least 1")
        if memory_kib <= 0:
            raise XMLError("host memory must be positive")
        self.uuid = uuid
        self.arch = arch
        self.cpu_model = cpu_model
        self.sockets = sockets
        self.cores = cores
        self.threads = threads
        self.memory_kib = memory_kib
        self.mhz = mhz
        self.numa_cells = numa_cells

    @property
    def total_cpus(self) -> int:
        return self.sockets * self.cores * self.threads

    def _xml(self) -> str:
        per_cell_kib = self.memory_kib // self.numa_cells
        memory = f'          <memory unit="KiB">{per_cell_kib}</memory>\n'
        cells = "".join(
            [f'        <cell id="{i}">\n{memory}        </cell>\n' for i in range(self.numa_cells)]
        )
        return (
            "  <host>\n"
            f"    {text_element('uuid', self.uuid)}\n"
            "    <cpu>\n"
            f"      {text_element('arch', self.arch)}\n"
            f"      {text_element('model', self.cpu_model)}\n"
            f'      <topology sockets="{self.sockets}" cores="{self.cores}"'
            f' threads="{self.threads}" />\n'
            f"      <mhz>{self.mhz}</mhz>\n"
            "    </cpu>\n"
            f'    <memory unit="KiB">{self.memory_kib}</memory>\n'
            "    <topology>\n"
            f'      <cells num="{self.numa_cells}">\n{cells}      </cells>\n'
            "    </topology>\n  </host>\n"
        )

    @staticmethod
    def from_element(host: ET.Element) -> "HostCapability":
        uuid = child_text(host, "uuid")
        if not uuid:
            raise XMLError("<host> lacks a <uuid>")
        cpu = host.find("cpu")
        if cpu is None:
            raise XMLError("<host> lacks a <cpu> block")
        topo = cpu.find("topology")
        if topo is None:
            raise XMLError("<cpu> lacks a <topology>")
        memory = int_child_text(host, "memory")
        if memory is None:
            raise XMLError("<host> lacks a <memory>")
        topology = host.find("topology")
        numa_cells = 1
        if topology is not None:
            cells = topology.find("cells")
            if cells is not None:
                numa_cells = int_attr(cells, "num", 1)
        return HostCapability(
            uuid=uuid,
            arch=child_text(cpu, "arch", "x86_64"),
            cpu_model=child_text(cpu, "model", "sim-core"),
            sockets=int_attr(topo, "sockets"),
            cores=int_attr(topo, "cores"),
            threads=int_attr(topo, "threads"),
            memory_kib=memory,
            mhz=int_child_text(cpu, "mhz", 2400),
            numa_cells=numa_cells,
        )


class GuestCapability:
    """One ``<guest>`` block: a runnable (os type, arch, domain types)."""

    def __init__(
        self,
        os_type: str,
        arch: str,
        domain_types: Sequence[str],
        emulator: Optional[str] = None,
        max_vcpus: int = 64,
    ) -> None:
        if not domain_types:
            raise XMLError("guest capability needs at least one domain type")
        self.os_type = os_type
        self.arch = arch
        self.domain_types = list(domain_types)
        self.emulator = emulator
        self.max_vcpus = max_vcpus

    def _xml(self) -> str:
        emulator = (
            f"      <emulator>{escape_text(self.emulator)}</emulator>\n" if self.emulator else ""
        )
        domains = "".join(
            [f'      <domain type="{escape_attr(dtype)}" />\n' for dtype in self.domain_types]
        )
        return (
            "  <guest>\n"
            f"    {text_element('os_type', self.os_type)}\n"
            f'    <arch name="{escape_attr(self.arch)}">\n'
            f"{emulator}"
            f'      <vcpu max="{self.max_vcpus}" />\n'
            f"{domains}    </arch>\n  </guest>\n"
        )

    @staticmethod
    def from_element(guest: ET.Element) -> "GuestCapability":
        os_type = child_text(guest, "os_type")
        if not os_type:
            raise XMLError("<guest> lacks an <os_type>")
        arch = guest.find("arch")
        if arch is None:
            raise XMLError("<guest> lacks an <arch>")
        vcpu = arch.find("vcpu")
        return GuestCapability(
            os_type=os_type,
            arch=require_attr(arch, "name"),
            domain_types=[require_attr(d, "type") for d in arch.findall("domain")],
            emulator=child_text(arch, "emulator"),
            max_vcpus=int_attr(vcpu, "max", 64) if vcpu is not None else 64,
        )


class Capabilities:
    """A complete ``<capabilities>`` document."""

    def __init__(self, host: HostCapability, guests: Optional[List[GuestCapability]] = None) -> None:
        self.host = host
        self.guests = list(guests or [])

    def supports(self, os_type: str, arch: str, domain_type: str) -> bool:
        """True if some guest block can run this (os, arch, type) triple."""
        return any(
            g.os_type == os_type and g.arch == arch and domain_type in g.domain_types
            for g in self.guests
        )

    def domain_types(self) -> List[str]:
        """Every domain type any guest block accepts, deduplicated."""
        seen: List[str] = []
        for guest in self.guests:
            for dtype in guest.domain_types:
                if dtype not in seen:
                    seen.append(dtype)
        return seen

    def to_xml(self) -> str:
        guests = "".join([guest._xml() for guest in self.guests])
        return f"<capabilities>\n{self.host._xml()}{guests}</capabilities>"

    @staticmethod
    def from_xml(text: str) -> "Capabilities":
        root = parse_xml(text)
        if root.tag != "capabilities":
            raise XMLError(f"expected <capabilities> root element, got <{root.tag}>")
        host_elem = root.find("host")
        if host_elem is None:
            raise XMLError("capabilities lack a <host> block")
        return Capabilities(
            host=HostCapability.from_element(host_elem),
            guests=[GuestCapability.from_element(g) for g in root.findall("guest")],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Capabilities):
            return NotImplemented
        return self.to_xml() == other.to_xml()
