"""Virtual network XML configuration (``<network>`` documents)."""

from __future__ import annotations

import ipaddress
import re
from typing import Optional

from repro.errors import XMLError
from repro.util import uuidutil
from repro.util.xmlutil import child_text, escape_attr, escape_text, parse_xml, require_attr

_NAME_RE = re.compile(r"^[A-Za-z0-9_.+:@-]+$")

FORWARD_MODES = ("nat", "route", "bridge", "isolated")


def _check_ip(text: str, what: str) -> str:
    try:
        return str(ipaddress.ip_address(text))
    except ValueError as exc:
        raise XMLError(f"invalid {what} address {text!r}") from exc


class DHCPRange:
    """A DHCP lease range inside a network's IP block."""

    def __init__(self, start: str, end: str) -> None:
        self.start = _check_ip(start, "dhcp range start")
        self.end = _check_ip(end, "dhcp range end")
        if ipaddress.ip_address(self.start) > ipaddress.ip_address(self.end):
            raise XMLError(f"dhcp range start {start} above end {end}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DHCPRange):
            return NotImplemented
        return (self.start, self.end) == (other.start, other.end)

    def size(self) -> int:
        """Number of addresses in the range (inclusive)."""
        return (
            int(ipaddress.ip_address(self.end))
            - int(ipaddress.ip_address(self.start))
            + 1
        )


class IPConfig:
    """The ``<ip>`` element: the host-side address plus optional DHCP."""

    def __init__(self, address: str, netmask: str, dhcp: Optional[DHCPRange] = None) -> None:
        self.address = _check_ip(address, "network")
        self.netmask = _check_ip(netmask, "netmask")
        try:
            self.interface = ipaddress.ip_interface(f"{self.address}/{self.netmask}")
        except ValueError as exc:
            raise XMLError(f"invalid netmask {netmask!r}") from exc
        self.dhcp = dhcp
        if dhcp is not None:
            network = self.interface.network
            for bound in (dhcp.start, dhcp.end):
                if ipaddress.ip_address(bound) not in network:
                    raise XMLError(
                        f"dhcp bound {bound} outside network {network.with_prefixlen}"
                    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IPConfig):
            return NotImplemented
        return (self.address, self.netmask, self.dhcp) == (
            other.address,
            other.netmask,
            other.dhcp,
        )

    def _xml(self) -> str:
        ip = f'  <ip address="{escape_attr(self.address)}" netmask="{escape_attr(self.netmask)}"'
        if self.dhcp is None:
            return f"{ip} />\n"
        return (
            f"{ip}>\n"
            "    <dhcp>\n"
            f'      <range start="{escape_attr(self.dhcp.start)}"'
            f' end="{escape_attr(self.dhcp.end)}" />\n'
            "    </dhcp>\n"
            "  </ip>\n"
        )


class NetworkConfig:
    """A complete, validated ``<network>`` document."""

    def __init__(
        self,
        name: str,
        uuid: Optional[str] = None,
        bridge: Optional[str] = None,
        forward_mode: str = "nat",
        ip: Optional[IPConfig] = None,
    ) -> None:
        if not name or not _NAME_RE.match(name):
            raise XMLError(f"invalid network name {name!r}")
        if forward_mode not in FORWARD_MODES:
            raise XMLError(f"unknown forward mode {forward_mode!r}")
        self.name = name
        self.uuid = uuidutil.normalize_uuid(uuid) if uuid else None
        self.bridge = bridge or f"virbr-{name}"
        self.forward_mode = forward_mode
        self.ip = ip

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkConfig):
            return NotImplemented
        return self.to_xml() == other.to_xml()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkConfig(name={self.name!r}, mode={self.forward_mode!r})"

    def to_xml(self) -> str:
        uuid = f"  <uuid>{escape_text(self.uuid)}</uuid>\n" if self.uuid else ""
        forward = ""
        if self.forward_mode != "isolated":
            forward = f'  <forward mode="{escape_attr(self.forward_mode)}" />\n'
        ip = self.ip._xml() if self.ip is not None else ""
        return (
            f"<network>\n  <name>{escape_text(self.name)}</name>\n"
            f"{uuid}{forward}"
            f'  <bridge name="{escape_attr(self.bridge)}" />\n'
            f"{ip}</network>"
        )

    @staticmethod
    def from_xml(text: str) -> "NetworkConfig":
        root = parse_xml(text)
        if root.tag != "network":
            raise XMLError(f"expected <network> root element, got <{root.tag}>")
        name = child_text(root, "name")
        if not name:
            raise XMLError("network lacks a <name>")
        forward = root.find("forward")
        forward_mode = forward.get("mode", "nat") if forward is not None else "isolated"
        bridge_elem = root.find("bridge")
        bridge = bridge_elem.get("name") if bridge_elem is not None else None
        ip_elem = root.find("ip")
        ip = None
        if ip_elem is not None:
            dhcp = None
            dhcp_elem = ip_elem.find("dhcp")
            if dhcp_elem is not None:
                range_elem = dhcp_elem.find("range")
                if range_elem is None:
                    raise XMLError("<dhcp> lacks a <range>")
                dhcp = DHCPRange(
                    require_attr(range_elem, "start"), require_attr(range_elem, "end")
                )
            ip = IPConfig(
                require_attr(ip_elem, "address"),
                require_attr(ip_elem, "netmask"),
                dhcp,
            )
        return NetworkConfig(
            name=name,
            uuid=child_text(root, "uuid"),
            bridge=bridge,
            forward_mode=forward_mode,
            ip=ip,
        )
