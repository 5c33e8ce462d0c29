"""Size-unit parsing and formatting.

Libvirt's canonical memory unit is KiB; pyvirt keeps bytes canonical
internally and provides KiB helpers where the XML layer needs them.
Both IEC binary units (KiB, MiB, ...) and their SI look-alikes (KB, MB,
interpreted decimally, as libvirt does) are accepted.
"""

from __future__ import annotations

import re

from repro.errors import InvalidArgumentError

_BINARY = 1024
_DECIMAL = 1000

#: multiplier in bytes for every accepted unit suffix (case-insensitive)
UNIT_MULTIPLIERS = {
    "b": 1,
    "bytes": 1,
    "k": _BINARY,
    "kib": _BINARY,
    "kb": _DECIMAL,
    "m": _BINARY**2,
    "mib": _BINARY**2,
    "mb": _DECIMAL**2,
    "g": _BINARY**3,
    "gib": _BINARY**3,
    "gb": _DECIMAL**3,
    "t": _BINARY**4,
    "tib": _BINARY**4,
    "tb": _DECIMAL**4,
    "p": _BINARY**5,
    "pib": _BINARY**5,
    "pb": _DECIMAL**5,
}

#: the bulk-data grain: one stream chunk on the wire, one cluster in the
#: image store, so a received chunk can become a stored cluster as it is
DEFAULT_CHUNK = 256 * _BINARY

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([A-Za-z]*)\s*$")


def parse_size(text: "str | int | float", default_unit: str = "b") -> int:
    """Parse a human size string (``"2 GiB"``, ``"512M"``) into bytes.

    Bare numbers are interpreted in ``default_unit``.  The result is
    always an integer number of bytes, rounded down.
    """
    if isinstance(text, (int, float)):
        if text < 0:
            raise InvalidArgumentError(f"size must be non-negative, got {text}")
        return int(text * unit_multiplier(default_unit))
    match = _SIZE_RE.match(text)
    if not match:
        raise InvalidArgumentError(f"cannot parse size {text!r}")
    value = float(match.group(1))
    unit = match.group(2) or default_unit
    return int(value * unit_multiplier(unit))


def unit_multiplier(unit: str) -> int:
    """Return the byte multiplier for a unit suffix."""
    try:
        return UNIT_MULTIPLIERS[unit.lower()]
    except KeyError:
        raise InvalidArgumentError(f"unknown size unit {unit!r}") from None


def parse_size_kib(text: "str | int | float", default_unit: str = "kib") -> int:
    """Parse a size and return whole KiB (libvirt's memory unit)."""
    return parse_size(text, default_unit=default_unit) // _BINARY


def format_size(num_bytes: int, precision: int = 1) -> str:
    """Render a byte count with the largest IEC unit that keeps value >= 1."""
    if num_bytes < 0:
        raise InvalidArgumentError(f"size must be non-negative, got {num_bytes}")
    value = float(num_bytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if value < _BINARY or suffix == "PiB":
            if suffix == "B":
                return f"{int(value)} B"
            return f"{value:.{precision}f} {suffix}"
        value /= _BINARY
    raise AssertionError("unreachable")


def format_duration(seconds: float) -> str:
    """Render a duration with an adaptive unit (us/ms/s)."""
    if seconds < 0:
        raise InvalidArgumentError(f"duration must be non-negative, got {seconds}")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
