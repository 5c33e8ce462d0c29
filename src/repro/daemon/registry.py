"""The simulated network's daemon directory.

A remote driver "dials" a hostname; this registry is the stand-in for
DNS + the network path, mapping hostnames to in-process daemons.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict

from repro.errors import ConnectionError_

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.daemon.libvirtd import Libvirtd

_LOCK = threading.Lock()
_DAEMONS: Dict[str, "Libvirtd"] = {}


def register_daemon(hostname: str, daemon: "Libvirtd") -> None:
    """Make a daemon reachable under ``hostname`` (case-insensitive)."""
    with _LOCK:
        _DAEMONS[hostname.lower()] = daemon


def lookup_daemon(hostname: str) -> "Libvirtd":
    with _LOCK:
        daemon = _DAEMONS.get(hostname.lower())
    if daemon is None:
        raise ConnectionError_(
            f"unable to connect to host {hostname!r}: no daemon registered"
        )
    return daemon


def unregister_daemon(hostname: str) -> None:
    with _LOCK:
        _DAEMONS.pop(hostname.lower(), None)


def reset_daemons() -> None:
    """Forget every daemon — test isolation."""
    with _LOCK:
        _DAEMONS.clear()
