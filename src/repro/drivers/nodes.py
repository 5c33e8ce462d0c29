"""Simulated node registry: which hosts exist in this process.

Opening ``qemu:///system`` twice must land on the same node state,
exactly as two clients of one libvirtd share one hypervisor.  This
registry holds the per-(scheme, hostname) driver singletons for local
connections, and the inventory of simulated remote ESX hosts.

Tests and benchmarks that want isolated nodes construct drivers
directly (``QemuDriver(backend=...)``) or call :func:`reset_nodes`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.errors import InvalidURIError
from repro.hypervisors.esx_backend import EsxBackend
from repro.hypervisors.host import SimHost

_LOCK = threading.Lock()
_LOCAL_DRIVERS: Dict[str, object] = {}
_ESX_HOSTS: Dict[str, EsxBackend] = {}


def _make_local_driver(kind: str, hostname: str) -> object:
    from repro.drivers.lxc import LxcDriver
    from repro.drivers.qemu import QemuDriver
    from repro.drivers.test import TestDriver
    from repro.drivers.xen import XenDriver

    if kind == "test":
        return TestDriver()
    if kind == "qemu":
        return QemuDriver()
    if kind == "xen":
        return XenDriver()
    if kind == "lxc":
        return LxcDriver()
    raise InvalidURIError(f"no local node kind {kind!r}")


def local_driver(kind: str, hostname: "Optional[str]" = None) -> object:
    """The per-process singleton driver for a local URI scheme."""
    key = f"{kind}@{hostname or 'localhost'}"
    with _LOCK:
        driver = _LOCAL_DRIVERS.get(key)
        if driver is None:
            driver = _make_local_driver(kind, hostname or "localhost")
            _LOCAL_DRIVERS[key] = driver
        return driver


def register_esx_host(hostname: str, backend: "Optional[EsxBackend]" = None, **host_kwargs: object) -> EsxBackend:
    """Bring a simulated ESX host onto the network under ``hostname``."""
    if backend is None:
        backend = EsxBackend(host=SimHost(hostname=hostname, **host_kwargs))
    with _LOCK:
        _ESX_HOSTS[hostname] = backend
    return backend


def esx_host(hostname: str) -> EsxBackend:
    with _LOCK:
        backend = _ESX_HOSTS.get(hostname)
    if backend is None:
        raise InvalidURIError(
            f"no ESX host {hostname!r} registered (register_esx_host first)"
        )
    return backend


def reset_nodes() -> None:
    """Forget every node — test isolation."""
    with _LOCK:
        _LOCAL_DRIVERS.clear()
        _ESX_HOSTS.clear()
