"""``clone_domain`` — the virt-clone analogue.

Produces an independent copy of a defined guest: fresh UUID, fresh MAC
addresses, and per-disk handling through the storage API — disks that
live in a storage pool become copy-on-write overlays backed by the
original image; disks outside any pool are re-created blank under a
new path.  The source must be shut off (cloning a live disk image
would corrupt it).
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.core.connection import Connection
from repro.core.domain import Domain
from repro.core.states import DomainState
from repro.errors import InvalidOperationError
from repro.xmlconfig.storage import VolumeConfig


def clone_domain(
    source: Domain,
    new_name: str,
    conn: "Optional[Connection]" = None,
    start: bool = False,
) -> Domain:
    """Clone ``source`` as ``new_name`` on ``conn`` (default: same host)."""
    conn = conn or source.connection
    if source.state() != DomainState.SHUTOFF:
        raise InvalidOperationError(
            f"domain {source.name!r} must be shut off to clone "
            f"(is {source.state_text()})"
        )
    config = source.config().copy(name=new_name)
    config.uuid = None  # the driver assigns a fresh one at define time

    for index, interface in enumerate(config.interfaces):
        if interface.mac:
            interface.mac = _derive_mac(new_name, index)

    for disk in config.disks:
        if disk.device != "disk":
            continue  # cdrom/floppy media are shared, not cloned
        cloned = _clone_disk(conn, disk.source, new_name)
        disk.source = cloned
        if disk.driver_format == "raw":
            disk.driver_format = "qcow2"  # overlays are qcow2
    config.validate()

    clone = conn.define_domain(config)
    if start:
        clone.start()
    return clone


def _derive_mac(name: str, index: int) -> str:
    """A stable locally administered MAC derived from the clone name."""
    digest = hashlib.sha256(f"{name}:{index}".encode()).digest()
    return "52:54:00:%02x:%02x:%02x" % (digest[0], digest[1], digest[2])


def _clone_disk(conn: Connection, path: str, new_name: str) -> str:
    """COW-clone a pool volume, or pick a fresh path for loose images."""
    for pool in conn.list_storage_pools():
        for volume in pool.list_volumes():
            info = volume.info()
            if info.path != path:
                continue
            clone_volume = f"{new_name}-{volume.name}"
            if info.volume_format == "raw":
                # raw images cannot back an overlay: full copy
                created = pool.create_volume(
                    VolumeConfig(
                        clone_volume,
                        info.capacity_bytes,
                        allocation_bytes=info.allocation_bytes,
                        volume_format="raw",
                    )
                )
            else:
                created = pool.create_volume(
                    VolumeConfig(
                        clone_volume,
                        info.capacity_bytes,
                        volume_format="qcow2",
                        backing_store=path,
                    )
                )
            return created.info().path
    # not pool-managed: give the clone its own path; the backend
    # materializes it at first boot
    stem, dot, suffix = path.rpartition(".")
    if dot:
        return f"{stem}-{new_name}.{suffix}"
    return f"{path}-{new_name}"
