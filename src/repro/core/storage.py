"""``StoragePool`` and ``Volume`` handles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection import Connection


@dataclass(frozen=True)
class PoolInfo:
    """``virStoragePoolGetInfo`` result."""

    capacity_bytes: int
    allocation_bytes: int
    available_bytes: int
    active: bool


@dataclass(frozen=True)
class VolumeInfo:
    """``virStorageVolGetInfo`` result."""

    capacity_bytes: int
    allocation_bytes: int
    volume_format: str
    path: str


class Volume:
    """Handle to one volume inside a pool."""

    def __init__(self, pool: "StoragePool", name: str) -> None:
        self._pool = pool
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    @property
    def pool(self) -> "StoragePool":
        return self._pool

    def info(self) -> VolumeInfo:
        raw = self._pool._conn._driver.storage_vol_get_info(self._pool.name, self._name)
        return VolumeInfo(
            capacity_bytes=raw["capacity_bytes"],
            allocation_bytes=raw["allocation_bytes"],
            volume_format=raw["format"],
            path=raw["path"],
        )

    @property
    def path(self) -> str:
        return self.info().path

    def delete(self) -> None:
        self._pool._conn._driver.storage_vol_delete(self._pool.name, self._name)

    def upload(self, data: bytes, offset: int = 0) -> VolumeInfo:
        """``virStorageVolUpload``: write ``data`` at ``offset``.

        Remotely the payload travels over a virStream (chunked STREAM
        frames under credit-based flow control), not a procedure call.
        """
        raw = self._pool._conn._driver.storage_vol_upload(
            self._pool.name, self._name, data, offset
        )
        return VolumeInfo(
            capacity_bytes=raw["capacity_bytes"],
            allocation_bytes=raw["allocation_bytes"],
            volume_format=raw["format"],
            path=raw["path"],
        )

    def download(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        """``virStorageVolDownload``: read ``length`` bytes from ``offset``."""
        data = self._pool._conn._driver.storage_vol_download(
            self._pool.name, self._name, offset, length
        )
        return b"".join(data) if isinstance(data, (list, tuple)) else bytes(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Volume({self._name!r} in pool {self._pool.name!r})"


class StoragePool:
    """Handle to one storage pool on a connection."""

    def __init__(self, connection: "Connection", name: str, uuid: Optional[str] = None) -> None:
        self._conn = connection
        self._name = name
        self._uuid = uuid

    @property
    def name(self) -> str:
        return self._name

    @property
    def uuid(self) -> Optional[str]:
        if self._uuid is None:
            record = self._conn._driver.storage_pool_lookup_by_name(self._name)
            self._uuid = record.get("uuid")
        return self._uuid

    @property
    def is_active(self) -> bool:
        record = self._conn._driver.storage_pool_lookup_by_name(self._name)
        return bool(record.get("active", False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoragePool({self._name!r} on {self._conn.uri})"

    def start(self) -> "StoragePool":
        self._conn._driver.storage_pool_create(self._name)
        return self

    create = start

    def destroy(self) -> "StoragePool":
        self._conn._driver.storage_pool_destroy(self._name)
        return self

    def undefine(self) -> None:
        self._conn._driver.storage_pool_undefine(self._name)

    def info(self) -> PoolInfo:
        raw = self._conn._driver.storage_pool_get_info(self._name)
        return PoolInfo(
            capacity_bytes=raw["capacity_bytes"],
            allocation_bytes=raw["allocation_bytes"],
            available_bytes=raw["available_bytes"],
            active=raw["active"],
        )

    def xml_desc(self) -> str:
        return self._conn._driver.storage_pool_get_xml_desc(self._name)

    def config(self) -> StoragePoolConfig:
        return StoragePoolConfig.from_xml(self.xml_desc())

    def list_volumes(self) -> List[Volume]:
        names = self._conn._driver.storage_vol_list(self._name)
        return [Volume(self, name) for name in names]

    def create_volume(self, config: "Union[VolumeConfig, str]") -> Volume:
        """Create a volume from a :class:`VolumeConfig` or its XML."""
        xml = config.to_xml() if isinstance(config, VolumeConfig) else config
        record = self._conn._driver.storage_vol_create_xml(self._name, xml)
        return Volume(self, record["name"])

    def lookup_volume(self, name: str) -> Volume:
        self._conn._driver.storage_vol_get_info(self._name, name)  # existence check
        return Volume(self, name)
