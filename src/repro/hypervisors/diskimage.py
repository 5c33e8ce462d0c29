"""Simulated disk image store with copy-on-write chains.

Stands in for the image files a real host would keep under
``/var/lib/libvirt/images``: creation, deletion, cloning, backing-file
chains, per-image allocation accounting and dirty-block bitmaps (the
qcow2 bitmap analogue that checkpoints and incremental backups build
on), all in memory.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.errors import (
    InvalidArgumentError,
    InvalidOperationError,
    NoStorageVolumeError,
    ResourceBusyError,
    StorageVolumeExistsError,
)


class DiskImage:
    """One image file: format, capacity, allocation, optional backing."""

    __slots__ = ("path", "capacity_bytes", "allocation_bytes", "image_format", "backing_path", "in_use_by")

    def __init__(
        self,
        path: str,
        capacity_bytes: int,
        image_format: str = "qcow2",
        backing_path: Optional[str] = None,
        allocation_bytes: Optional[int] = None,
    ) -> None:
        self.path = path
        self.capacity_bytes = capacity_bytes
        self.image_format = image_format
        self.backing_path = backing_path
        if allocation_bytes is None:
            allocation_bytes = capacity_bytes if image_format == "raw" else 0
        self.allocation_bytes = allocation_bytes
        self.in_use_by: Optional[str] = None


class ImageStore:
    """The host-wide registry of disk images."""

    #: granularity of the dirty-block bitmaps (qcow2's default cluster size)
    DEFAULT_BLOCK_SIZE = 64 * 1024

    def __init__(
        self,
        capacity_bytes: int = 500 * 1024**3,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if capacity_bytes <= 0:
            raise InvalidArgumentError("image store capacity must be positive")
        if block_size <= 0:
            raise InvalidArgumentError("image store block size must be positive")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self._images: Dict[str, DiskImage] = {}
        #: per-image dirty-block bitmap: block indices written since the
        #: last ``reset_dirty`` (i.e. since the most recent checkpoint)
        self._dirty: Dict[str, Set[int]] = {}
        #: per-image byte contents, grown lazily by ``write_bytes`` —
        #: only images touched by the bulk-data plane carry any
        self._content: Dict[str, bytearray] = {}
        #: per-image write cursor — ``write()`` has no offset, so writes
        #: advance a cursor and wrap modulo capacity, like a log device
        self._cursor: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- creation/deletion ---------------------------------------------

    def create(
        self,
        path: str,
        capacity_bytes: int,
        image_format: str = "qcow2",
        backing_path: Optional[str] = None,
    ) -> DiskImage:
        """Create an image; qcow2 images start thin (zero allocation)."""
        if not path.startswith("/"):
            raise InvalidArgumentError(f"image path must be absolute, got {path!r}")
        if capacity_bytes <= 0:
            raise InvalidArgumentError("image capacity must be positive")
        if image_format not in ("raw", "qcow2", "vmdk"):
            raise InvalidArgumentError(f"unknown image format {image_format!r}")
        if backing_path is not None and image_format == "raw":
            raise InvalidArgumentError("raw images cannot have a backing file")
        with self._lock:
            if path in self._images:
                raise StorageVolumeExistsError(f"image {path!r} already exists")
            if backing_path is not None and backing_path not in self._images:
                raise NoStorageVolumeError(f"backing file {backing_path!r} not found")
            image = DiskImage(path, capacity_bytes, image_format, backing_path)
            if self._allocated_locked() + image.allocation_bytes > self.capacity_bytes:
                raise InvalidOperationError(
                    f"image store full: cannot allocate {image.allocation_bytes} bytes"
                )
            self._images[path] = image
            return image

    def delete(self, path: str) -> None:
        """Remove an image; refuses while in use or backing another image."""
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            if image.in_use_by is not None:
                raise ResourceBusyError(
                    f"image {path!r} is in use by guest {image.in_use_by!r}"
                )
            dependants = [
                p for p, img in self._images.items() if img.backing_path == path
            ]
            if dependants:
                raise ResourceBusyError(
                    f"image {path!r} backs {len(dependants)} other image(s): {dependants}"
                )
            del self._images[path]
            self._dirty.pop(path, None)
            self._cursor.pop(path, None)
            self._content.pop(path, None)

    def clone(self, source_path: str, dest_path: str, shallow: bool = True) -> DiskImage:
        """Copy an image: shallow = new COW overlay, deep = full copy."""
        with self._lock:
            source = self._images.get(source_path)
            if source is None:
                raise NoStorageVolumeError(f"image {source_path!r} not found")
        if shallow:
            if source.image_format == "raw":
                raise InvalidOperationError("cannot build a COW overlay on a raw image")
            return self.create(dest_path, source.capacity_bytes, "qcow2", source_path)
        clone = self.create(dest_path, source.capacity_bytes, source.image_format)
        with self._lock:
            clone.allocation_bytes = source.allocation_bytes
        return clone

    # -- guest attachment ------------------------------------------------

    def attach(self, path: str, guest: str) -> DiskImage:
        """Mark an image as in use by a guest (exclusive)."""
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            if image.in_use_by is not None and image.in_use_by != guest:
                raise ResourceBusyError(
                    f"image {path!r} already attached to {image.in_use_by!r}"
                )
            image.in_use_by = guest
            return image

    def detach(self, path: str, guest: str) -> None:
        """Release a guest's claim on an image (idempotent per guest)."""
        with self._lock:
            image = self._images.get(path)
            if image is None:
                return
            if image.in_use_by == guest:
                image.in_use_by = None

    def detach_all(self, guest: str) -> None:
        """Release every image the guest holds."""
        with self._lock:
            for image in self._images.values():
                if image.in_use_by == guest:
                    image.in_use_by = None

    # -- data-plane model ------------------------------------------------

    def write(self, path: str, num_bytes: int) -> None:
        """Model a guest write growing a thin image's allocation.

        Also maintains the image's dirty-block bitmap: writes advance a
        per-image cursor (wrapping modulo capacity) and mark every block
        the span touches, so checkpoints can later freeze "what changed
        since the last checkpoint" without scanning data.
        """
        if num_bytes < 0:
            raise InvalidArgumentError("write size must be non-negative")
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            new_alloc = min(image.capacity_bytes, image.allocation_bytes + num_bytes)
            growth = new_alloc - image.allocation_bytes
            if self._allocated_locked() + growth > self.capacity_bytes:
                raise InvalidOperationError("image store full")
            image.allocation_bytes = new_alloc
            if num_bytes:
                self._mark_dirty_locked(image, num_bytes)

    def _mark_dirty_locked(self, image: DiskImage, num_bytes: int) -> None:
        blocks = self._dirty.setdefault(image.path, set())
        total = self._num_blocks(image)
        if num_bytes >= image.capacity_bytes:
            blocks.update(range(total))
            self._cursor[image.path] = 0
            return
        cursor = self._cursor.get(image.path, 0)
        first = cursor // self.block_size
        last = (cursor + num_bytes - 1) // self.block_size
        for block in range(first, last + 1):
            blocks.add(block % total)
        self._cursor[image.path] = (cursor + num_bytes) % image.capacity_bytes

    def _num_blocks(self, image: DiskImage) -> int:
        return max(1, -(-image.capacity_bytes // self.block_size))

    def write_bytes(
        self, path: str, offset: int, data: "bytes | bytearray | memoryview | Sequence[bytes | memoryview]"
    ) -> int:
        """Write actual bytes at ``offset`` (the vol-upload data path).

        ``data`` is one buffer or a sequence (list/tuple) of buffers laid
        back to back, each taken as raw bytes and copied exactly once.
        Unlike :meth:`write` — which only *models* allocation growth —
        this stores content, so a later :meth:`read_bytes` returns what
        was written.  The span's blocks are marked dirty at offset
        granularity (no cursor), allocation grows to cover the written
        extent, and writes past capacity are refused.
        """
        if offset < 0:
            raise InvalidArgumentError("write offset must be non-negative")
        buffers = data if isinstance(data, (list, tuple)) else (data,)
        try:
            views = [memoryview(buffer).cast("B") for buffer in buffers]
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"write data must be contiguous byte buffers: {exc}") from exc
        size = sum(view.nbytes for view in views)
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            end = offset + size
            if end > image.capacity_bytes:
                raise InvalidOperationError(
                    f"write of {size} bytes at offset {offset} exceeds "
                    f"capacity {image.capacity_bytes} of {path!r}"
                )
            new_alloc = max(image.allocation_bytes, end)
            growth = new_alloc - image.allocation_bytes
            if growth > 0 and self._allocated_locked() + growth > self.capacity_bytes:
                raise InvalidOperationError("image store full")
            content = self._content.setdefault(path, bytearray())
            if len(content) < end:
                content.extend(b"\x00" * (end - len(content)))
            # released on exit: an exported view makes the next ``extend`` raise BufferError
            with memoryview(content) as target:
                pos = offset
                for view in views:
                    target[pos : pos + view.nbytes] = view
                    pos += view.nbytes
            image.allocation_bytes = new_alloc
            if size:
                blocks = self._dirty.setdefault(path, set())
                total = self._num_blocks(image)
                first = offset // self.block_size
                last = (end - 1) // self.block_size
                for block in range(first, last + 1):
                    blocks.add(block % total)
        return size

    def read_bytes(self, path: str, offset: int = 0, length: "Optional[int]" = None) -> bytes:
        """Read stored content (the vol-download data path).

        Extents never written read back as zeroes, like a sparse file;
        ``length`` defaults to the rest of the image's capacity.  The
        result is an independent copy: later writes never show through it.
        """
        if offset < 0:
            raise InvalidArgumentError("read offset must be non-negative")
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            if length is None:
                length = max(0, image.capacity_bytes - offset)
            if length < 0:
                raise InvalidArgumentError("read length must be non-negative")
            end = min(offset + length, image.capacity_bytes)
            if end <= offset:
                return b""
            with memoryview(self._content.get(path, b"")) as view:
                stored = bytes(view[offset:end])
        short = (end - offset) - len(stored)
        return stored + bytes(short) if short else stored

    def set_allocation(self, path: str, allocation_bytes: int) -> None:
        """Force an image's allocation (snapshot revert / backup finish)."""
        if allocation_bytes < 0:
            raise InvalidArgumentError("allocation must be non-negative")
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            new_alloc = min(image.capacity_bytes, allocation_bytes)
            growth = new_alloc - image.allocation_bytes
            if growth > 0 and self._allocated_locked() + growth > self.capacity_bytes:
                raise InvalidOperationError("image store full")
            image.allocation_bytes = new_alloc

    # -- dirty-block bitmaps ---------------------------------------------

    def dirty_blocks(self, path: str) -> FrozenSet[int]:
        """The image's active bitmap: blocks written since the last reset."""
        with self._lock:
            if path not in self._images:
                raise NoStorageVolumeError(f"image {path!r} not found")
            return frozenset(self._dirty.get(path, ()))

    def dirty_bytes(self, path: str) -> int:
        """Bytes covered by the active bitmap (block-granular)."""
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            covered = len(self._dirty.get(path, ())) * self.block_size
            return min(covered, image.capacity_bytes)

    def reset_dirty(self, path: str) -> FrozenSet[int]:
        """Freeze and clear the active bitmap (checkpoint creation)."""
        with self._lock:
            if path not in self._images:
                raise NoStorageVolumeError(f"image {path!r} not found")
            frozen = frozenset(self._dirty.get(path, ()))
            self._dirty[path] = set()
            return frozen

    def merge_dirty(self, path: str, blocks: Iterable[int]) -> None:
        """Fold frozen blocks back into the active bitmap (checkpoint delete)."""
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            total = self._num_blocks(image)
            self._dirty.setdefault(path, set()).update(b % total for b in blocks)

    def mark_all_dirty(self, path: str) -> None:
        """Mark every block dirty (disk contents replaced, e.g. revert)."""
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            self._dirty[path] = set(range(self._num_blocks(image)))

    # -- chains & introspection ------------------------------------------

    def chain(self, path: str) -> List[str]:
        """The full backing chain, leaf first."""
        with self._lock:
            result = []
            current: Optional[str] = path
            while current is not None:
                image = self._images.get(current)
                if image is None:
                    raise NoStorageVolumeError(f"image {current!r} not found in chain")
                if current in result:
                    raise InvalidOperationError(f"backing chain loop at {current!r}")
                result.append(current)
                current = image.backing_path
            return result

    def lookup(self, path: str) -> DiskImage:
        with self._lock:
            image = self._images.get(path)
            if image is None:
                raise NoStorageVolumeError(f"image {path!r} not found")
            return image

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._images

    def list_paths(self) -> List[str]:
        with self._lock:
            return sorted(self._images)

    @property
    def allocated_bytes(self) -> int:
        with self._lock:
            return self._allocated_locked()

    def _allocated_locked(self) -> int:
        return sum(img.allocation_bytes for img in self._images.values())
