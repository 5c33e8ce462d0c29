"""Filesystem state directory with atomic write-rename semantics.

Real libvirtd persists driver state under ``/var/lib/libvirt`` and
``/run/libvirt`` so a daemon restart can reattach to running guests.
:class:`StateDir` is the equivalent anchor for this reproduction: a
directory of named files where every full-file write is atomic
(write to a temp name in the same directory, then ``os.replace``), so
a crash can never leave a half-written snapshot behind — readers see
the old bytes or the new bytes, nothing in between.

Appends (the journal path) are deliberately *not* atomic: a torn tail
after a crash is exactly the failure :class:`repro.state.journal`
recovery must tolerate, so :meth:`append` exposes the raw behaviour
and even lets callers write a partial suffix on purpose.

An append is one ``write(2)`` on a descriptor the directory holds open
(``O_APPEND``, one per file name): no userspace buffer, so the bytes
are the kernel's — and survive ``kill -9`` — when :meth:`append`
returns.  A :class:`StateDir` owns its directory: replacing or deleting
its files behind its back leaves a held descriptor on a dead inode.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Optional

from repro.errors import InvalidArgumentError


def _close_all(fds: "Dict[str, int]") -> None:
    while fds:
        os.close(fds.popitem()[1])


class StateDir:
    """One directory of named state files, with atomic replace writes."""

    def __init__(self, root: str) -> None:
        if not root:
            raise InvalidArgumentError("state directory path must be non-empty")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        #: orders append/write_atomic/truncate/remove, so an append never
        #: lands on a replaced inode or a closed (and reused) descriptor
        self._lock = threading.Lock()
        #: file name -> held O_APPEND descriptor, opened on first use
        self._fds: Dict[str, int] = {}
        weakref.finalize(self, _close_all, self._fds)

    def path(self, name: str) -> str:
        if not name or os.sep in name or name.startswith("."):
            raise InvalidArgumentError(f"bad state file name {name!r}")
        return os.path.join(self.root, name)

    def exists(self, name: str) -> bool:
        return os.path.exists(self.path(name))

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self.path(name))
        except OSError:
            return 0

    def read_bytes(self, name: str) -> Optional[bytes]:
        """Return the file's bytes, or None if it does not exist."""
        try:
            with open(self.path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def _fd(self, name: str) -> int:
        """The held descriptor for ``name`` (caller holds the lock).
        ``O_APPEND`` is required: after a :meth:`truncate` the next write
        must land at the new end, not at the descriptor's old offset."""
        fd = self._fds.get(name)
        if fd is None:
            fd = self._fds[name] = os.open(
                self.path(name), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
            )
        return fd

    def _drop_fd(self, name: str) -> None:
        fd = self._fds.pop(name, None)
        if fd is not None:
            os.close(fd)

    def write_atomic(self, name: str, data: bytes) -> None:
        """Replace the file's contents atomically (temp + ``os.replace``).

        The temp file lives in the same directory so the final rename
        never crosses a filesystem boundary; flush+fsync before the
        rename models the write barrier a journalling daemon needs.
        The held append descriptor (it names the replaced inode) is
        dropped; the next :meth:`append` opens the new file.
        """
        target = self.path(name)
        tmp = f"{target}.tmp"
        with self._lock:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
            self._drop_fd(name)

    def append(self, name: str, data: bytes) -> None:
        """Append raw bytes — intentionally non-atomic (journal tail)."""
        with self._lock:
            fd = self._fd(name)
            written = os.write(fd, data)
            while written < len(data):  # short write (ENOSPC edge, signal)
                written += os.write(fd, memoryview(data)[written:])

    def truncate(self, name: str, size: int = 0) -> None:
        """Cut the file down to ``size`` bytes (recovery discards a torn
        tail this way); creates the file if missing."""
        with self._lock:
            os.ftruncate(self._fd(name), size)

    def remove(self, name: str) -> None:
        with self._lock:
            self._drop_fd(name)
            try:
                os.remove(self.path(name))
            except FileNotFoundError:
                pass

    def close(self) -> None:
        """Release the held descriptors (idempotent).  Nothing is lost —
        there is no buffer to flush — and a later append reopens."""
        with self._lock:
            _close_all(self._fds)

    def list(self) -> List[str]:
        return sorted(
            entry
            for entry in os.listdir(self.root)
            if not entry.startswith(".") and not entry.endswith(".tmp")
        )
