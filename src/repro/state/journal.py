"""Checksummed append-only write-ahead journal over a :class:`StateDir`.

The durability scheme mirrors what management daemons actually do:

* every state mutation appends one **record** to ``journal.bin`` —
  a 4-byte big-endian payload length, a 4-byte CRC32 of the payload,
  then a compact-JSON payload ``{"lsn", "kind", "key", "data"}``.
  ``data = null`` is a tombstone (the key was deleted);
* the journal is a last-writer-wins key-value log: replay folds it
  into ``{(kind, key): data}``, so re-journalling the same key is
  cheap and idempotent;
* :meth:`checkpoint` collapses history — the folded map is written
  atomically to ``snapshot.json`` and the journal truncated — so
  recovery is *snapshot load + tail replay*, sub-linear in the number
  of appends ever made rather than proportional to full history;
* a crash can tear the final append (short header, short payload, or
  a CRC mismatch).  :meth:`_load` detects the torn tail, truncates it
  away, and keeps everything before it — a partial record was never
  acknowledged, so discarding it is the correct roll-back.

When a :class:`~repro.util.clock.Clock` is supplied, appends, snapshot
writes, and replay charge modelled I/O latency, which is what the
crash-recovery benchmark measures.  Without a clock the journal is
cost-free, so attaching persistence never skews unrelated timings.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import InvalidArgumentError
from repro.state.statedir import StateDir
from repro.util.clock import Clock

_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)
_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: modelled I/O latency constants (charged only when a clock is given)
APPEND_COST_S = 50e-6  # one fsync'd journal append
REPLAY_COST_S = 10e-6  # verify + fold one record during recovery
SNAPSHOT_BASE_S = 2e-3  # atomic snapshot rewrite, fixed part
SNAPSHOT_ENTRY_S = 4e-6  # per folded entry serialized into the snapshot
SNAPSHOT_LOAD_S = 1e-3  # snapshot read + parse, fixed part
SNAPSHOT_LOAD_ENTRY_S = 1.5e-6  # per entry loaded from the snapshot


class StateJournal:
    """A write-ahead journal with snapshot checkpoints and CRC recovery."""

    SNAPSHOT_FILE = "snapshot.json"
    JOURNAL_FILE = "journal.bin"

    def __init__(
        self,
        statedir: StateDir,
        clock: "Optional[Clock]" = None,
        checkpoint_every: int = 1024,
    ) -> None:
        if checkpoint_every < 1:
            raise InvalidArgumentError("checkpoint_every must be at least 1")
        self.statedir = statedir
        self.clock = clock
        self.checkpoint_every = checkpoint_every
        #: optional observer called as ``on_append(kind, key, lsn)`` after
        #: every durable append — the daemon's flight recorder rides this
        self.on_append: "Optional[Any]" = None
        #: one critical section for LSN assignment, the append, the
        #: counters and the folded map — shared with checkpoint(), so a
        #: truncate can never discard a record its snapshot lacks
        self._lock = threading.Lock()
        #: folded last-writer-wins state: (kind, key) -> data
        self._kv: Dict[Tuple[str, str], Any] = {}
        self.lsn = 0
        #: records currently sitting in the journal tail (since snapshot)
        self.tail_records = 0
        # -- recovery audit (populated by _load) -------------------------
        self.snapshot_lsn = 0
        self.replayed_records = 0
        self.torn_tail_discarded = False
        self.appends = 0
        self._load()

    # -- public KV surface -------------------------------------------------

    def get(self, kind: str, key: str) -> Any:
        return self._kv.get((kind, key))

    def entries(self, kind: str) -> Dict[str, Any]:
        """All live entries of one kind, keyed by record key."""
        return {
            key: data for (k, key), data in self._kv.items() if k == kind
        }

    def __len__(self) -> int:
        return len(self._kv)

    def put(self, kind: str, key: str, data: Any) -> None:
        """Journal an upsert; durable before this method returns."""
        if data is None:
            raise InvalidArgumentError("journal data must not be None (use delete)")
        self._append(kind, key, data)

    def delete(self, kind: str, key: str) -> None:
        """Journal a tombstone for ``(kind, key)``."""
        self._append(kind, key, None)

    # -- record encoding ---------------------------------------------------

    def _encode(self, kind: str, key: str, data: Any) -> bytes:
        """The next record's bytes (caller holds the lock)."""
        payload = _ENCODE(
            {"lsn": self.lsn + 1, "kind": kind, "key": key, "data": data}
        ).encode("utf-8")
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def _append(self, kind: str, key: str, data: Any) -> None:
        with self._lock:
            self.statedir.append(self.JOURNAL_FILE, self._encode(kind, key, data))
            lsn = self.lsn = self.lsn + 1
            self.tail_records += 1
            self.appends += 1
            if data is None:
                self._kv.pop((kind, key), None)
            else:
                self._kv[(kind, key)] = data
        if self.clock is not None:
            self.clock.sleep(APPEND_COST_S)
        if self.on_append is not None:
            self.on_append(kind, key, lsn)
        self._maybe_auto_checkpoint()

    def append_torn(self, kind: str, key: str, data: Any) -> int:
        """Write a deliberately torn record: the crash-injection hook.

        Only a prefix of the record's bytes reaches the journal (header
        plus roughly half the payload), exactly what a crash between
        ``write`` and completion leaves behind.  The in-memory map is
        *not* updated — the write never finished.  Returns the number
        of bytes written, for tests to assert against.
        """
        with self._lock:
            record = self._encode(kind, key, data)
            torn = record[: _HEADER.size + max(1, (len(record) - _HEADER.size) // 2)]
            self.statedir.append(self.JOURNAL_FILE, torn)
        if self.clock is not None:
            self.clock.sleep(APPEND_COST_S)
        return len(torn)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the journal into ``snapshot.json`` and truncate the tail.

        The snapshot write is atomic (StateDir write-rename), so a crash
        during checkpoint leaves either the old snapshot + full journal
        or the new snapshot + empty journal — both recoverable.
        """
        with self._lock:
            snapshot = {
                "lsn": self.lsn,
                "entries": [
                    [kind, key, data]
                    for (kind, key), data in sorted(self._kv.items())
                ],
            }
            blob = _ENCODE(snapshot).encode("utf-8")
            self.statedir.write_atomic(self.SNAPSHOT_FILE, blob)
            self.statedir.truncate(self.JOURNAL_FILE, 0)
            self.snapshot_lsn = self.lsn
            self.tail_records = 0
            entries = len(self._kv)
        if self.clock is not None:
            self.clock.sleep(SNAPSHOT_BASE_S + SNAPSHOT_ENTRY_S * entries)

    def _maybe_auto_checkpoint(self) -> None:
        if self.tail_records >= self.checkpoint_every:
            self.checkpoint()

    # -- recovery ----------------------------------------------------------

    def _load(self) -> None:
        """Snapshot load + journal tail replay, tolerating a torn tail."""
        raw_snapshot = self.statedir.read_bytes(self.SNAPSHOT_FILE)
        if raw_snapshot is not None:
            snapshot = json.loads(raw_snapshot.decode("utf-8"))
            self.lsn = self.snapshot_lsn = int(snapshot.get("lsn", 0))
            for kind, key, data in snapshot.get("entries", ()):
                self._kv[(str(kind), str(key))] = data
            if self.clock is not None:
                self.clock.sleep(
                    SNAPSHOT_LOAD_S + SNAPSHOT_LOAD_ENTRY_S * len(self._kv)
                )
        raw = self.statedir.read_bytes(self.JOURNAL_FILE)
        if not raw:
            return
        good_end = 0
        for offset, payload in self._iter_records(raw):
            record = json.loads(payload.decode("utf-8"))
            kind, key = str(record["kind"]), str(record["key"])
            if record["data"] is None:
                self._kv.pop((kind, key), None)
            else:
                self._kv[(kind, key)] = record["data"]
            self.lsn = max(self.lsn, int(record.get("lsn", 0)))
            self.replayed_records += 1
            self.tail_records += 1
            good_end = offset
            if self.clock is not None:
                self.clock.sleep(REPLAY_COST_S)
        if good_end != len(raw):
            # a partial final record: never acknowledged, so roll it back
            self.torn_tail_discarded = True
            self.statedir.truncate(self.JOURNAL_FILE, good_end)

    @staticmethod
    def _iter_records(raw: bytes) -> "Iterator[Tuple[int, bytes]]":
        """Yield ``(end_offset, payload)`` for each intact record; stop
        at the first torn one (short header/payload or CRC mismatch)."""
        offset = 0
        while offset + _HEADER.size <= len(raw):
            length, crc = _HEADER.unpack_from(raw, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(raw):
                return  # payload torn short
            payload = raw[start:end]
            if zlib.crc32(payload) != crc:
                return  # bit rot or a torn rewrite: stop before it
            yield end, payload
            offset = end
