"""The daemon's flight recorder: a crash-surviving black box.

Every daemon keeps a bounded ring of the most recent control-plane
facts — RPC frame headers, event-bus records, journal appends, crash-
plan hits — each stamped with the virtual clock.  The ring answers the
question every post-mortem starts with: *what was the daemon doing
right before it died?*

Durability comes in two strengths, mirroring the PR-6 shutdown model:

* **Graceful shutdown** compacts the ring into one atomic file
  (``StateDir.write_atomic``), so a clean restart starts from a tidy
  snapshot.
* **``kill -9``** leaves whatever the incremental append path already
  wrote: every record is appended to the recorder file *as it is
  recorded*, one JSON line per record, and a crash never un-writes an
  append.  The last line may be torn; recovery tolerates it.

On restart the new incarnation reads the tail, seeds its ring with the
previous life's records (marked with the incarnation that wrote them),
and reports which RPC dispatches began but never ended — the raw
material the daemon uses to close dangling spans as
``status=interrupted`` (see ``Libvirtd._attach_persistence``).

The recorder follows the layer's non-intrusiveness rules: without a
:class:`~repro.state.statedir.StateDir` it is a pure in-memory ring
(no I/O at all), and all timestamps come from the owning daemon's
clock so recording perturbs nothing it measures.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.state.statedir import StateDir

#: the recorder's file inside the daemon's state directory
FLIGHT_FILE = "flightrec.log"

#: compact the append-only file once it holds this many times the ring
#: capacity — keeps the amortized per-record disk cost O(1)
COMPACT_FACTOR = 4

#: record kinds (the ``kind`` field of every record)
KIND_RPC_BEGIN = "rpc.begin"
KIND_RPC_END = "rpc.end"
KIND_EVENT = "event"
KIND_JOURNAL = "journal"
KIND_CRASH = "crash"
KIND_SHUTDOWN = "shutdown"
KIND_RECOVERY = "recovery"

#: one compiled encoder for every durable line (``json.dumps`` with
#: these options would build a new ``JSONEncoder`` per record)
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode_line(record: "Dict[str, Any]") -> bytes:
    return _ENCODE(record).encode("utf-8") + b"\n"


def read_tail(statedir: StateDir) -> "List[Dict[str, Any]]":
    """Parse the recorder file a previous incarnation left behind.

    Tolerates a torn final line (a ``kill -9`` mid-append) and any
    line that fails to parse — a black box that refuses to open is
    worse than one missing its last word.
    """
    raw = statedir.read_bytes(FLIGHT_FILE)
    if not raw:
        return []
    records: "List[Dict[str, Any]]" = []
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue  # torn or corrupt line: keep what we can read
        if isinstance(record, dict):
            records.append(record)
    return records


def interrupted_dispatches(
    records: "List[Dict[str, Any]]",
) -> "List[Dict[str, Any]]":
    """``rpc.begin`` records with no matching ``rpc.end`` in the tail.

    These are the dispatches a crash cut short: the daemon recorded
    the frame header, started executing, and died before replying.
    Matched by ``(server, call)`` — the server's dispatch ordinal; a
    serial is only unique on one connection, and every client starts at
    1 — scoped to the final incarnation in the tail.  Records written
    before the ``call`` field existed are matched by ``(server, serial)``.
    """
    begun: "Dict[Tuple[Any, ...], Dict[str, Any]]" = {}
    for record in records:
        if "call" in record:
            key = (record.get("server"), "call", record["call"])
        else:
            key = (record.get("server"), "serial", record.get("serial"))
        if record.get("kind") == KIND_RPC_BEGIN:
            begun[key] = record
        elif record.get("kind") == KIND_RPC_END:
            begun.pop(key, None)
        elif record.get("kind") == KIND_RECOVERY:
            # anything dangling before an older recovery was already
            # closed by that incarnation — start over
            begun.clear()
    return list(begun.values())


class FlightRecorder:
    """Bounded in-memory ring with optional crash-durable persistence."""

    def __init__(
        self,
        now: Callable[[], float],
        capacity: int = 512,
        statedir: "Optional[StateDir]" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be at least 1")
        self._now = now
        self.capacity = capacity
        self._ring: "Deque[Dict[str, Any]]" = deque(maxlen=capacity)
        #: in step with ``_ring``: each record's durable line, or None
        #: for one that was never encoded (in-memory, or recovered)
        self._lines: "Deque[Optional[bytes]]" = deque(maxlen=capacity)
        #: re-entrant: ``record`` compacts through ``flush`` while holding
        #: it, so ring order is file order and compaction is single-flight
        self._lock = threading.RLock()
        self.statedir = statedir
        #: records written over this recorder's lifetime (ring evictions
        #: included), and records inherited from previous incarnations
        self.records_total = 0
        self.recovered_records = 0
        self.compactions = 0
        #: which life of the daemon wrote a record; bumped by recover()
        self.incarnation = 0
        self._file_records = 0

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append one record (virtual-clock stamped) to the ring and,
        when a state directory is attached, to the durable tail."""
        record = {"t": self._now(), "kind": kind, **fields, "life": self.incarnation}
        statedir = self.statedir
        line = None if statedir is None else _encode_line(record)
        with self._lock:
            self._ring.append(record)
            self._lines.append(line)
            self.records_total += 1
            if line is not None:
                statedir.append(FLIGHT_FILE, line)
                self._file_records += 1
                if self._file_records > COMPACT_FACTOR * self.capacity:
                    self.flush()
        return record

    # -- durability --------------------------------------------------------

    def flush(self) -> None:
        """Compact the durable tail to exactly the current ring (one
        atomic write).  Called on graceful shutdown and whenever the
        append-only file outgrows ``COMPACT_FACTOR`` times the ring.

        The ring keeps each record's encoded line, so this joins them;
        only records that never had one (recorded before the directory
        was attached, or recovered) are encoded here, once.
        """
        if self.statedir is None:
            return
        with self._lock:
            self._lines = deque(
                (line or _encode_line(r) for r, line in zip(self._ring, self._lines)),
                maxlen=self.capacity,
            )
            self.statedir.write_atomic(FLIGHT_FILE, b"".join(self._lines))
            self._file_records = len(self._lines)
            self.compactions += 1

    def recover(self) -> "List[Dict[str, Any]]":
        """Load the previous incarnation's tail into the ring.

        Returns the recovered records (oldest first) so the caller can
        mine them — e.g. for dispatches to close as interrupted.  The
        recorder keeps them in the ring, so a post-restart
        ``flight-dump`` still shows the moments before the crash.
        """
        if self.statedir is None:
            return []
        tail = read_tail(self.statedir)
        with self._lock:
            for record in tail[-self.capacity :]:
                self._ring.append(record)
                self._lines.append(None)
            self.recovered_records += len(tail)
            self._file_records = len(tail)
            self.incarnation = 1 + max(
                (int(r.get("life", 0)) for r in tail), default=-1
            )
        return tail

    # -- inspection --------------------------------------------------------

    def records(self, kind: "Optional[str]" = None) -> "List[Dict[str, Any]]":
        with self._lock:
            out = list(self._ring)
        if kind is not None:
            out = [r for r in out if r.get("kind") == kind]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self) -> Dict[str, Any]:
        """The ``flight-dump`` payload: the ring plus recorder stats."""
        with self._lock:
            records = list(self._ring)
            return {
                "capacity": self.capacity,
                "records": records,
                "records_total": self.records_total,
                "recovered_records": self.recovered_records,
                "incarnation": self.incarnation,
                "compactions": self.compactions,
                "persistent": self.statedir is not None,
            }
