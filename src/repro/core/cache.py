"""Invalidation-driven client-side cache for remote connections.

With EVENT push armed, a remote client no longer needs to re-ask the
daemon questions whose answers it already heard: domain lists, states,
and XML descriptions are served from this cache until an event record
says otherwise.  The coherence rules are deliberately simple:

* **invalidate-on-event** — every pushed record drops the entries it
  could have changed (lifecycle/config/device records drop that
  domain's entries; define/undefine/start/stop also drop the lists);
* **flush-on-reconnect** — a severed link may have lost events, so the
  whole cache is discarded when the transport is re-dialled;
* **bypass** — callers that need daemon truth pass ``cached=False``
  and go straight to the wire;
* **no crossed answers** — a reply whose key was invalidated or flushed
  while its read was on the wire may predate the change, so it is
  handed to the caller but not stored.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

#: invalidation stamps kept, one per bucket of domain names (``None``: the
#: lists); two names sharing one only drop an answer too many
_BUCKETS = 256


class InvalidationCache:
    """A keyed read cache whose entries die by invalidation, not TTL.

    Keys are ``(scope, name)`` tuples: ``("list", procedure)`` for the
    connection-level lists, ``("state"|"xml"|"lookup", domain)`` for
    per-domain answers.  The cache never expires entries on its own
    — correctness comes entirely from the event stream driving
    :meth:`invalidate_domain` / :meth:`invalidate_lists` / :meth:`flush`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: Dict[Tuple[str, str], Any] = {}
        #: serialises stores against invalidations (hits take no lock)
        self._lock = threading.Lock()
        #: bumped by every invalidation and flush (see :meth:`put`)
        self.generation = 0
        #: generation of the last change covering each bucket
        self._stamps = [0] * _BUCKETS
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flushes = 0
        #: reason -> count, for introspection ("reconnect", "event", ...)
        self.flush_reasons: Dict[str, int] = {}

    # -- read/write --------------------------------------------------------

    def get(self, scope: str, name: str = "") -> Tuple[bool, Any]:
        """``(hit, value)`` — a miss returns ``(False, None)``."""
        if not self.enabled:
            return False, None
        key = (scope, name)
        if key in self._entries:
            self.hits += 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def put(self, scope: str, name: str, value: Any, since: "Optional[int]" = None) -> None:
        """Store an answer, unless a change covering its key came in after
        ``since``, the :attr:`generation` noted before its read went out."""
        if self.enabled:
            with self._lock:
                stamp = self._stamps[hash(None if scope == "list" else name) % _BUCKETS]
                if since is None or since >= stamp:
                    self._entries[(scope, name)] = value

    def peek(self, scope: str, name: str = "") -> Any:
        """The stored value or ``None``, counting neither hit nor miss."""
        return self._entries.get((scope, name))

    # -- coherence ---------------------------------------------------------

    def _drop(self, name: "Optional[str]", dead: "List[Tuple[str, str]]") -> int:
        """Delete ``dead`` and stamp ``name``'s bucket (lock held)."""
        self.generation += 1
        self._stamps[hash(name) % _BUCKETS] = self.generation
        for key in dead:
            del self._entries[key]
        self.invalidations += len(dead)
        return len(dead)

    def invalidate_domain(self, domain: str) -> int:
        """Drop every per-domain entry for ``domain``."""
        with self._lock:
            return self._drop(domain, [k for k in self._entries if k[1] == domain and k[0] != "list"])

    def invalidate_lists(self) -> int:
        """Drop the connection-level list entries (membership changed)."""
        with self._lock:
            return self._drop(None, [k for k in self._entries if k[0] == "list"])

    def flush(self, reason: str = "") -> int:
        """Drop everything (reconnect, explicit request)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.generation += 1
            self._stamps = [self.generation] * _BUCKETS
            self.flushes += 1
            if reason:
                self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        return count

    def on_event(self, record: Dict[str, Any]) -> None:
        """Apply one pushed event record's invalidation consequences."""
        kind = record.get("kind", "")
        domain = record.get("domain", "")
        if domain:
            self.invalidate_domain(domain)
        if kind == "lifecycle":
            # membership or id columns may have changed
            self.invalidate_lists()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> "List[Tuple[str, str]]":
        return sorted(self._entries)

    def stats(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "flush_reasons": dict(self.flush_reasons),
        }
