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
  and go straight to the wire.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class InvalidationCache:
    """A keyed read cache whose entries die by invalidation, not TTL.

    Keys are ``(scope, name)`` tuples: ``("list", "active")`` for the
    connection-level lists, ``("state", domain)`` / ``("xml", domain)``
    for per-domain answers.  The cache never expires entries on its own
    — correctness comes entirely from the event stream driving
    :meth:`invalidate_domain` / :meth:`invalidate_lists` / :meth:`flush`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: Dict[Tuple[str, str], Any] = {}
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

    def put(self, scope: str, name: str, value: Any) -> None:
        if self.enabled:
            self._entries[(scope, name)] = value

    # -- coherence ---------------------------------------------------------

    def invalidate_domain(self, domain: str) -> int:
        """Drop every per-domain entry for ``domain``."""
        dead = [k for k in self._entries if k[1] == domain and k[0] != "list"]
        for key in dead:
            del self._entries[key]
        self.invalidations += len(dead)
        return len(dead)

    def invalidate_lists(self) -> int:
        """Drop the connection-level list entries (membership changed)."""
        dead = [k for k in self._entries if k[0] == "list"]
        for key in dead:
            del self._entries[key]
        self.invalidations += len(dead)
        return len(dead)

    def flush(self, reason: str = "") -> int:
        """Drop everything (reconnect, explicit request)."""
        count = len(self._entries)
        self._entries.clear()
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
