"""The fleet-wide domain registry: name/uuid → home daemon.

It keeps no index of its own: it reads each host's domain lists and
look-ups through that host connection's invalidation cache
(:mod:`repro.core.cache`), turned on at its first read of the host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NoDomainError, VirtError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import InvalidationCache
    from repro.core.domain import Domain
    from repro.fleet.manager import FleetManager

#: the cache keys of the two list reads (a row without arguments is keyed by name)
_LISTS = (("list", "connect.list_domains"), ("list", "connect.list_defined_domains"))


class FleetRegistry:
    """Name/uuid → home-daemon lookups over a :class:`FleetManager`."""

    def __init__(self, fleet: "FleetManager") -> None:
        self._fleet = fleet
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        #: host reads that found the host's lists not cached
        self.refreshes = 0

    def _cache(self, hostname: str) -> "Optional[InvalidationCache]":
        """The host connection's read cache (empty until turned on)."""
        return getattr(self._fleet.entry(hostname).connection._driver, "cache", None)

    def _fresh(self, hostname: str) -> bool:
        cache = self._cache(hostname)
        return cache is not None and all(cache.peek(*key) is not None for key in _LISTS)

    def _domains(self, hostname: str) -> "List[Tuple[Domain, bool]]":
        """``(domain, active)`` for every domain on the host, read through
        its cache (turned on here); empty while the host is unreachable."""
        try:
            connection = self._fleet.connection(hostname)
            enable_cache = getattr(connection._driver, "enable_cache", None)
            if enable_cache is not None:  # a local driver has no cache
                enable_cache()
            if not self._fresh(hostname):
                self.refreshes += 1
            active = connection.list_domains(active=True)
            inactive = connection.list_domains(active=False)
        except VirtError:
            return []
        return [(dom, True) for dom in active] + [(dom, False) for dom in inactive]

    def _locate(self, match: "Callable[[Domain], bool]", key: str) -> str:
        """The host of a domain ``match`` accepts, fresh hosts read first.
        A running match wins: after a migration the source still defines
        the guest, and "where does it live" means where it runs."""
        self.lookups += 1
        defined_on: "Optional[str]" = None
        for hostname in sorted(self._fleet.hostnames(), key=lambda h: not self._fresh(h)):
            for dom, active in self._domains(hostname):
                if match(dom):
                    if active:
                        self.hits += 1
                        return hostname
                    defined_on = defined_on or hostname
        if defined_on is None:
            self.misses += 1
            raise NoDomainError(f"no domain {key!r} on any of the fleet's hosts")
        self.hits += 1
        return defined_on

    def locate(self, name: str) -> str:
        """The hostname of the daemon where ``name`` lives."""
        return self._locate(lambda dom: dom.name == name, name)

    def locate_by_uuid(self, uuid: str) -> str:
        return self._locate(lambda dom: dom.uuid == uuid, uuid)

    def lookup(self, name: str) -> "Domain":
        """A live handle to ``name`` on its home connection."""
        return self._fleet.connection(self.locate(name)).lookup_domain(name)

    def domains(self) -> List[Dict[str, Any]]:
        """Every domain record fleet-wide, hostname then name order."""
        return [
            {"name": dom.name, "uuid": dom.uuid, "hostname": hostname, "active": active}
            for hostname in self._fleet.hostnames()
            for dom, active in sorted(self._domains(hostname), key=lambda pair: pair[0].name)
        ]

    def stats(self) -> Dict[str, Any]:
        """Counts read off the hosts' caches, without a wire call."""
        hostnames = self._fleet.hostnames()
        caches = [cache for cache in map(self._cache, hostnames) if cache is not None]
        return {
            "shards": len(hostnames),
            "stale_shards": sum(1 for hostname in hostnames if not self._fresh(hostname)),
            "entries": sum(len(cache.peek(*key) or ()) for cache in caches for key in _LISTS),
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "refreshes": self.refreshes,
            "invalidations": sum(cache.invalidations for cache in caches),
        }
