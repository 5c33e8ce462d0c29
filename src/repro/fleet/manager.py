"""The fleet connection manager: one client, many daemons.

The real libvirt topology is one ``libvirtd`` per host; managing a
datacentre means holding (and keeping alive) a connection to every one
of them.  :class:`FleetManager` pools connections by hostname, health-
checks them through the cheapest uniform call, and transparently
re-dials hosts whose daemon died and came back — riding the remote
driver's keepalive/reconnect machinery when the URI asks for it.

The shape follows virtui-manager's ``ConnectionManager`` (open, close,
health-check and pool many URIs behind one object), grown fleet-wide:
the manager is the substrate the registry
(:mod:`repro.fleet.registry`) and the orchestrator
(:mod:`repro.fleet.orchestrator`) build on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.core.connection import Connection, open_connection
from repro.errors import InvalidArgumentError, VirtError
from repro.fleet.registry import FleetRegistry
from repro.util.virtlog import LOG_ERROR, Logger


class FleetError(VirtError):
    """A fleet-level operation failed (unknown host, no live hosts...)."""


class HostEntry:
    """One managed daemon: its URI, live connection, and health record."""

    __slots__ = (
        "uri",
        "hostname",
        "connection",
        "healthy",
        "last_error",
        "reopens",
        "probes",
        "failures",
    )

    def __init__(self, uri: str, hostname: str, connection: Connection) -> None:
        self.uri = uri
        self.hostname = hostname
        self.connection = connection
        self.healthy = True
        self.last_error: "Optional[str]" = None
        #: times the manager re-dialled this host after a dead connection
        self.reopens = 0
        self.probes = 0
        self.failures = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "hostname": self.hostname,
            "uri": self.uri,
            "healthy": self.healthy,
            "reopens": self.reopens,
            "last_error": self.last_error,
        }


class FleetManager:
    """Open/pool/health-check/re-dial connections to many daemon URIs.

    >>> fleet = FleetManager(["qemu+tcp://host01/system", ...])
    >>> fleet.connection("host01").list_domains()
    >>> fleet.health_check()          # probes every host, re-dials the dead
    >>> fleet.registry().locate("web-42")   # fleet-wide domain lookup

    Connections are keyed by the daemon's *hostname* (what it answers to
    on the wire), not the URI string, so one host is one entry no matter
    how it was dialled.
    """

    def __init__(
        self,
        uris: "Optional[List[str]]" = None,
        auto_reopen: bool = True,
        log_level: int = LOG_ERROR,
        metrics: "Optional[Any]" = None,
        tracer: "Optional[Any]" = None,
    ) -> None:
        self._hosts: Dict[str, HostEntry] = {}
        self._lock = threading.RLock()
        self.auto_reopen = auto_reopen
        self.logger = Logger(level=log_level)
        self._registry = FleetRegistry(self)
        #: shared observability plumbed into every remote connection this
        #: manager dials: one registry/tracer sees the whole fleet's
        #: client-side RPC traffic (the substrate for trace stitching)
        self.metrics = metrics
        self.tracer = tracer
        #: optional verdict hook (hostname -> bool) ANDed into
        #: :meth:`health_check` — the scraper's health scorer installs here
        self.health_scorer: "Optional[Any]" = None
        for uri in uris or ():
            self.add_host(uri)

    # -- membership --------------------------------------------------------

    def _open(self, uri: str) -> Connection:
        """Dial one URI, threading the fleet's shared metrics registry
        and tracer into the remote driver when there is a transport."""
        if self.metrics is None and self.tracer is None:
            return open_connection(uri)
        from repro.core.uri import ConnectionURI
        from repro.drivers.remote import RemoteDriver

        parsed = ConnectionURI.parse(uri)
        if not parsed.transport:
            return open_connection(uri)
        return Connection(
            RemoteDriver(parsed, metrics=self.metrics, tracer=self.tracer),
            parsed,
        )

    def add_host(self, uri: str) -> str:
        """Dial ``uri`` and add the daemon to the fleet; returns its hostname."""
        connection = self._open(uri)
        try:
            hostname = connection.hostname()
        except VirtError:
            connection.close()
            raise
        with self._lock:
            if hostname in self._hosts:
                connection.close()
                raise InvalidArgumentError(
                    f"fleet already manages a daemon named {hostname!r}"
                )
            self._hosts[hostname] = HostEntry(uri, hostname, connection)
        return hostname

    def remove_host(self, hostname: str) -> None:
        with self._lock:
            entry = self._hosts.pop(hostname, None)
        if entry is None:
            raise FleetError(f"fleet does not manage a daemon named {hostname!r}")
        try:
            entry.connection.close()
        except VirtError:
            pass

    def hostnames(self) -> List[str]:
        with self._lock:
            return sorted(self._hosts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._hosts)

    def __contains__(self, hostname: str) -> bool:
        with self._lock:
            return hostname in self._hosts

    # -- connection access -------------------------------------------------

    def _entry(self, hostname: str) -> HostEntry:
        with self._lock:
            entry = self._hosts.get(hostname)
        if entry is None:
            raise FleetError(f"fleet does not manage a daemon named {hostname!r}")
        return entry

    def entry(self, hostname: str) -> HostEntry:
        """The health record for one host (public, read-mostly view)."""
        return self._entry(hostname)

    def connection(self, hostname: str) -> Connection:
        """The pooled connection to one host, re-dialled if it died."""
        entry = self._entry(hostname)
        if entry.connection.closed or not entry.healthy:
            if not self.auto_reopen:
                raise FleetError(
                    f"connection to {hostname!r} is down (auto_reopen disabled)"
                )
            return self.reopen(hostname)
        return entry.connection

    def connections(self, healthy_only: bool = True) -> List[Connection]:
        """Live connections to every (healthy) host, hostname order."""
        return [
            self.connection(hostname)
            for hostname in self.hostnames()
            if not healthy_only or self._entry(hostname).healthy
        ]

    def reopen(self, hostname: str) -> Connection:
        """Force a fresh dial to one host (daemon restarted, link dead)."""
        entry = self._entry(hostname)
        try:
            entry.connection.close()
        except VirtError:
            pass
        connection = self._open(entry.uri)
        reported = connection.hostname()
        if reported != hostname:
            connection.close()
            raise FleetError(
                f"daemon at {entry.uri!r} now answers as {reported!r}, "
                f"expected {hostname!r}"
            )
        entry.connection = connection
        entry.healthy = True
        entry.last_error = None
        entry.reopens += 1
        return connection

    # -- health ------------------------------------------------------------

    def _probe(self, entry: HostEntry) -> bool:
        """One cheap uniform call proves the daemon answers."""
        entry.probes += 1
        try:
            entry.connection.hostname()
            return True
        except VirtError as exc:
            entry.failures += 1
            entry.last_error = f"{type(exc).__name__}: {exc}"
            return False

    def health_check(self) -> Dict[str, bool]:
        """Probe every host; dead connections are re-dialled when
        ``auto_reopen`` is set.  Returns hostname → healthy."""
        results: Dict[str, bool] = {}
        for hostname in self.hostnames():
            entry = self._entry(hostname)
            ok = not entry.connection.closed and self._probe(entry)
            if not ok and self.auto_reopen:
                try:
                    self.reopen(hostname)
                    ok = self._probe(entry)
                except VirtError as exc:
                    entry.last_error = f"{type(exc).__name__}: {exc}"
                    ok = False
            if ok and self.health_scorer is not None:
                # the wire answers, but the scorer looks deeper (scrape
                # freshness, saturation, journal lag): a failing score
                # marks the host unhealthy so placement avoids it
                try:
                    ok = bool(self.health_scorer(hostname))
                    if not ok:
                        entry.last_error = "health score below threshold"
                except VirtError as exc:
                    entry.last_error = f"{type(exc).__name__}: {exc}"
                    ok = False
            if not ok:
                self.logger.error(
                    "fleet", f"host {hostname} unhealthy: {entry.last_error}"
                )
            entry.healthy = ok
            results[hostname] = ok
        return results

    # -- fleet-wide views --------------------------------------------------

    def fleet_status(self) -> List[Dict[str, Any]]:
        """One row per host: health plus the capacity/domain snapshot."""
        rows: List[Dict[str, Any]] = []
        for hostname in self.hostnames():
            entry = self._entry(hostname)
            row = entry.summary()
            if entry.healthy and not entry.connection.closed:
                try:
                    info = entry.connection.node_info()
                    row.update(
                        domains=entry.connection.num_of_domains(),
                        memory_kib=info["memory_kib"],
                        free_memory_kib=info["free_memory_kib"],
                        guests=info["guests"],
                    )
                except VirtError as exc:
                    row["healthy"] = False
                    row["last_error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
        return rows

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = list(self._hosts.values())
        return {
            "hosts": len(entries),
            "healthy": sum(1 for e in entries if e.healthy),
            "reopens": sum(e.reopens for e in entries),
            "probes": sum(e.probes for e in entries),
            "probe_failures": sum(e.failures for e in entries),
        }

    # -- registry ----------------------------------------------------------

    def registry(self) -> FleetRegistry:
        """The fleet-wide domain registry; it turns a host's read cache on
        at its first read of that host, so it costs nothing until used."""
        return self._registry

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            entries = list(self._hosts.values())
            self._hosts.clear()
        for entry in entries:
            try:
                entry.connection.close()
            except VirtError:
                pass

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return f"FleetManager({stats['hosts']} hosts, {stats['healthy']} healthy)"
