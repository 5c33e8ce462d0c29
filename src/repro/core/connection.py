"""The ``Connection`` object — the uniform management entry point.

``repro.open_connection(uri)`` parses the URI, picks a driver through
the registry, and returns a :class:`Connection` whose methods are the
same regardless of what sits behind it: an in-process test driver, a
local hypervisor backend, a remote libvirtd daemon, or a proprietary
hypervisor's own remote API.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.domain import Domain
from repro.core.driver import Driver, open_driver
from repro.core.events import EventCallback
from repro.core.network import Network
from repro.core.states import ACTIVE_STATES, DomainState
from repro.core.storage import StoragePool
from repro.core.uri import ConnectionURI
from repro.errors import ConnectionClosedError
from repro.xmlconfig.capabilities import Capabilities
from repro.xmlconfig.domain import DomainConfig
from repro.xmlconfig.network import NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig


def open_connection(
    uri: "Union[str, ConnectionURI]",
    credentials: "Optional[Dict[str, Any]]" = None,
) -> "Connection":
    """Open a connection (``virConnectOpen``)."""
    parsed = ConnectionURI.parse(uri) if isinstance(uri, str) else uri
    driver = open_driver(parsed, credentials)
    return Connection(driver, parsed)


class Connection:
    """One open connection to a virtualization node."""

    def __init__(self, driver: Driver, uri: ConnectionURI) -> None:
        self._driver = driver
        self._uri = uri
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def uri(self) -> str:
        return self._uri.format()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._driver.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError(f"connection {self.uri} is closed")

    # -- node introspection ---------------------------------------------------

    def hostname(self) -> str:
        self._check_open()
        return self._driver.get_hostname()

    def capabilities(self) -> Capabilities:
        self._check_open()
        return Capabilities.from_xml(self._driver.get_capabilities())

    def node_info(self) -> Dict[str, int]:
        self._check_open()
        return self._driver.get_node_info()

    def version(self) -> Tuple[int, int, int]:
        self._check_open()
        return tuple(self._driver.get_version())  # type: ignore[return-value]

    def features(self) -> List[str]:
        self._check_open()
        return self._driver.features()

    def supports(self, feature: str) -> bool:
        self._check_open()
        return self._driver.supports_feature(feature)

    @property
    def is_stateless(self) -> bool:
        return self._driver.stateless

    # -- domain enumeration ------------------------------------------------------

    def list_domains(self, active: "Optional[bool]" = None) -> List[Domain]:
        """Domains on this connection.

        ``active=True`` → running/paused only, ``False`` → defined but
        inactive only, ``None`` → both.
        """
        self._check_open()
        names: List[str] = []
        if active is None or active:
            names.extend(self._driver.list_domains())
        if active is None or not active:
            names.extend(self._driver.list_defined_domains())
        return [Domain(self, name) for name in sorted(set(names))]

    def num_of_domains(self) -> int:
        self._check_open()
        return self._driver.num_of_domains()

    def lookup_domain(self, name: str) -> Domain:
        self._check_open()
        record = self._driver.domain_lookup_by_name(name)
        return Domain(self, record["name"], record.get("uuid"))

    def lookup_domain_by_uuid(self, uuid: str) -> Domain:
        self._check_open()
        record = self._driver.domain_lookup_by_uuid(uuid)
        return Domain(self, record["name"], record.get("uuid"))

    def lookup_domain_by_id(self, domain_id: int) -> Domain:
        self._check_open()
        record = self._driver.domain_lookup_by_id(domain_id)
        return Domain(self, record["name"], record.get("uuid"))

    # -- domain creation ------------------------------------------------------------

    def define_domain(self, config: "Union[DomainConfig, str]") -> Domain:
        """Persistently define a domain from a config or its XML."""
        self._check_open()
        xml = config.to_xml() if isinstance(config, DomainConfig) else config
        record = self._driver.domain_define_xml(xml)
        return Domain(self, record["name"], record.get("uuid"))

    def create_domain(self, config: "Union[DomainConfig, str]") -> Domain:
        """Create and immediately start a *transient* domain."""
        self._check_open()
        xml = config.to_xml() if isinstance(config, DomainConfig) else config
        record = self._driver.domain_create_xml(xml)
        return Domain(self, record["name"], record.get("uuid"))

    def restore_domain(self, path: str) -> Domain:
        """Bring a domain back from a managed-save file."""
        self._check_open()
        record = self._driver.domain_restore(path)
        return Domain(self, record["name"], record.get("uuid"))

    # -- events -------------------------------------------------------------------------

    def register_domain_event(self, callback: EventCallback) -> int:
        self._check_open()
        return self._driver.domain_event_register(callback)

    def deregister_domain_event(self, callback_id: int) -> None:
        self._check_open()
        self._driver.domain_event_deregister(callback_id)

    def subscribe_events(self, handler, kinds=None) -> int:
        """Subscribe to typed bus records (lifecycle/config/job/...).

        The handler receives each record dict; ``kinds`` optionally
        narrows to a set of record kinds.  Works against any driver
        exposing the event bus (stateful drivers and remote stubs)."""
        self._check_open()
        return self._driver.event_bus_subscribe(handler, kinds=kinds)

    def unsubscribe_events(self, sub_id: int) -> None:
        self._check_open()
        self._driver.event_bus_unsubscribe(sub_id)

    def cache_stats(self) -> "Optional[Dict[str, Any]]":
        """The remote read cache's hit/miss counters; None when the
        driver keeps no client-side cache (local connections)."""
        cache = getattr(self._driver, "cache", None)
        return None if cache is None else cache.stats()

    # -- networks ---------------------------------------------------------------------------

    def list_networks(self) -> List[Network]:
        self._check_open()
        records = self._driver.network_list()
        return [Network(self, r["name"], r.get("uuid")) for r in records]

    def lookup_network(self, name: str) -> Network:
        self._check_open()
        record = self._driver.network_lookup_by_name(name)
        return Network(self, record["name"], record.get("uuid"))

    def define_network(self, config: "Union[NetworkConfig, str]") -> Network:
        self._check_open()
        xml = config.to_xml() if isinstance(config, NetworkConfig) else config
        record = self._driver.network_define_xml(xml)
        return Network(self, record["name"], record.get("uuid"))

    # -- storage -------------------------------------------------------------------------------

    def list_storage_pools(self) -> List[StoragePool]:
        self._check_open()
        records = self._driver.storage_pool_list()
        return [StoragePool(self, r["name"], r.get("uuid")) for r in records]

    def lookup_storage_pool(self, name: str) -> StoragePool:
        self._check_open()
        record = self._driver.storage_pool_lookup_by_name(name)
        return StoragePool(self, record["name"], record.get("uuid"))

    def define_storage_pool(self, config: "Union[StoragePoolConfig, str]") -> StoragePool:
        self._check_open()
        xml = config.to_xml() if isinstance(config, StoragePoolConfig) else config
        record = self._driver.storage_pool_define_xml(xml)
        return StoragePool(self, record["name"], record.get("uuid"))

    # -- convenience -----------------------------------------------------------------------------

    def get_all_domain_stats(self, active: "Optional[bool]" = True) -> List[Dict[str, Any]]:
        """Bulk statistics for every (active) domain — one monitoring sweep."""
        self._check_open()
        return self._driver.get_all_domain_stats(active)

    def active_domain_count(self) -> int:
        """Domains currently holding a live instance."""
        return sum(row["state"] in ACTIVE_STATES for row in self.get_all_domain_stats())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "closed" if self._closed else "open"
        return f"Connection({self.uri!r}, {status})"


#: re-exported for callers that branch on state
__all__ = ["Connection", "open_connection", "DomainState"]
