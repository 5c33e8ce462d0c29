"""The abstract driver interface and the driver registry.

This is the heart of libvirt's architecture: one internal interface
that every hypervisor driver implements, with a registry that maps a
connection URI to the driver able to serve it.  Drivers come in two
flavours (the paper's stateless/stateful split):

* *stateless* drivers run entirely client-side and talk to a
  hypervisor that manages its own state (ESX);
* *stateful* drivers keep domain configurations themselves and
  normally live inside the libvirtd daemon (qemu/kvm, xen, lxc);
  clients reach them through the *remote* driver.

Any method a driver does not implement raises
:class:`~repro.errors.UnsupportedError`, and a driver claims a feature
only when it implements every method of it — so the capability matrix
(experiment E1) is derived from what each driver implements.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.events import EventCallback
from repro.core.uri import ConnectionURI
from repro.errors import InvalidURIError, NoDomainError, UnsupportedError

#: optional capabilities a driver can claim (drives experiment E1), in
#: the order ``Driver.features`` lists them.  A feature's methods are the
#: ``method`` of every procedure row whose ``feature`` names it
FEATURES = (
    "lifecycle",  # define/start/stop/destroy
    "pause_resume",
    "reboot",
    "save_restore",
    "managed_save",
    "set_memory",
    "set_vcpus",
    "snapshots",
    "checkpoints",
    "backup",
    "bulk_streams",  # stream-backed vol upload/download + console
    "migration",
    "networks",
    "storage",
    "events",
    "device_hotplug",
    "remote",  # reachable through the remote protocol: no methods, claimed iff not stateless
    "autostart",
)


class Driver:
    """Internal driver interface (``virDriver``).

    Every public ``Connection``/``Domain`` method maps 1:1 onto one of
    these.  The base class implements nothing — each method raises
    :class:`UnsupportedError` so capability probing is uniform — but for
    one default: :meth:`get_all_domain_stats` is written over the two
    listings and :meth:`domain_get_stats`, so a backend without a cheaper
    walk inherits the bulk call and a daemon serving it still answers in
    one round trip.
    """

    #: URI scheme(s) this driver answers to
    name = "abstract"
    #: True when the driver runs client-side against a self-managing hypervisor
    stateless = False
    #: methods this driver overrides only to refuse (an inherited body
    #: its backend cannot serve, or a stub that raises): the features
    #: they belong to are not claimed
    unsupported_ops: FrozenSet[str] = frozenset()

    def _unsupported(self, what: str) -> "UnsupportedError":
        return UnsupportedError(f"driver {self.name!r} does not support {what}")

    # -- connection ------------------------------------------------------

    def close(self) -> None:
        raise self._unsupported("close")

    def get_hostname(self) -> str:
        raise self._unsupported("get_hostname")

    def get_capabilities(self) -> str:
        raise self._unsupported("get_capabilities")

    def get_node_info(self) -> Dict[str, int]:
        raise self._unsupported("get_node_info")

    def get_version(self) -> Tuple[int, int, int]:
        raise self._unsupported("get_version")

    def features(self) -> List[str]:
        """The optional capabilities this driver implements, in
        :data:`FEATURES` order: those whose every method the class
        overrides below ``Driver`` and none of which is in
        ``unsupported_ops``; and ``remote``, which has no methods, unless
        the driver is ``stateless``.  Derived once per class."""
        return list(_claimed(type(self)))

    def supports_feature(self, feature: str) -> bool:
        return feature in self.features()

    # -- domain enumeration ----------------------------------------------

    def list_domains(self) -> List[str]:
        """Names of active domains."""
        raise self._unsupported("list_domains")

    def list_defined_domains(self) -> List[str]:
        """Names of defined-but-inactive domains."""
        raise self._unsupported("list_defined_domains")

    def num_of_domains(self) -> int:
        raise self._unsupported("num_of_domains")

    # -- domain lookup/lifecycle -------------------------------------------

    def domain_lookup_by_name(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("domain_lookup_by_name")

    def domain_lookup_by_uuid(self, uuid: str) -> Dict[str, Any]:
        raise self._unsupported("domain_lookup_by_uuid")

    def domain_lookup_by_id(self, domain_id: int) -> Dict[str, Any]:
        raise self._unsupported("domain_lookup_by_id")

    def domain_define_xml(self, xml: str) -> Dict[str, Any]:
        raise self._unsupported("domain_define_xml")

    def domain_undefine(self, name: str) -> None:
        raise self._unsupported("domain_undefine")

    def domain_create(self, name: str) -> None:
        """Start a defined domain."""
        raise self._unsupported("domain_create")

    def domain_create_xml(self, xml: str) -> Dict[str, Any]:
        """Create and start a transient domain."""
        raise self._unsupported("domain_create_xml")

    def domain_shutdown(self, name: str) -> None:
        raise self._unsupported("domain_shutdown")

    def domain_destroy(self, name: str) -> None:
        raise self._unsupported("domain_destroy")

    def domain_suspend(self, name: str) -> None:
        raise self._unsupported("domain_suspend")

    def domain_resume(self, name: str) -> None:
        raise self._unsupported("domain_resume")

    def domain_reboot(self, name: str) -> None:
        raise self._unsupported("domain_reboot")

    # -- domain introspection -----------------------------------------------

    def domain_get_info(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("domain_get_info")

    def domain_get_state(self, name: str) -> int:
        raise self._unsupported("domain_get_state")

    def domain_get_xml_desc(self, name: str) -> str:
        raise self._unsupported("domain_get_xml_desc")

    def domain_get_stats(self, name: str) -> Dict[str, Any]:
        """Extended statistics: cpu, balloon, and cumulative I/O counters."""
        raise self._unsupported("domain_get_stats")

    def get_all_domain_stats(self, active: "Optional[bool]" = True) -> List[Dict[str, Any]]:
        """:meth:`domain_get_stats` of every domain, sorted by name:
        ``active=True`` → running/paused only, ``False`` → inactive only,
        ``None`` → both.  A domain that vanished after it was listed is
        left out, not raised."""
        names: List[str] = []
        if active is None or active:
            names.extend(self.list_domains())
        if active is None or not active:
            names.extend(self.list_defined_domains())
        rows = []
        for name in sorted(set(names)):
            try:
                rows.append(self.domain_get_stats(name))
            except NoDomainError:
                continue
        return rows

    def domain_get_scheduler_params(self, name: str) -> List[Any]:
        """CPU scheduler tunables as a typed-parameter list."""
        raise self._unsupported("domain_get_scheduler_params")

    def domain_set_scheduler_params(self, name: str, params: List[Any]) -> None:
        raise self._unsupported("domain_set_scheduler_params")

    def domain_get_job_info(self, name: str) -> Dict[str, Any]:
        """The current or most recently completed long-running job."""
        raise self._unsupported("domain_get_job_info")

    # -- domain tuning --------------------------------------------------------

    def domain_set_memory(self, name: str, memory_kib: int) -> None:
        raise self._unsupported("domain_set_memory")

    def domain_set_vcpus(self, name: str, vcpus: int) -> None:
        raise self._unsupported("domain_set_vcpus")

    def domain_save(self, name: str, path: str) -> None:
        raise self._unsupported("domain_save")

    def domain_restore(self, path: str) -> Dict[str, Any]:
        raise self._unsupported("domain_restore")

    def domain_managed_save(self, name: str) -> None:
        """Save to a driver-managed path; the next start auto-restores."""
        raise self._unsupported("domain_managed_save")

    def domain_managed_save_remove(self, name: str) -> None:
        raise self._unsupported("domain_managed_save_remove")

    def domain_has_managed_save(self, name: str) -> bool:
        raise self._unsupported("domain_has_managed_save")

    def domain_get_autostart(self, name: str) -> bool:
        raise self._unsupported("domain_get_autostart")

    def domain_set_autostart(self, name: str, autostart: bool) -> None:
        raise self._unsupported("domain_set_autostart")

    def domain_attach_device(self, name: str, device_xml: str) -> None:
        raise self._unsupported("domain_attach_device")

    def domain_detach_device(self, name: str, device_xml: str) -> None:
        raise self._unsupported("domain_detach_device")

    # -- snapshots --------------------------------------------------------------

    def snapshot_create(self, name: str, snapshot_name: str) -> Dict[str, Any]:
        raise self._unsupported("snapshot_create")

    def snapshot_list(self, name: str) -> List[str]:
        raise self._unsupported("snapshot_list")

    def snapshot_revert(self, name: str, snapshot_name: str) -> None:
        raise self._unsupported("snapshot_revert")

    def snapshot_delete(self, name: str, snapshot_name: str) -> None:
        raise self._unsupported("snapshot_delete")

    # -- checkpoints & backup ------------------------------------------------------

    def checkpoint_create(self, name: str, checkpoint_name: str) -> Dict[str, Any]:
        """Freeze the domain's dirty-block bitmaps into a new checkpoint."""
        raise self._unsupported("checkpoint_create")

    def checkpoint_list(self, name: str) -> List[str]:
        raise self._unsupported("checkpoint_list")

    def checkpoint_delete(self, name: str, checkpoint_name: str) -> None:
        raise self._unsupported("checkpoint_delete")

    def checkpoint_get_xml_desc(self, name: str, checkpoint_name: str) -> str:
        raise self._unsupported("checkpoint_get_xml_desc")

    def backup_begin(self, name: str, options: Dict[str, Any]) -> Dict[str, Any]:
        """Start a full or incremental backup as a background job."""
        raise self._unsupported("backup_begin")

    def backup_begin_pull(self, name: str, options: Dict[str, Any]) -> Dict[str, Any]:
        """Pull-mode backup: return the dirty-block manifest and the
        block contents so the *client* drives extraction (NBD-style),
        instead of the daemon writing a target file."""
        raise self._unsupported("backup_begin_pull")

    def domain_abort_job(self, name: str) -> Dict[str, Any]:
        """Cancel the domain's active background job."""
        raise self._unsupported("domain_abort_job")

    def domain_open_console(self, name: str) -> Any:
        """Attach to the domain's serial console; returns an object
        with ``send``/``recv``/``close``."""
        raise self._unsupported("domain_open_console")

    # -- migration ----------------------------------------------------------------

    def migrate_begin(self, name: str) -> Dict[str, Any]:
        """Source side: validate and describe the guest for migration."""
        raise self._unsupported("migrate_begin")

    def migrate_prepare(self, description: Dict[str, Any]) -> Dict[str, Any]:
        """Destination side: reserve resources, return a cookie."""
        raise self._unsupported("migrate_prepare")

    def migrate_perform(self, name: str, cookie: Dict[str, Any], params: Dict[str, Any]) -> Dict[str, Any]:
        """Source side: run the memory copy, return transfer stats."""
        raise self._unsupported("migrate_perform")

    def migrate_finish(self, cookie: Dict[str, Any], stats: Dict[str, Any]) -> Dict[str, Any]:
        """Destination side: activate the incoming guest."""
        raise self._unsupported("migrate_finish")

    def migrate_confirm(self, name: str, cancelled: bool) -> None:
        """Source side: kill (or keep, on failure) the original guest."""
        raise self._unsupported("migrate_confirm")

    def migrate_p2p(self, name: str, dest_uri: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Peer-to-peer mode: the source host drives the whole handshake
        itself, dialling ``dest_uri`` directly — the client stays out of
        the data path entirely."""
        raise self._unsupported("migrate_p2p")

    # -- events ---------------------------------------------------------------------

    def domain_event_register(self, callback: EventCallback) -> int:
        raise self._unsupported("domain_event_register")

    def domain_event_deregister(self, callback_id: int) -> None:
        raise self._unsupported("domain_event_deregister")

    def event_bus_subscribe(self, handler, kinds=None, max_queue=None) -> int:
        raise self._unsupported("event_bus_subscribe")

    def event_bus_unsubscribe(self, sub_id: int) -> None:
        raise self._unsupported("event_bus_unsubscribe")

    # -- networks ---------------------------------------------------------------------

    def network_define_xml(self, xml: str) -> Dict[str, Any]:
        raise self._unsupported("network_define_xml")

    def network_undefine(self, name: str) -> None:
        raise self._unsupported("network_undefine")

    def network_create(self, name: str) -> None:
        raise self._unsupported("network_create")

    def network_destroy(self, name: str) -> None:
        raise self._unsupported("network_destroy")

    def network_list(self) -> List[Dict[str, Any]]:
        raise self._unsupported("network_list")

    def network_lookup_by_name(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("network_lookup_by_name")

    def network_get_xml_desc(self, name: str) -> str:
        raise self._unsupported("network_get_xml_desc")

    def network_dhcp_leases(self, name: str) -> List[Dict[str, Any]]:
        """Active DHCP leases handed out on a network."""
        raise self._unsupported("network_dhcp_leases")

    # -- storage ------------------------------------------------------------------------

    def storage_pool_define_xml(self, xml: str) -> Dict[str, Any]:
        raise self._unsupported("storage_pool_define_xml")

    def storage_pool_undefine(self, name: str) -> None:
        raise self._unsupported("storage_pool_undefine")

    def storage_pool_create(self, name: str) -> None:
        raise self._unsupported("storage_pool_create")

    def storage_pool_destroy(self, name: str) -> None:
        raise self._unsupported("storage_pool_destroy")

    def storage_pool_list(self) -> List[Dict[str, Any]]:
        raise self._unsupported("storage_pool_list")

    def storage_pool_lookup_by_name(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("storage_pool_lookup_by_name")

    def storage_pool_get_info(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("storage_pool_get_info")

    def storage_pool_get_xml_desc(self, name: str) -> str:
        raise self._unsupported("storage_pool_get_xml_desc")

    def storage_vol_create_xml(self, pool: str, xml: str) -> Dict[str, Any]:
        raise self._unsupported("storage_vol_create_xml")

    def storage_vol_delete(self, pool: str, volume: str) -> None:
        raise self._unsupported("storage_vol_delete")

    def storage_vol_list(self, pool: str) -> List[str]:
        raise self._unsupported("storage_vol_list")

    def storage_vol_get_info(self, pool: str, volume: str) -> Dict[str, Any]:
        raise self._unsupported("storage_vol_get_info")

    def storage_vol_upload(
        self,
        pool: str,
        volume: str,
        data: "bytes | bytearray | memoryview | Sequence[bytes | memoryview]",
        offset: int = 0,
    ) -> Dict[str, Any]:
        """Write ``data`` — one buffer or a sequence of buffers laid
        back to back — into a volume at ``offset``; returns the
        refreshed volume info."""
        raise self._unsupported("storage_vol_upload")

    def storage_vol_download(
        self, pool: str, volume: str, offset: int = 0, length: "Optional[int]" = None
    ) -> "bytes | Sequence[bytes | memoryview]":
        """Read ``length`` bytes (default: to end of capacity) from a
        volume starting at ``offset``.

        Returns one buffer or a sequence (list/tuple) of buffers laid
        back to back — the shape :meth:`storage_vol_upload` accepts.  A
        sequence is a snapshot: later writes to the volume never show
        through it, and its views may be held for as long as needed.
        ``Volume.download`` joins it into one ``bytes``.
        """
        raise self._unsupported("storage_vol_download")


@functools.lru_cache(maxsize=None)
def _claimed(cls: "type[Driver]") -> Tuple[str, ...]:
    # imported on first use: at the top of this module it loads the whole
    # ``repro.rpc`` package ahead of ``repro.core``, which measured ≈ 1 MiB
    # more peak RSS per process when modules compile from source
    from repro.rpc.procedures import REMOTE_PROCEDURES

    missing = {
        row.feature
        for row in REMOTE_PROCEDURES
        if row.feature is not None
        and (getattr(cls, row.method) is getattr(Driver, row.method) or row.method in cls.unsupported_ops)
    }
    if cls.stateless:
        missing.add("remote")
    return tuple(feature for feature in FEATURES if feature not in missing)


# -- driver registry ---------------------------------------------------------

DriverFactory = Callable[[ConnectionURI, Optional[Dict[str, Any]]], Driver]

_FACTORIES: Dict[str, "Tuple[DriverFactory, bool]"] = {}
_REMOTE_FACTORY: "Optional[DriverFactory]" = None
_REGISTRY_LOCK = threading.Lock()


def register_driver(scheme: str, factory: DriverFactory, handles_remote: bool = False) -> None:
    """Register a driver factory for a URI scheme (``qemu``, ``esx``, …).

    ``handles_remote=True`` marks a client-side driver that reaches
    remote hosts itself (the stateless case, e.g. ESX): a hostname in
    the URI does not push the connection through the remote driver.
    """
    with _REGISTRY_LOCK:
        _FACTORIES[scheme] = (factory, handles_remote)


def register_remote_driver(factory: DriverFactory) -> None:
    """Register the fallback driver that tunnels unrecognized URIs."""
    global _REMOTE_FACTORY
    with _REGISTRY_LOCK:
        _REMOTE_FACTORY = factory


def registered_schemes() -> List[str]:
    with _REGISTRY_LOCK:
        return sorted(_FACTORIES)


def open_driver(uri: "ConnectionURI | str", credentials: "Optional[Dict[str, Any]]" = None) -> Driver:
    """URI → driver: the probing logic the paper describes.

    A URI with an explicit transport always goes through the remote
    driver.  Otherwise the scheme is offered to the registered local/
    stateless drivers; if none claims it, the remote driver is the
    fallback (and if there is none, the URI is invalid).
    """
    if isinstance(uri, str):
        uri = ConnectionURI.parse(uri)
    with _REGISTRY_LOCK:
        entry = _FACTORIES.get(uri.driver)
        remote_factory = _REMOTE_FACTORY
    local_factory, handles_remote = entry if entry is not None else (None, False)
    needs_remote = uri.transport is not None or (
        bool(uri.hostname) and not handles_remote
    )
    if needs_remote:
        if remote_factory is None:
            raise InvalidURIError(
                f"URI {uri.format()!r} requires the remote driver, none registered"
            )
        return remote_factory(uri, credentials)
    if local_factory is not None:
        return local_factory(uri, credentials)
    if remote_factory is not None:
        return remote_factory(uri, credentials)
    raise InvalidURIError(f"no driver recognizes URI scheme {uri.driver!r}")
