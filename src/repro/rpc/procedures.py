"""The procedure table: every RPC procedure, declared once.

libvirt writes its remote protocol down in one file
(``remote_protocol.x``) and generates the client stubs and the daemon's
dispatch table from it.  This module is that file's analogue.  Everything
else that used to restate a procedure is derived from a row here:

* :data:`repro.rpc.protocol.PROCEDURES` / ``STREAM_PROCEDURES`` — the
  number space and the stream-opening set;
* :data:`repro.rpc.retry.IDEMPOTENT_PROCEDURES` — the retry allowlist;
* ``Libvirtd._register_handlers`` — the pass-through handlers, every
  handler's priority lane, and the argument check on a CALL body;
* ``RPCServer.register`` — whether a CALL is answered on the thread that
  received it (``blocking=False``) or handed to a worker;
* ``RemoteDriver`` — the pass-through stubs and their cache scopes.

Adding a pass-through procedure is one row below plus the ``Driver``
method it names.  The module imports nothing from ``repro`` so every
layer can read it.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple


class Procedure(NamedTuple):
    """One row of the table."""

    #: stable wire number — append-only, never renumber
    number: int
    #: wire name (``group.verb``)
    name: str
    #: the ``Driver`` method a plain pass-through forwards to; None when
    #: the daemon's handler is written by hand
    method: Optional[str] = None
    #: map keys a CALL body must carry, in ``method``'s positional order
    #: (hand-written handlers may read further, optional keys)
    args: Tuple[str, ...] = ()
    #: dispatched on the guaranteed lane: must never block on a hypervisor
    priority: bool = False
    #: same effect executed once or twice, so safe to re-issue after a
    #: transport failure
    idempotent: bool = False
    #: the CALL opens a virStream on its serial; data frames ride outside
    #: request/response correlation, so such a CALL is never retried
    #: (re-issuing an upload after a lost reply would append the bytes twice)
    stream: bool = False
    #: False: the handler journals nothing, publishes nothing, waits on no job
    #: or lifecycle operation and charges at most one monitor query, so the
    #: daemon answers on the receiving thread instead of waking a worker
    blocking: bool = True
    #: client read-cache scope the reply may be served from, keyed by the
    #: first argument (by the procedure name when there is none)
    cache: Optional[str] = None


_P = Procedure

#: the remote program, served by the daemon's ``libvirtd`` server
REMOTE_PROCEDURES: Tuple[Procedure, ...] = (
    _P(1, "connect.open", None, ("uri",), priority=True, idempotent=True, blocking=False),
    _P(2, "connect.close", priority=True),
    _P(3, "connect.get_capabilities", "get_capabilities", priority=True, idempotent=True, blocking=False),
    _P(4, "connect.get_hostname", "get_hostname", priority=True, idempotent=True, blocking=False),
    _P(5, "connect.get_node_info", "get_node_info", priority=True, idempotent=True, blocking=False),
    _P(6, "connect.list_domains", "list_domains", priority=True, idempotent=True, blocking=False, cache="list"),
    _P(7, "connect.list_defined_domains", "list_defined_domains", priority=True, idempotent=True, blocking=False, cache="list"),
    _P(8, "connect.num_of_domains", "num_of_domains", priority=True, idempotent=True, blocking=False, cache="list"),
    _P(9, "connect.get_version", "get_version", priority=True, idempotent=True, blocking=False),
    _P(10, "domain.lookup_by_name", "domain_lookup_by_name", ("name",), priority=True, idempotent=True, blocking=False),
    _P(11, "domain.lookup_by_uuid", "domain_lookup_by_uuid", ("uuid",), priority=True, idempotent=True, blocking=False),
    _P(12, "domain.lookup_by_id", "domain_lookup_by_id", ("id",), priority=True, idempotent=True, blocking=False),
    _P(13, "domain.define_xml", "domain_define_xml", ("xml",)),
    _P(14, "domain.undefine", "domain_undefine", ("name",)),
    _P(15, "domain.create", "domain_create", ("name",)),
    _P(16, "domain.create_xml", "domain_create_xml", ("xml",)),
    _P(17, "domain.shutdown", "domain_shutdown", ("name",)),
    # destroy is the canonical guaranteed-finish operation
    _P(18, "domain.destroy", "domain_destroy", ("name",), priority=True),
    _P(19, "domain.suspend", "domain_suspend", ("name",)),
    _P(20, "domain.resume", "domain_resume", ("name",)),
    _P(21, "domain.reboot", "domain_reboot", ("name",)),
    _P(22, "domain.get_info", "domain_get_info", ("name",), priority=True, idempotent=True, blocking=False),
    _P(23, "domain.get_state", "domain_get_state", ("name",), priority=True, idempotent=True, blocking=False, cache="state"),
    _P(24, "domain.get_xml_desc", "domain_get_xml_desc", ("name",), priority=True, idempotent=True, blocking=False, cache="xml"),
    _P(25, "domain.set_memory", "domain_set_memory", ("name", "memory_kib")),
    _P(26, "domain.set_vcpus", "domain_set_vcpus", ("name", "vcpus")),
    _P(27, "domain.save", "domain_save", ("name", "path")),
    _P(28, "domain.restore", "domain_restore", ("path",)),
    _P(29, "domain.get_autostart", "domain_get_autostart", ("name",), priority=True, idempotent=True, blocking=False),
    _P(30, "domain.set_autostart", "domain_set_autostart", ("name", "autostart")),
    _P(31, "domain.snapshot_create", "snapshot_create", ("name", "snapshot")),
    _P(32, "domain.snapshot_list", "snapshot_list", ("name",), priority=True, idempotent=True, blocking=False),
    _P(33, "domain.snapshot_revert", "snapshot_revert", ("name", "snapshot")),
    _P(34, "domain.snapshot_delete", "snapshot_delete", ("name", "snapshot")),
    _P(35, "domain.migrate_begin", "migrate_begin", ("name",)),
    _P(36, "domain.migrate_perform", "migrate_perform", ("name", "cookie", "params")),
    _P(37, "domain.migrate_finish", "migrate_finish", ("cookie", "stats")),
    _P(38, "domain.attach_device", "domain_attach_device", ("name", "xml")),
    _P(39, "domain.detach_device", "domain_detach_device", ("name", "xml")),
    _P(40, "network.lookup_by_name", "network_lookup_by_name", ("name",), priority=True, idempotent=True, blocking=False),
    _P(41, "network.define_xml", "network_define_xml", ("xml",)),
    _P(42, "network.undefine", "network_undefine", ("name",)),
    _P(43, "network.create", "network_create", ("name",)),
    _P(44, "network.destroy", "network_destroy", ("name",)),
    _P(45, "network.list", "network_list", priority=True, idempotent=True, blocking=False),
    _P(46, "network.get_xml_desc", "network_get_xml_desc", ("name",), priority=True, idempotent=True, blocking=False),
    _P(47, "storage.pool_lookup_by_name", "storage_pool_lookup_by_name", ("name",), priority=True, idempotent=True, blocking=False),
    _P(48, "storage.pool_define_xml", "storage_pool_define_xml", ("xml",)),
    _P(49, "storage.pool_undefine", "storage_pool_undefine", ("name",)),
    _P(50, "storage.pool_create", "storage_pool_create", ("name",)),
    _P(51, "storage.pool_destroy", "storage_pool_destroy", ("name",)),
    _P(52, "storage.pool_list", "storage_pool_list", priority=True, idempotent=True, blocking=False),
    _P(53, "storage.pool_get_info", "storage_pool_get_info", ("name",), priority=True, idempotent=True, blocking=False),
    _P(54, "storage.pool_get_xml_desc", "storage_pool_get_xml_desc", ("name",), priority=True, idempotent=True, blocking=False),
    _P(55, "storage.vol_create_xml", "storage_vol_create_xml", ("pool", "xml")),
    _P(56, "storage.vol_delete", "storage_vol_delete", ("pool", "volume")),
    _P(57, "storage.vol_list", "storage_vol_list", ("pool",), priority=True, idempotent=True, blocking=False),
    _P(58, "storage.vol_get_info", "storage_vol_get_info", ("pool", "volume"), priority=True, idempotent=True, blocking=False),
    _P(59, "connect.domain_event_register", priority=True, idempotent=True, blocking=False),
    _P(60, "connect.domain_event_deregister", priority=True, idempotent=True, blocking=False),
    _P(61, "connect.ping", priority=True, idempotent=True, blocking=False),
    _P(62, "domain.get_job_info", "domain_get_job_info", ("name",), priority=True, idempotent=True, blocking=False),
    # abort must get through even when the normal lanes are saturated by
    # the very job being cancelled
    _P(63, "domain.abort_job", "domain_abort_job", ("name",), priority=True),
    _P(64, "domain.migrate_prepare", "migrate_prepare", ("description",)),
    _P(65, "connect.supports_feature", priority=True, idempotent=True, blocking=False),
    _P(66, "domain.migrate_confirm", "migrate_confirm", ("name", "cancelled")),
    _P(67, "domain.get_stats", "domain_get_stats", ("name",), priority=True, idempotent=True, blocking=False),
    _P(68, "domain.migrate_p2p", "migrate_p2p", ("name", "dest_uri", "params")),
    _P(69, "network.dhcp_leases", "network_dhcp_leases", ("name",), priority=True, idempotent=True, blocking=False),
    _P(70, "domain.get_scheduler_params", "domain_get_scheduler_params", ("name",), priority=True, idempotent=True, blocking=False),
    _P(71, "domain.set_scheduler_params", "domain_set_scheduler_params", ("name", "params")),
    _P(72, "domain.checkpoint_create", "checkpoint_create", ("name", "checkpoint")),
    _P(73, "domain.checkpoint_list", "checkpoint_list", ("name",), priority=True, idempotent=True, blocking=False),
    _P(74, "domain.checkpoint_delete", "checkpoint_delete", ("name", "checkpoint")),
    _P(75, "domain.checkpoint_get_xml_desc", "checkpoint_get_xml_desc", ("name", "checkpoint"), priority=True, idempotent=True, blocking=False),
    _P(76, "domain.backup_begin", None, ("name",)),
    _P(77, "domain.managed_save", "domain_managed_save", ("name",)),
    _P(78, "domain.managed_save_remove", "domain_managed_save_remove", ("name",)),
    _P(79, "domain.has_managed_save", "domain_has_managed_save", ("name",), priority=True, idempotent=True, blocking=False),
    _P(80, "connect.event_subscribe", priority=True),
    _P(81, "connect.event_unsubscribe", priority=True),
    _P(82, "storage.vol_upload", None, ("pool", "volume"), stream=True),
    _P(83, "storage.vol_download", None, ("pool", "volume"), stream=True),
    _P(84, "domain.open_console", None, ("name",), stream=True),
    _P(85, "domain.backup_begin_pull", None, ("name",), stream=True),
    # pooled, not inline: one monitor query per running guest, not at most one
    _P(86, "connect.get_all_domain_stats", "get_all_domain_stats", ("active",), priority=True, idempotent=True),
)

#: the administration interface, served by the daemon's separate ``admin``
#: server (handlers in ``repro.daemon.admin_server``, all on the priority lane)
ADMIN_PROCEDURES: Tuple[Procedure, ...] = (
    _P(100, "admin.connect_open"),
    _P(101, "admin.srv_list"),
    _P(102, "admin.srv_threadpool_info"),
    _P(103, "admin.srv_threadpool_set"),
    _P(104, "admin.srv_clients_info"),
    _P(105, "admin.srv_clients_set"),
    _P(106, "admin.client_list"),
    _P(107, "admin.client_info"),
    _P(108, "admin.client_disconnect"),
    _P(109, "admin.dmn_log_info"),
    _P(110, "admin.dmn_log_define"),
    _P(111, "admin.srv_stats"),
    _P(112, "admin.client_stats"),
    _P(113, "admin.reset_stats"),
    _P(114, "admin.metrics_export"),
    _P(115, "admin.trace_list"),
    _P(116, "admin.trace_get"),
    _P(117, "admin.daemon_shutdown"),
    _P(118, "admin.flight_dump"),
)


def index(*tables: Tuple[Procedure, ...]) -> Dict[str, Procedure]:
    """name -> row over ``tables``, refusing a table that contradicts itself."""
    by_name: Dict[str, Procedure] = {}
    numbers = set()
    for table in tables:
        for row in table:
            if row.name in by_name or row.number in numbers:
                raise ValueError(f"procedure {row.number} {row.name!r} is declared twice")
            if row.stream and row.idempotent:
                raise ValueError(f"stream procedure {row.name!r} may not be marked idempotent")
            if not row.blocking and (row.stream or not row.priority):
                raise ValueError(f"non-blocking procedure {row.name!r} must be priority and open no stream")
            by_name[row.name] = row
            numbers.add(row.number)
    return by_name


BY_NAME: Dict[str, Procedure] = index(REMOTE_PROCEDURES, ADMIN_PROCEDURES)
