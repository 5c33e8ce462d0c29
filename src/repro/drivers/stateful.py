"""Shared implementation for stateful (daemon-side) drivers.

A stateful driver owns what the hypervisor does not persist: the set of
defined domain configurations, autostart flags, snapshots, virtual
networks, and storage pools.  Concrete drivers (qemu, xen, lxc, test)
supply only the backend adapter — how to start/stop/query a guest
through their hypervisor's *native* interface — and inherit everything
else, which is exactly how libvirt keeps its drivers small (a subclass that
defines a procedure row's method is refused; the rows are counted below).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint import CheckpointTree, JobEngine, JobPhase
from repro.core.driver import Driver
from repro.core.events import LIFECYCLE, EventBus, EventCallback, lifecycle_fields, lifecycle_view
from repro.core.states import (
    VALID_TRANSITIONS,
    DomainEvent,
    DomainState,
    from_run_state,
)
from repro.errors import (
    DaemonCrashError,
    DomainExistsError,
    InvalidArgumentError,
    InvalidOperationError,
    MigrationError,
    MigrationIncompatibleError,
    NetworkExistsError,
    NoDomainError,
    NoNetworkError,
    NoSnapshotError,
    NoStoragePoolError,
    NoStorageVolumeError,
    ResourceBusyError,
    SnapshotExistsError,
    StoragePoolExistsError,
    StorageVolumeExistsError,
)
from repro.faults.crash import CrashPoint
from repro.hypervisors.base import Backend
from repro.migration.precopy import run_precopy
from repro.rpc.procedures import REMOTE_PROCEDURES
from repro.util import uuidutil
from repro.xmlconfig.checkpoint import CheckpointConfig
from repro.xmlconfig.domain import DomainConfig
from repro.xmlconfig.network import NetworkConfig
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

MIB = 1024 * 1024
VERSION = (1, 0, 0)


class LocalConsole:
    """In-process endpoint for a domain's serial console.

    The modelled guest prints a connect banner and echoes whatever it
    is sent — enough to exercise the bidirectional data path.  The
    remote driver wraps the same duck API
    (``send``/``recv``/``close``/``closed``) around a stream, so
    ``virsh console`` behaves identically on both paths.
    """

    def __init__(self, domain: str) -> None:
        self.domain = domain
        self.closed = False
        self._outbuf: "deque[bytes]" = deque()
        self._outbuf.append(
            f"Connected to domain {domain}\r\nEscape character is ^]\r\n".encode()
        )

    def send(self, data: "str | bytes") -> None:
        if self.closed:
            raise InvalidOperationError(
                f"console for domain {self.domain!r} is closed"
            )
        payload = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        if payload:
            self._outbuf.append(payload)

    def recv(self) -> bytes:
        if self._outbuf:
            return self._outbuf.popleft()
        return b""

    def close(self) -> None:
        self.closed = True


class _DomainRecord:
    """Driver-side bookkeeping for one domain."""

    __slots__ = (
        "config",
        "persistent",
        "autostart",
        "snapshots",
        "checkpoints",
        "saved_path",
        "managed_save_path",
        "scheduler",
        "last_job",
        "job",
        "xml",
    )

    def __init__(self, config: DomainConfig, persistent: bool) -> None:
        self.config = config
        self.persistent = persistent
        self.autostart = False
        self.snapshots: Dict[str, Dict[str, Any]] = {}
        #: parent/child checkpoint tree (frozen dirty-block bitmaps)
        self.checkpoints = CheckpointTree()
        self.saved_path: Optional[str] = None
        #: driver-managed save image; the next start auto-restores it
        self.managed_save_path: Optional[str] = None
        #: CPU scheduler tunables (virsh schedinfo)
        self.scheduler: Dict[str, int] = {
            "cpu_shares": 1024,
            "vcpu_period": 100000,
            "vcpu_quota": -1,
        }
        #: the most recently completed long-running job (migration/save)
        self.last_job: Optional[Dict[str, Any]] = None
        #: the running background job the journal's ``job`` record describes
        self.job: Optional[Any] = None
        #: the committed rendering of ``config`` (``StatefulDriver._xml``);
        #: ``m.touch("domain", ...)`` drops it
        self.xml: Optional[str] = None


class _Mutation:
    """One :meth:`StatefulDriver._mutation`: its lock hold and what it changed."""

    __slots__ = ("driver", "touched", "queued")

    def __init__(self, driver: "StatefulDriver") -> None:
        self.driver = driver
        #: ``(kind, key)`` records to journal, in order
        self.touched: List[Tuple[str, str]] = []
        #: ``(bus record kind, fields)`` to publish, in order
        self.queued: List[Tuple[str, Dict[str, Any]]] = []

    def __enter__(self) -> "_Mutation":
        self.driver._lock.acquire()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.driver._commit(self, clean=exc_type is None)

    def touch(self, kind: str, key: str) -> None:
        self.touched.append((kind, key))
        if kind == "domain":
            record = self.driver._domains.get(key)
            if record is not None:
                record.xml = None

    def emit(self, domain: str, event: DomainEvent, detail: str = "") -> None:
        """Queue the lifecycle record announcing ``event``."""
        self.queued.append(("lifecycle", lifecycle_fields(domain, event, detail)))

    def publish(self, kind: str, **fields: Any) -> None:
        self.queued.append((kind, fields))


class StatefulDriver(Driver):
    """Base class: full Driver surface over a backend adapter."""

    name = "stateful"
    stateless = False
    #: domain types this driver's capabilities accept
    accepted_types: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        served = sorted(_ROW_METHODS.intersection(vars(cls)))
        if served:
            raise TypeError(f"{cls.__name__} overrides row methods {served}: implement the backend adapter")
        super().__init_subclass__(**kwargs)

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self._lock = threading.RLock()
        self._domains: Dict[str, _DomainRecord] = {}
        self._uuid_index: Dict[str, str] = {}
        self._ids: Dict[str, int] = {}
        self._next_id = 1
        self.events = EventBus(
            metrics=lambda: self.metrics,
            tracer=lambda: self.tracer,
        )
        self._networks: Dict[str, NetworkConfig] = {}
        self._active_networks: set = set()
        #: network name -> {mac: {"ip", "hostname", "expiry"}}
        self._dhcp_leases: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._pools: Dict[str, StoragePoolConfig] = {}
        self._active_pools: set = set()
        self._pool_volumes: Dict[str, Dict[str, VolumeConfig]] = {}
        #: write-ahead journal (attached by a hosting daemon); None keeps
        #: the driver purely in-memory, exactly the pre-persistence shape
        self._state = None
        #: seeded daemon-kill script consulted on every journal write
        self.crash_plan = None
        #: counts every uniform-API entry (the paper's call accounting)
        self.api_calls = 0
        #: optional observability registry, attached by a hosting daemon
        self.metrics = None
        #: ``driver_api_calls_total{driver}``, registered by the first call
        #: counted after a registry is attached
        self._m_api_calls = None
        #: optional tracer, attached by a hosting daemon
        self.tracer = None
        #: optional flight recorder, attached by a hosting daemon once
        #: recovery is over; the funnel reports each commit to it
        self.recorder = None
        #: cancellable background jobs (backups); lazy getters so the
        #: engine sees metrics/tracer attached after construction
        self.jobs = JobEngine(
            backend.clock,
            driver=self.name,
            metrics=lambda: self.metrics,
            tracer=lambda: self.tracer,
        )

    # ==================================================================
    # backend adapter — the only part concrete drivers implement
    # ==================================================================

    def _backend_start(self, config: DomainConfig, paused: bool = False) -> None:
        raise NotImplementedError

    def _backend_shutdown(self, name: str) -> None:
        raise NotImplementedError

    def _backend_destroy(self, name: str) -> None:
        raise NotImplementedError

    def _backend_suspend(self, name: str) -> None:
        raise NotImplementedError

    def _backend_resume(self, name: str) -> None:
        raise NotImplementedError

    def _backend_reboot(self, name: str) -> None:
        raise NotImplementedError

    def _backend_info(self, name: str) -> Dict[str, Any]:
        return self.backend.guest_info(name)

    def _backend_set_memory(self, name: str, memory_kib: int) -> None:
        raise NotImplementedError

    def _backend_set_vcpus(self, name: str, vcpus: int) -> None:
        raise NotImplementedError

    def _backend_save(self, name: str, path: str) -> None:
        raise NotImplementedError

    def _backend_restore(self, config: DomainConfig, path: str) -> None:
        raise NotImplementedError

    # ==================================================================
    # shared helpers
    # ==================================================================

    def _count_call(self) -> None:
        self.api_calls += 1
        counted = self._m_api_calls
        if counted is None:
            if self.metrics is None:
                return
            counted = self._m_api_calls = self.metrics.counter(
                "driver_api_calls_total",
                "Uniform-API entries, by driver",
                ("driver",),
            ).labels(driver=self.name)
        counted.inc()

    def _record(self, name: str) -> _DomainRecord:
        with self._lock:
            record = self._domains.get(name)
        if record is None:
            raise NoDomainError(f"no domain with matching name {name!r}")
        return record

    def _xml(self, record: _DomainRecord) -> str:
        """``record.config.to_xml()`` as last committed: rendered by the
        first reader after a touch, under the lock, so it never shows a
        mutation's body half done."""
        xml = record.xml
        if xml is None:
            with self._lock:
                xml = record.xml
                if xml is None:
                    xml = record.xml = record.config.to_xml()
        return xml

    def _domain_state(self, name: str) -> DomainState:
        try:
            if self.backend.has_guest(name):
                return from_run_state(self.backend.guest_state(name))
        except NoDomainError:
            pass  # destroyed between the two looks: it is shut off now
        return DomainState.SHUTOFF

    def _check_transition(self, name: str, op: str) -> DomainState:
        state = self._domain_state(name)
        if state not in VALID_TRANSITIONS[op]:
            raise InvalidOperationError(
                f"cannot {op} domain {name!r}: domain is "
                f"{DomainState(state).name.lower()}"
            )
        return state

    def _public_record(self, name: str) -> Dict[str, Any]:
        record = self._record(name)
        with self._lock:
            domain_id = self._ids.get(name)
        return {
            "name": name,
            "uuid": record.config.uuid,
            "id": domain_id if self.backend.has_guest(name) else None,
            "state": int(self._domain_state(name)),
            "persistent": record.persistent,
        }

    def _assign_id(self, name: str) -> None:
        """Give a started guest the next id (inside a mutation)."""
        self._ids[name] = self._next_id
        self._next_id += 1

    def _forget_transient(self, name: str) -> None:
        """After a transient domain stops it ceases to exist (inside a mutation)."""
        record = self._domains.get(name)
        if record is not None and not record.persistent:
            self._domains.pop(name, None)
            if record.config.uuid:
                self._uuid_index.pop(record.config.uuid, None)

    # ==================================================================
    # persistence: write-ahead journaling + non-intrusive recovery
    # ==================================================================

    def attach_state(self, journal) -> None:
        """Attach a :class:`~repro.state.StateJournal`; every later
        mutation journals through it before the caller is acknowledged."""
        self._state = journal

    def _mutation(self) -> _Mutation:
        """The one way driver state changes: ``with self._mutation() as m:``.

        The body checks and writes the bookkeeping under ``self._lock``,
        naming each changed record (``m.touch``, which also drops a
        domain's committed rendering, ``_xml``) and what subscribers
        should hear (``m.emit``/``m.publish``).  On a clean exit the
        touched records are journalled in order, the lock is released,
        then the events are delivered in order, and one ``mutation``
        flight record names both; a body that raises does none of it.
        No subscriber hears of a change recovery would not contain, and
        none runs under the lock.  Backend operations,
        image-store I/O and ``self.jobs`` calls stay outside the body:
        the job engine runs its hooks (mutations) under its own lock.
        """
        return _Mutation(self)

    def _commit(self, m: _Mutation, clean: bool) -> None:
        """The funnel's exit: journal, release the lock, publish, then
        report what was committed in one flight record."""
        journalled = []
        try:
            if clean and self._state is not None:
                for kind, key in m.touched:
                    lsn = self._journal_write(kind, key, getattr(self, "_serialize_" + kind)(key))
                    journalled.append((kind, key, lsn))
        finally:
            self._lock.release()
        if not clean:
            return
        published = [self.events.publish(kind, **fields) for kind, fields in m.queued]
        recorder = self.recorder
        if recorder is not None and (journalled or published):
            # tuples of str/int: the collector stops tracking them, so a
            # full ring does not raise the bar for a full collection
            recorder.record(
                "mutation",
                driver=self.name,
                journal=tuple(journalled),
                events=tuple((r["seq"], r["kind"], r["domain"], r["event"]) for r in published),
            )

    def _journal_write(self, kind: str, key: str, data: Optional[Dict[str, Any]]) -> int:
        """One journal append, with crash injection; only the funnel calls it.

        A ``MID_JOURNAL`` crash fires *after* backend reality changed
        but tears this very append: only a partial record reaches disk
        and the daemon dies, which is the hardest case recovery must
        reconcile (reality moved, the journal never heard about it).
        """
        journal = self._state
        plan = self.crash_plan
        if plan is not None and plan.decide(
            CrashPoint.MID_JOURNAL, f"{kind}:{key}", self.backend.clock.now()
        ):
            journal.append_torn(kind, key, data)
            raise DaemonCrashError(f"daemon crashed tearing the journal write of {kind}:{key}")
        if data is None:
            return journal.delete(kind, key)
        return journal.put(kind, key, data)

    # the funnel's serialisers, ``_serialize_<kind>``: one record's journal
    # form (None: a tombstone), read while the funnel holds the lock

    def _serialize_domain(self, name: str) -> Optional[Dict[str, Any]]:
        record = self._domains.get(name)
        domain_id = self._ids.get(name)
        if record is None:
            return None
        return {
            "xml": self._xml(record),
            "persistent": record.persistent,
            "autostart": record.autostart,
            "snapshots": record.snapshots,
            "checkpoints": record.checkpoints.to_dict(),
            "saved_path": record.saved_path,
            "managed_save_path": record.managed_save_path,
            "scheduler": dict(record.scheduler),
            "last_job": record.last_job,
            "id": domain_id,
        }

    def _serialize_network(self, name: str) -> Optional[Dict[str, Any]]:
        config = self._networks.get(name)
        if config is None:
            return None
        return {
            "xml": config.to_xml(),
            "active": name in self._active_networks,
            "leases": {
                mac: dict(info) for mac, info in self._dhcp_leases.get(name, {}).items()
            },
        }

    def _serialize_pool(self, name: str) -> Optional[Dict[str, Any]]:
        config = self._pools.get(name)
        if config is None:
            return None
        return {
            "xml": config.to_xml(),
            "active": name in self._active_pools,
            "volumes": {
                vol: vc.to_xml() for vol, vc in self._pool_volumes.get(name, {}).items()
            },
        }

    def _serialize_job(self, name: str) -> Optional[Dict[str, Any]]:
        """A running job's parameters, or None once it is over."""
        job = getattr(self._domains.get(name), "job", None)
        if job is None:
            return None
        return {
            "job_type": job.job_type,
            "operation": job.operation,
            "total": job.total_bytes,
            "bandwidth": job.bandwidth_bytes_s,
            "extra": dict(job.extra),
            "started_at": job.started_at,
        }

    def _backup_job_final(self, record: _DomainRecord, info: Dict[str, Any]) -> None:
        """Terminal-job hook: persist the outcome, drop the job record."""
        name = record.config.name
        with self._mutation() as m:
            record.last_job = info
            record.job = None
            m.touch("job", name)
            m.touch("domain", name)
            m.publish(
                "job",
                domain=name,
                event=str(info.get("phase", "completed")),
                detail=str(info.get("operation", "")),
                job_id=info.get("job_id"),
            )

    def flush_state(self) -> None:
        """Collapse the journal into a snapshot (graceful shutdown)."""
        if self._state is not None:
            self._state.checkpoint()

    def recover_state(self) -> Dict[str, Any]:
        """Rebuild bookkeeping from the journal, deferring to backend
        reality — the paper's non-intrusive restart.

        The journal only ever records *our* bookkeeping; whether a guest
        is actually running is the hypervisor's truth.  Recovery therefore:

        * restores networks, pools, and volumes from their records;
        * restores domain records, re-adopting running guests under
          their journalled ids, keeping persistent-but-stopped configs
          as shutoff, and dropping transient records whose guest died;
        * adopts guests the journal never heard of (a crash tore the
          record after the backend already started them) as transient
          domains with a config synthesized from the runtime;
        * re-creates interrupted background jobs just long enough to
          fail them cleanly, so their cleanup drops partial volumes and
          ``domain_get_job_info`` reports FAILED instead of wedging;
        * rewrites the reconciled state and checkpoints the journal, so
          the next recovery is snapshot load + empty tail.
        """
        journal = self._state
        if journal is None:
            return {"recovered": False}
        stats: Dict[str, Any] = {
            "recovered": True,
            "domains": 0,
            "adopted": 0,
            "dropped_transient": 0,
            "failed_jobs": [],
            "torn_tail_discarded": journal.torn_tail_discarded,
            "replayed_records": journal.replayed_records,
        }
        journalled_domains = journal.entries("domain")
        with self._mutation():
            for name, data in sorted(journal.entries("network").items()):
                self._networks[name] = NetworkConfig.from_xml(data["xml"])
                if data.get("active"):
                    self._active_networks.add(name)
                leases = data.get("leases") or {}
                if leases:
                    self._dhcp_leases[name] = {mac: dict(info) for mac, info in leases.items()}
            for name, data in sorted(journal.entries("pool").items()):
                self._pools[name] = StoragePoolConfig.from_xml(data["xml"])
                if data.get("active"):
                    self._active_pools.add(name)
                self._pool_volumes[name] = {
                    vol: VolumeConfig.from_xml(vol_xml)
                    for vol, vol_xml in sorted((data.get("volumes") or {}).items())
                }
            max_id = 0
            for name, data in sorted(journalled_domains.items()):
                config = DomainConfig.from_xml(data["xml"])
                running = self.backend.has_guest(name)
                persistent = bool(data.get("persistent"))
                if not running and not persistent:
                    # transient and its guest is gone: it ceased to exist
                    stats["dropped_transient"] += 1
                    continue
                record = _DomainRecord(config, persistent=persistent)
                record.autostart = bool(data.get("autostart"))
                record.snapshots = {
                    snap: dict(body) for snap, body in (data.get("snapshots") or {}).items()
                }
                record.checkpoints = CheckpointTree.from_dict(data.get("checkpoints") or {})
                record.saved_path = data.get("saved_path")
                record.managed_save_path = data.get("managed_save_path")
                record.scheduler.update(data.get("scheduler") or {})
                record.last_job = data.get("last_job")
                self._domains[name] = record
                self._uuid_index[config.uuid] = name
                if running and data.get("id"):
                    # re-adopt the running guest under its old id
                    self._ids[name] = int(data["id"])
                    max_id = max(max_id, int(data["id"]))
                stats["domains"] += 1
            # guests the journal never heard of: reality wins, adopt them
            for name in self.backend.list_guests():
                if name in self._domains:
                    continue
                runtime = self.backend._get(name)
                config = DomainConfig(
                    name,
                    domain_type=self.accepted_types[0] if self.accepted_types else "test",
                    uuid=runtime.uuid,
                    memory_kib=runtime.max_memory_kib,
                    current_memory_kib=runtime.memory_kib,
                    vcpus=runtime.vcpus,
                )
                self._domains[name] = _DomainRecord(config, persistent=False)
                self._uuid_index[config.uuid] = name
                stats["adopted"] += 1
            self._next_id = max(self._next_id, max_id + 1)
            for name in self.backend.list_guests():
                if name not in self._ids:
                    self._assign_id(name)
        # interrupted jobs: re-create, then fail — cleanup runs for real
        for name, data in sorted(journal.entries("job").items()):
            record = self._domains.get(name)
            if record is not None and self.backend.has_guest(name):
                extra = dict(data.get("extra") or {})
                pool = extra.get("target_pool")
                volume = extra.get("target_volume")
                self.jobs.begin(
                    name,
                    data.get("job_type", "backup"),
                    data.get("operation", "backup-full"),
                    max(int(data.get("total", 1)), 1),
                    max(float(data.get("bandwidth", 1.0)), 1.0),
                    extra=extra,
                    on_cleanup=(
                        (lambda p=pool, v=volume: self._drop_backup_volume(p, v))
                        if pool and volume
                        else None
                    ),
                    on_final=lambda info, r=record: setattr(r, "last_job", info),
                )
                self.jobs.fail_active(name, "backup job interrupted by daemon restart")
                stats["failed_jobs"].append(name)
        # the bookkeeping now reflects reality: rewrite every record (no
        # job is running any more) and collapse history so the next
        # recovery replays a minimal tail
        with self._mutation() as m:
            for name in sorted(journal.entries("job")):
                m.touch("job", name)
            for name in sorted(set(journalled_domains) | set(self._domains)):
                m.touch("domain", name)
            for name in sorted(self._networks):
                m.touch("network", name)
            for name in sorted(self._pools):
                m.touch("pool", name)
        journal.checkpoint()
        return stats

    # ==================================================================
    # connection-level
    # ==================================================================

    def close(self) -> None:
        """Stateful drivers persist: closing a connection drops nothing."""

    def get_hostname(self) -> str:
        return self.backend.host.hostname

    def get_capabilities(self) -> str:
        from repro.xmlconfig.capabilities import GuestCapability

        guests = []
        if "lxc" in self.accepted_types:
            guests.append(GuestCapability("exe", self.backend.host.arch, ["lxc"]))
        hvm_types = [t for t in self.accepted_types if t != "lxc"]
        if hvm_types:
            os_type = "xen" if self.accepted_types == ("xen",) else "hvm"
            guests.append(GuestCapability("hvm", self.backend.host.arch, hvm_types))
            if os_type == "xen":
                guests.append(GuestCapability("xen", self.backend.host.arch, hvm_types))
        return self.backend.host.capabilities(guests).to_xml()

    def get_node_info(self) -> Dict[str, int]:
        return self.backend.host.node_info()

    def get_version(self) -> Tuple[int, int, int]:
        return VERSION

    # ==================================================================
    # domain enumeration / lookup
    # ==================================================================

    def list_domains(self) -> List[str]:
        return self.backend.list_guests()

    def list_defined_domains(self) -> List[str]:
        with self._lock:
            names = list(self._domains)
        running = set(self.backend.list_guests())  # the running set, read once
        return sorted(n for n in names if n not in running)

    def num_of_domains(self) -> int:
        return len(self.backend.list_guests())

    def domain_lookup_by_name(self, name: str) -> Dict[str, Any]:
        return self._public_record(name)

    def domain_lookup_by_uuid(self, uuid: str) -> Dict[str, Any]:
        with self._lock:
            name = self._uuid_index.get(uuidutil.normalize_uuid(uuid))
        if name is None:
            raise NoDomainError(f"no domain with matching uuid {uuid!r}")
        return self._public_record(name)

    def domain_lookup_by_id(self, domain_id: int) -> Dict[str, Any]:
        with self._lock:
            matches = [
                name
                for name, assigned in self._ids.items()
                if assigned == domain_id and self.backend.has_guest(name)
            ]
        if not matches:
            raise NoDomainError(f"no domain with matching id {domain_id}")
        return self._public_record(matches[0])

    # ==================================================================
    # domain lifecycle
    # ==================================================================

    def _validate_config(self, xml: str) -> DomainConfig:
        config = DomainConfig.from_xml(xml)
        if self.accepted_types and config.domain_type not in self.accepted_types:
            raise InvalidArgumentError(
                f"driver {self.name!r} cannot run domain type "
                f"{config.domain_type!r} (accepts {list(self.accepted_types)})"
            )
        if config.uuid is None:
            config.uuid = uuidutil.generate_uuid(self.backend.rng)
        # auto-assign MAC addresses exactly like libvirt does at define time
        used = {iface.mac for iface in config.interfaces if iface.mac}
        for iface in config.interfaces:
            while iface.mac is None:
                candidate = "52:54:00:%02x:%02x:%02x" % (
                    self.backend.rng.randrange(256),
                    self.backend.rng.randrange(256),
                    self.backend.rng.randrange(256),
                )
                if candidate not in used:
                    iface.mac = candidate
                    used.add(candidate)
        config.validate()
        return config

    def domain_define_xml(self, xml: str) -> Dict[str, Any]:
        # persisting the config costs a (small) backend-dependent write
        self.backend.cost.charge(self.backend.clock, "define")
        config = self._validate_config(xml)
        with self._mutation() as m:
            existing = self._domains.get(config.name)
            if existing is not None:
                if existing.config.uuid != config.uuid and self.backend.has_guest(config.name):
                    raise DomainExistsError(
                        f"domain {config.name!r} already exists with a different uuid"
                    )
                # redefining is allowed: update the persistent config
                self._uuid_index.pop(existing.config.uuid, None)
                existing.config = config
                existing.persistent = True
                self._uuid_index[config.uuid] = config.name
            else:
                by_uuid = self._uuid_index.get(config.uuid)
                if by_uuid is not None and by_uuid != config.name:
                    raise DomainExistsError(
                        f"uuid {config.uuid} already used by domain {by_uuid!r}"
                    )
                self._domains[config.name] = _DomainRecord(config, persistent=True)
                self._uuid_index[config.uuid] = config.name
            m.emit(config.name, DomainEvent.DEFINED)
            m.touch("domain", config.name)
        return self._public_record(config.name)

    def domain_undefine(self, name: str) -> None:
        self.backend.cost.charge(self.backend.clock, "undefine")
        with self._mutation() as m:
            record = self._record(name)
            if self.backend.has_guest(name):
                raise InvalidOperationError(f"cannot undefine domain {name!r} while it is active")
            self._domains.pop(name, None)
            if record.config.uuid:
                self._uuid_index.pop(record.config.uuid, None)
            m.emit(name, DomainEvent.UNDEFINED)
            m.touch("domain", name)

    def domain_create(self, name: str) -> None:
        record = self._record(name)
        self._check_transition(name, "start")
        path = record.managed_save_path
        if path is not None:
            self._backend_restore(record.config, path)
        else:
            self._backend_start(record.config)
        with self._mutation() as m:
            if path is not None:
                record.managed_save_path = None
                if record.saved_path == path:
                    record.saved_path = None
            self._started(m, record.config, "" if path is None else "restored")

    def _started(self, m: _Mutation, config: DomainConfig, detail: str) -> None:
        """Bookkeeping of a guest the backend just started (inside a mutation)."""
        self._assign_id(config.name)
        self._assign_dhcp_leases(m, config)
        m.emit(config.name, DomainEvent.STARTED, detail)
        m.touch("domain", config.name)

    def domain_create_xml(self, xml: str) -> Dict[str, Any]:
        config = self._validate_config(xml)
        # the record is reserved before the guest boots, so a concurrent
        # define or create of the same name is refused; it is journalled
        # once the guest runs
        with self._mutation():
            if config.name in self._domains or self.backend.has_guest(config.name):
                raise DomainExistsError(f"domain {config.name!r} already exists")
            self._domains[config.name] = _DomainRecord(config, persistent=False)
            self._uuid_index[config.uuid] = config.name
        try:
            self._backend_start(config)
        except Exception:
            with self._mutation():
                self._domains.pop(config.name, None)
                self._uuid_index.pop(config.uuid, None)
            raise
        with self._mutation() as m:
            self._started(m, config, "booted")
        return self._public_record(config.name)

    def domain_shutdown(self, name: str) -> None:
        self._record(name)
        self._check_transition(name, "shutdown")
        self._backend_shutdown(name)
        self.jobs.fail_active(name, "domain shut down during job")
        with self._mutation() as m:
            m.emit(name, DomainEvent.SHUTDOWN, "guest-initiated")
            self._stopped(m, name, "shutdown")

    def domain_destroy(self, name: str) -> None:
        self._record(name)
        self._check_transition(name, "destroy")
        self._backend_destroy(name)
        self.jobs.fail_active(name, "domain destroyed during job")
        with self._mutation() as m:
            self._stopped(m, name, "destroyed")

    def _stopped(self, m: _Mutation, name: str, detail: str) -> None:
        """Bookkeeping of a guest the backend just stopped (inside a mutation)."""
        self._release_dhcp_leases(m, self._record(name).config)
        m.emit(name, DomainEvent.STOPPED, detail)
        self._forget_transient(name)
        m.touch("domain", name)

    def domain_suspend(self, name: str) -> None:
        self._record(name)
        self._check_transition(name, "suspend")
        self._backend_suspend(name)
        with self._mutation() as m:
            m.emit(name, DomainEvent.SUSPENDED)

    def domain_resume(self, name: str) -> None:
        self._record(name)
        self._check_transition(name, "resume")
        self._backend_resume(name)
        with self._mutation() as m:
            m.emit(name, DomainEvent.RESUMED)

    def domain_reboot(self, name: str) -> None:
        self._record(name)
        self._check_transition(name, "reboot")
        self._backend_reboot(name)

    # ==================================================================
    # domain introspection / tuning
    # ==================================================================

    def domain_get_info(self, name: str) -> Dict[str, Any]:
        record = self._record(name)
        try:
            raw = self._backend_info(name) if self.backend.has_guest(name) else None
        except NoDomainError:
            raw = None  # destroyed while the monitor query was in flight
        if raw is not None:
            return {
                "state": int(from_run_state_str(raw["state"])),
                "max_memory_kib": raw["max_memory_kib"],
                "memory_kib": raw["memory_kib"],
                "vcpus": raw["vcpus"],
                "cpu_seconds": raw["cpu_seconds"],
            }
        return {
            "state": int(DomainState.SHUTOFF),
            "max_memory_kib": record.config.memory_kib,
            "memory_kib": record.config.current_memory_kib,
            "vcpus": record.config.vcpus,
            "cpu_seconds": 0.0,
        }

    def domain_get_scheduler_params(self, name: str) -> List[Any]:
        from repro.util.typedparams import ParamType, TypedParameter, TypedParamList

        record = self._record(name)
        # TypedParamList keeps the typed-params encoding explicit on the
        # wire even if the set is ever empty
        params = TypedParamList(
            [
                TypedParameter("cpu_shares", ParamType.ULLONG, record.scheduler["cpu_shares"]),
                TypedParameter("vcpu_period", ParamType.ULLONG, record.scheduler["vcpu_period"]),
                TypedParameter("vcpu_quota", ParamType.LLONG, record.scheduler["vcpu_quota"]),
            ]
        )
        return params

    def domain_set_scheduler_params(self, name: str, params: List[Any]) -> None:
        from repro.util import typedparams as tp
        from repro.util.typedparams import ParamType

        record = self._record(name)
        allowed = {
            "cpu_shares": ParamType.ULLONG,
            "vcpu_period": ParamType.ULLONG,
            "vcpu_quota": ParamType.LLONG,
        }
        if not params:
            raise InvalidArgumentError("no scheduler parameters supplied")
        tp.validate_fields(params, allowed)
        values = tp.to_dict(params)
        if "vcpu_period" in values and not 1000 <= values["vcpu_period"] <= 1000000:
            raise InvalidArgumentError(
                f"vcpu_period must be in [1000, 1000000], got {values['vcpu_period']}"
            )
        if "vcpu_quota" in values and values["vcpu_quota"] not in (-1,) and values["vcpu_quota"] < 1000:
            raise InvalidArgumentError(
                f"vcpu_quota must be -1 (unlimited) or >= 1000, got {values['vcpu_quota']}"
            )
        if self.backend.has_guest(name):
            self._apply_scheduler(name, {**record.scheduler, **values})
        with self._mutation() as m:
            record.scheduler.update(values)
            m.publish("config", domain=name, event="scheduler", detail=",".join(sorted(values)))
            m.touch("domain", name)

    def _apply_scheduler(self, name: str, scheduler: Dict[str, int]) -> None:
        """Push scheduler tunables to the live instance (driver-specific)."""
        # default: scale the runtime's utilization share; concrete drivers
        # may override (lxc writes the cgroup cpu.shares file)
        self.backend.cost.charge(self.backend.clock, "set_vcpus")

    def domain_get_job_info(self, name: str) -> Dict[str, Any]:
        record = self._record(name)
        # an active background job wins; the engine writes its terminal
        # info into record.last_job, so finished jobs fall through below
        active = self.jobs.active(name)
        if active is not None:
            return active.info(self.backend.clock.now())
        if record.last_job is None:
            return {"type": "none"}
        return dict(record.last_job)

    def domain_get_state(self, name: str) -> int:
        self._record(name)
        return int(self._domain_state(name))

    def domain_get_xml_desc(self, name: str) -> str:
        return self._xml(self._record(name))

    def get_all_domain_stats(self, active: "Optional[bool]" = True) -> List[Dict[str, Any]]:
        # the guest table is read once: a guest started between the two
        # listings of the base default would be in neither
        with self._lock:
            names = sorted(self._domains)
        if active is not None:
            running = set(self.backend.list_guests())
            names = [name for name in names if (name in running) == active]
        rows = []
        for name in names:
            try:
                rows.append(self._domain_stats(name))
            except NoDomainError:
                continue  # undefined, or transient and destroyed, since the read
        return rows

    def domain_get_stats(self, name: str) -> Dict[str, Any]:
        return self._domain_stats(name)

    def _domain_stats(self, name: str) -> Dict[str, Any]:
        record = self._record(name)
        stats: Dict[str, Any] = {
            "name": name,
            "state": int(self._domain_state(name)),
        }
        runtime = None
        if self.backend.has_guest(name):
            self.backend._charge("query")
            try:
                runtime = self.backend._get(name)
            except NoDomainError:
                pass  # destroyed while the monitor query was in flight
        if runtime is not None:
            stats.update(
                {
                    "cpu_seconds": runtime.cpu_seconds,
                    "vcpus": runtime.vcpus,
                    "memory_kib": runtime.memory_kib,
                    "max_memory_kib": runtime.max_memory_kib,
                    "dirty_rate_mib_s": runtime.dirty_rate_mib_s,
                    **runtime.io_stats(),
                }
            )
        else:
            stats.update(
                {
                    "cpu_seconds": 0.0,
                    "vcpus": record.config.vcpus,
                    "memory_kib": record.config.current_memory_kib,
                    "max_memory_kib": record.config.memory_kib,
                    "dirty_rate_mib_s": 0.0,
                    "disk_read_bytes": 0,
                    "disk_write_bytes": 0,
                    "net_rx_bytes": 0,
                    "net_tx_bytes": 0,
                }
            )
        return stats

    def domain_set_memory(self, name: str, memory_kib: int) -> None:
        record = self._record(name)
        if memory_kib <= 0:
            raise InvalidArgumentError("memory target must be positive")
        if memory_kib > record.config.memory_kib:
            raise InvalidOperationError(
                f"target {memory_kib} KiB above defined maximum "
                f"{record.config.memory_kib} KiB"
            )
        if self.backend.has_guest(name):
            self._backend_set_memory(name, memory_kib)
        with self._mutation() as m:
            record.config.current_memory_kib = memory_kib
            m.publish("config", domain=name, event="memory", memory_kib=memory_kib)
            m.touch("domain", name)

    def domain_set_vcpus(self, name: str, vcpus: int) -> None:
        record = self._record(name)
        if vcpus < 1:
            raise InvalidArgumentError("vcpu count must be at least 1")
        if vcpus > record.config.max_vcpus:
            raise InvalidOperationError(
                f"target {vcpus} vCPUs above defined maximum {record.config.max_vcpus}"
            )
        if self.backend.has_guest(name):
            self._backend_set_vcpus(name, vcpus)
        with self._mutation() as m:
            record.config.vcpus = vcpus
            m.publish("config", domain=name, event="vcpus", vcpus=vcpus)
            m.touch("domain", name)

    def domain_save(self, name: str, path: str) -> None:
        record = self._record(name)
        self._check_transition(name, "save")
        self._backend_save(name, path)
        self.jobs.fail_active(name, "domain stopped by save")
        with self._mutation() as m:
            record.saved_path = path
            record.last_job = {"type": "save", "completed": True, "path": path}
            m.emit(name, DomainEvent.STOPPED, "saved")
            m.touch("domain", name)

    def domain_restore(self, path: str) -> Dict[str, Any]:
        with self._lock:
            matches = [
                (name, rec) for name, rec in self._domains.items()
                if rec.saved_path == path
            ]
        if not matches:
            raise NoDomainError(f"no saved domain image at {path!r}")
        name, record = matches[0]
        self._backend_restore(record.config, path)
        with self._mutation() as m:
            record.saved_path = None
            self._assign_id(name)
            m.emit(name, DomainEvent.STARTED, "restored")
            m.touch("domain", name)
        return self._public_record(name)

    #: where managed-save images live (libvirt: /var/lib/libvirt/qemu/save)
    MANAGED_SAVE_DIR = "/var/lib/pyvirt/save"

    def _managed_save_path(self, name: str) -> str:
        return f"{self.MANAGED_SAVE_DIR}/{name}.save"

    def domain_managed_save(self, name: str) -> None:
        """Save to the driver-managed path; the next start auto-restores."""
        record = self._record(name)
        self._check_transition(name, "save")
        path = self._managed_save_path(name)
        self._backend_save(name, path)
        self.jobs.fail_active(name, "domain stopped by managed save")
        with self._mutation() as m:
            record.saved_path = path
            record.managed_save_path = path
            record.last_job = {"type": "save", "completed": True, "path": path, "managed": True}
            m.emit(name, DomainEvent.STOPPED, "saved")
            m.touch("domain", name)

    def domain_managed_save_remove(self, name: str) -> None:
        record = self._record(name)
        with self._mutation() as m:
            if record.managed_save_path is None:
                raise InvalidOperationError(f"domain {name!r} has no managed save image")
            if record.saved_path == record.managed_save_path:
                record.saved_path = None
            record.managed_save_path = None
            m.publish("config", domain=name, event="managed-save-removed")
            m.touch("domain", name)

    def domain_has_managed_save(self, name: str) -> bool:
        return self._record(name).managed_save_path is not None

    def domain_get_autostart(self, name: str) -> bool:
        return self._record(name).autostart

    def domain_set_autostart(self, name: str, autostart: bool) -> None:
        record = self._record(name)
        with self._mutation() as m:
            if not record.persistent:
                raise InvalidOperationError("transient domains cannot autostart")
            record.autostart = bool(autostart)
            m.publish(
                "config",
                domain=name,
                event="autostart",
                detail="enabled" if record.autostart else "disabled",
            )
            m.touch("domain", name)

    def autostart_all(self) -> List[str]:
        """Start every autostart-flagged inactive domain (daemon boot)."""
        started = []
        with self._lock:
            candidates = [
                name for name, rec in self._domains.items() if rec.autostart
            ]
        for name in sorted(candidates):
            if self._domain_state(name) == DomainState.SHUTOFF:
                self.domain_create(name)
                started.append(name)
        return started

    # ==================================================================
    # device hotplug
    # ==================================================================

    def domain_attach_device(self, name: str, device_xml: str) -> None:
        record = self._record(name)
        from repro.util.xmlutil import parse_xml
        from repro.xmlconfig.domain import DiskDevice, InterfaceDevice

        elem = parse_xml(device_xml)
        if elem.tag == "disk":
            device, devices = DiskDevice.from_element(elem), record.config.disks
        elif elem.tag == "interface":
            device, devices = InterfaceDevice.from_element(elem), record.config.interfaces
        else:
            raise InvalidArgumentError(f"cannot hotplug device <{elem.tag}>")
        with self._mutation() as m:
            devices.append(device)
            try:
                record.config.validate()
            except Exception:
                devices.remove(device)  # a refused device leaves no trace
                raise
            m.publish("device", domain=name, event="attached", detail=elem.tag)
            m.touch("domain", name)

    def domain_detach_device(self, name: str, device_xml: str) -> None:
        record = self._record(name)
        from repro.util.xmlutil import parse_xml
        from repro.xmlconfig.domain import DiskDevice, InterfaceDevice

        elem = parse_xml(device_xml)
        with self._mutation() as m:
            if elem.tag == "disk":
                device = DiskDevice.from_element(elem)
                matches = [d for d in record.config.disks if d.target_dev == device.target_dev]
                if not matches:
                    raise InvalidArgumentError(
                        f"no disk with target {device.target_dev!r} on {name!r}"
                    )
                record.config.disks.remove(matches[0])
            elif elem.tag == "interface":
                device = InterfaceDevice.from_element(elem)
                matches = [i for i in record.config.interfaces if i.mac == device.mac]
                if not matches:
                    raise InvalidArgumentError(f"no interface with mac {device.mac!r}")
                record.config.interfaces.remove(matches[0])
            else:
                raise InvalidArgumentError(f"cannot detach device <{elem.tag}>")
            m.publish("device", domain=name, event="detached", detail=elem.tag)
            m.touch("domain", name)

    # ==================================================================
    # snapshots
    # ==================================================================

    def snapshot_create(self, name: str, snapshot_name: str) -> Dict[str, Any]:
        record = self._record(name)
        if not snapshot_name:
            raise InvalidArgumentError("snapshot name must be non-empty")
        if snapshot_name in record.snapshots:
            raise SnapshotExistsError(
                f"domain {name!r} already has snapshot {snapshot_name!r}"
            )
        self.backend.cost.charge(
            self.backend.clock,
            "snapshot",
            record.config.current_memory_kib / MIB if self.backend.has_guest(name) else 0.0,
        )
        snapshot = {
            "name": snapshot_name,
            "state": int(self._domain_state(name)),
            "xml": self._xml(record),
            "creation_time": self.backend.clock.now(),
        }
        snapshot["disks"] = self._snapshot_disks(record, snapshot_name)
        with self._mutation() as m:
            record.snapshots[snapshot_name] = snapshot
            m.publish("snapshot", domain=name, event="created", detail=snapshot_name)
            m.touch("domain", name)
        return {"name": snapshot_name, "domain": name}

    def _snapshot_disks(
        self, record: _DomainRecord, snapshot_name: str
    ) -> List[Dict[str, Any]]:
        """Freeze each attached disk's state: allocation plus a shallow
        COW overlay pinning the backing image (qcow2 external snapshot).
        Raw images record allocation only — no overlay is possible."""
        images = self.backend.images
        disks: List[Dict[str, Any]] = []
        created: List[str] = []
        try:
            for disk in record.config.disks:
                source = disk.source
                if not source or not images.exists(source):
                    continue
                image = images.lookup(source)
                entry: Dict[str, Any] = {
                    "source": source,
                    "target": disk.target_dev,
                    "allocation_bytes": image.allocation_bytes,
                }
                if image.image_format != "raw":
                    overlay = f"{source}.{snapshot_name}"
                    images.clone(source, overlay, shallow=True)
                    created.append(overlay)
                    entry["overlay"] = overlay
                disks.append(entry)
        except Exception:
            for overlay in created:
                try:
                    images.delete(overlay)
                except Exception:
                    pass
            raise
        return disks

    def snapshot_list(self, name: str) -> List[str]:
        return sorted(self._record(name).snapshots)

    def snapshot_revert(self, name: str, snapshot_name: str) -> None:
        record = self._record(name)
        snapshot = record.snapshots.get(snapshot_name)
        if snapshot is None:
            raise NoSnapshotError(f"domain {name!r} has no snapshot {snapshot_name!r}")
        was_running = DomainState(snapshot["state"]) in (
            DomainState.RUNNING,
            DomainState.PAUSED,
        )
        if self.backend.has_guest(name):
            self._backend_destroy(name)
        config = DomainConfig.from_xml(snapshot["xml"])
        images = self.backend.images
        for entry in snapshot.get("disks", ()):
            source = entry.get("source")
            if not source or not images.exists(source):
                continue
            images.set_allocation(source, int(entry.get("allocation_bytes", 0)))
            # contents were replaced wholesale: invalidate bitmaps so a
            # later incremental backup stays a correct (conservative) superset
            images.mark_all_dirty(source)
        if was_running:
            self._backend_start(config)
        with self._mutation() as m:
            record.config = config
            if was_running:
                self._assign_id(name)
            m.emit(name, DomainEvent.STARTED if was_running else DomainEvent.STOPPED, "snapshot-revert")
            m.touch("domain", name)

    def snapshot_delete(self, name: str, snapshot_name: str) -> None:
        record = self._record(name)
        snapshot = record.snapshots.get(snapshot_name)
        if snapshot is None:
            raise NoSnapshotError(f"domain {name!r} has no snapshot {snapshot_name!r}")
        images = self.backend.images
        for entry in snapshot.get("disks", ()):
            overlay = entry.get("overlay")
            if overlay and images.exists(overlay):
                try:
                    images.delete(overlay)
                except ResourceBusyError:
                    pass  # something chained onto the overlay; leave it
        with self._mutation() as m:
            record.snapshots.pop(snapshot_name, None)
            m.publish("snapshot", domain=name, event="deleted", detail=snapshot_name)
            m.touch("domain", name)

    # ==================================================================
    # checkpoints & backup jobs
    # ==================================================================

    def _live_disks(self, name: str, record: _DomainRecord, verb: str) -> Tuple[DomainState, List[str]]:
        """A running or paused guest's state and the paths of its disks
        in the image store; refused (``cannot <verb>``) otherwise."""
        state = self._domain_state(name)
        if state not in (DomainState.RUNNING, DomainState.PAUSED):
            raise InvalidOperationError(
                f"cannot {verb} domain {name!r}: domain is {DomainState(state).name.lower()}"
            )
        images = self.backend.images
        disks = [d.source for d in record.config.disks if d.source and images.exists(d.source)]
        if not disks:
            raise InvalidOperationError(f"domain {name!r} has no disks to {verb}")
        return state, disks

    def _blocks_since(self, record: _DomainRecord, checkpoint: str, disks: List[str]) -> Dict[str, set]:
        """Per disk, the blocks dirtied since ``checkpoint``: its frozen
        bitmaps merged with the live one."""
        since = record.checkpoints.blocks_since(checkpoint, disks)
        images = self.backend.images
        return {path: set(since.get(path, ())).union(images.dirty_blocks(path)) for path in disks}

    def checkpoint_create(self, name: str, checkpoint_name: str) -> Dict[str, Any]:
        record = self._record(name)
        state, disks = self._live_disks(name, record, "checkpoint")
        if self.jobs.active(name) is not None:
            raise ResourceBusyError(f"cannot checkpoint domain {name!r} during an active job")
        # checkpoint creation is metadata-only: bitmap handoff, no copy
        self.backend.cost.charge(self.backend.clock, "snapshot", 0.0)
        images = self.backend.images
        frozen = {path: images.reset_dirty(path) for path in disks}
        with self._mutation() as m:
            checkpoint = record.checkpoints.create(
                checkpoint_name,
                creation_time=self.backend.clock.now(),
                state=DomainState(state).name.lower(),
                disks=frozen,
                block_size=images.block_size,
            )
            m.publish("checkpoint", domain=name, event="created", detail=checkpoint_name)
            m.touch("domain", name)
        return {"name": checkpoint_name, "domain": name, "parent": checkpoint.parent}

    def checkpoint_list(self, name: str) -> List[str]:
        return self._record(name).checkpoints.list_names()

    def checkpoint_delete(self, name: str, checkpoint_name: str) -> None:
        record = self._record(name)
        if self.jobs.active(name) is not None:
            raise ResourceBusyError(f"cannot delete a checkpoint of {name!r} during an active job")
        checkpoint = record.checkpoints.get(checkpoint_name)
        if record.checkpoints.current == checkpoint_name:
            # the leaf's frozen blocks flow back into the active bitmaps
            images = self.backend.images
            for path, blocks in checkpoint.disks.items():
                if images.exists(path):
                    images.merge_dirty(path, blocks)
        with self._mutation() as m:
            record.checkpoints.delete(checkpoint_name)
            m.publish("checkpoint", domain=name, event="deleted", detail=checkpoint_name)
            m.touch("domain", name)

    def checkpoint_get_xml_desc(self, name: str, checkpoint_name: str) -> str:
        record = self._record(name)
        checkpoint = record.checkpoints.get(checkpoint_name)
        return CheckpointConfig.from_tree_checkpoint(checkpoint, domain=name).to_xml()

    def backup_begin(self, name: str, options: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Start a full or incremental backup as a cancellable job.

        Options: ``pool`` (required target pool), ``volume`` (target
        volume name), ``incremental`` (checkpoint name: copy only blocks
        dirtied since it), ``checkpoint`` (also freeze a new checkpoint
        at the start of the backup), ``bandwidth_mib_s``.
        """
        options = dict(options or {})
        record = self._record(name)
        state, disks = self._live_disks(name, record, "back up")
        images = self.backend.images
        pool = options.get("pool")
        if not pool:
            raise InvalidArgumentError("backup_begin requires a target pool")
        if self.jobs.active(name) is not None:
            raise ResourceBusyError(f"domain {name!r} already has an active job")
        incremental = options.get("incremental") or None
        if incremental:
            blocks = self._blocks_since(record, incremental, disks)
            total = sum(len(dirty) for dirty in blocks.values()) * images.block_size
            operation = "backup-incremental"
        else:
            total = sum(images.lookup(path).allocation_bytes for path in disks)
            operation = "backup-full"
        bandwidth_mib_s = float(options.get("bandwidth_mib_s") or self.backend.cost.bandwidth_gib_s * 1024)
        if bandwidth_mib_s <= 0:
            raise InvalidArgumentError("backup bandwidth must be positive")
        volume_name = options.get("volume") or f"{name}-backup-{'inc' if incremental else 'full'}"
        capacity = max(total, images.block_size)
        volume, target_path = self._create_volume_image(
            pool, VolumeConfig(volume_name, capacity_bytes=capacity).to_xml()
        )
        try:
            checkpoint_name = options.get("checkpoint")
            # freeze the bitmaps *after* computing the transfer set: this
            # backup covers up to now, future incrementals are relative to
            # the new checkpoint
            frozen = checkpoint_name and {path: images.reset_dirty(path) for path in disks}
            # the target volume and the checkpoint exist before the job
            # does (its cleanup drops the volume); all three are journalled
            # together once it runs
            with self._mutation():
                self._pool_volumes[pool][volume.name] = volume
                if checkpoint_name:
                    record.checkpoints.create(
                        checkpoint_name,
                        creation_time=self.backend.clock.now(),
                        state=DomainState(state).name.lower(),
                        disks=frozen,
                        block_size=images.block_size,
                    )
            job = self.jobs.begin(
                name,
                "backup",
                operation,
                total,
                bandwidth_mib_s * MIB,
                extra={
                    "target_pool": pool,
                    "target_volume": volume_name,
                    "target_path": target_path,
                    "incremental": incremental or "",
                },
                on_complete=lambda: images.set_allocation(target_path, total),
                on_cleanup=lambda: self._drop_backup_volume(pool, volume_name),
                on_final=lambda info: self._backup_job_final(record, info),
            )
        except Exception:
            self._drop_backup_volume(pool, volume_name)
            raise
        with self._mutation() as m:
            # a job that already ended (its hook ran first) journals as gone
            record.job = job if job.phase == JobPhase.RUNNING else None
            m.touch("pool", pool)
            m.touch("job", name)
            m.touch("domain", name)
            m.publish("storage", event="vol-created", detail=f"{pool}/{volume.name}")
            m.publish("job", domain=name, event="started", detail=operation, job_id=job.job_id)
        return job.info(self.backend.clock.now())

    def _drop_backup_volume(self, pool: str, volume: str) -> None:
        """Remove a backup target volume (cancelled/failed job), best effort."""
        with self._mutation() as m:
            pool_config = self._pools.get(pool)
            config = self._pool_volumes.get(pool, {}).pop(volume, None)
            if config is None or pool_config is None:
                return
            m.touch("pool", pool)
        path = f"{pool_config.target_path}/{volume}"
        if self.backend.images.exists(path):
            try:
                self.backend.images.delete(path)
            except (NoStorageVolumeError, ResourceBusyError):
                pass

    def backup_begin_pull(
        self, name: str, options: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Pull-mode backup: the dirty-block manifest plus the blocks'
        contents, for the *client* to extract NBD-style.

        Unlike :meth:`backup_begin` — which copies into a daemon-side
        target volume as a background job — pull mode is read-only on
        the daemon: ``incremental`` (a checkpoint name) selects blocks
        dirtied since that checkpoint (frozen bitmaps merged with the
        live one, as PR-5's incremental push does); without it every
        allocated block ships.  Over the remote driver the ``data``
        field travels as a stream.
        """
        options = dict(options or {})
        record = self._record(name)
        _, disks = self._live_disks(name, record, "back up")
        images = self.backend.images
        incremental = options.get("incremental") or None
        manifest: Dict[str, List[int]] = {}
        if incremental:
            for path, blocks in self._blocks_since(record, incremental, disks).items():
                manifest[path] = sorted(blocks)
        else:
            for path in disks:
                allocated = images.lookup(path).allocation_bytes
                manifest[path] = list(range(-(-allocated // images.block_size)))
        # one snapshot per disk, one join of every block's views
        views: List[memoryview] = []
        for path in disks:
            blocks = manifest[path]
            if blocks:
                snapshot = images.snapshot(path, 0, (blocks[-1] + 1) * images.block_size)
                views += _block_views(snapshot, blocks, images.block_size)
        data = b"".join(views)
        with self._mutation() as m:
            detail = "incremental" if incremental else "full"
            m.publish("job", domain=name, event="backup-pull", detail=detail)
        return {
            "domain": name,
            "block_size": images.block_size,
            "disks": manifest,
            "total_bytes": len(data),
            "incremental": incremental or "",
            "data": data,
        }

    def domain_open_console(self, name: str) -> LocalConsole:
        state = self._domain_state(name)
        if state not in (DomainState.RUNNING, DomainState.PAUSED):
            raise InvalidOperationError(
                f"cannot open console: domain {name!r} is "
                f"{DomainState(state).name.lower()}"
            )
        return LocalConsole(name)

    def domain_abort_job(self, name: str) -> Dict[str, Any]:
        self._record(name)
        # the job's own hook already journalled its outcome and the domain
        info = self.jobs.cancel(name)
        with self._mutation() as m:
            m.publish(
                "job",
                domain=name,
                event="aborted",
                detail=str(info.get("operation", "")),
                job_id=info.get("job_id"),
            )
        return info

    # ==================================================================
    # migration (driver hooks; orchestrated by repro.migration.manager)
    # ==================================================================

    def migrate_begin(self, name: str) -> Dict[str, Any]:
        record = self._record(name)
        self._check_transition(name, "migrate")
        runtime = self.backend._get(name)
        return {
            "name": name,
            "uuid": record.config.uuid,
            "xml": self._xml(record),
            "memory_kib": runtime.memory_kib,
            "dirty_rate_mib_s": runtime.dirty_rate_mib_s,
            "driver": self.name,
        }

    def migrate_prepare(self, description: Dict[str, Any]) -> Dict[str, Any]:
        if description.get("driver") != self.name:
            raise MigrationIncompatibleError(
                f"cannot migrate a {description.get('driver')!r} guest to a "
                f"{self.name!r} host"
            )
        name = description["name"]
        if self.backend.has_guest(name):
            raise DomainExistsError(f"domain {name!r} already active on destination")
        config = self._validate_config(description["xml"])
        self._backend_start(config, paused=True)
        with self._mutation() as m:
            if name not in self._domains:
                self._domains[name] = _DomainRecord(config, persistent=False)
                self._uuid_index[config.uuid] = name
            m.publish("migration", domain=name, event="prepared", detail="incoming")
            m.touch("domain", name)
        return {"name": name, "uuid": config.uuid}

    def migrate_perform(
        self, name: str, cookie: Dict[str, Any], params: Dict[str, Any]
    ) -> Dict[str, Any]:
        self._record(name)
        runtime = self.backend._get(name)
        bandwidth_mib_s = params.get("bandwidth_mib_s") or (
            self.backend.cost.bandwidth_gib_s * 1024
        )
        live = params.get("live", True)
        max_downtime = params.get("max_downtime_s", 0.3)
        memory_bytes = runtime.memory_kib * 1024
        if live:
            result = run_precopy(
                memory_bytes=memory_bytes,
                dirty_rate_bytes_s=runtime.dirty_rate_mib_s * MIB,
                bandwidth_bytes_s=bandwidth_mib_s * MIB,
                max_downtime_s=max_downtime,
                auto_converge=bool(params.get("auto_converge")),
                post_copy=bool(params.get("post_copy")),
            )
        else:
            # offline migration: pause first, stop-and-copy everything
            result = run_precopy(
                memory_bytes=memory_bytes,
                dirty_rate_bytes_s=0.0,
                bandwidth_bytes_s=bandwidth_mib_s * MIB,
                max_downtime_s=memory_bytes / (bandwidth_mib_s * MIB) + 1.0,
            )
        if (
            params.get("strict_convergence")
            and not result.converged
            and not result.post_copy  # post-copy completed the migration
        ):
            raise MigrationError(
                f"migration of {name!r} did not converge "
                f"(dirty rate {runtime.dirty_rate_mib_s} MiB/s vs "
                f"bandwidth {bandwidth_mib_s} MiB/s)"
            )
        # the guest runs during the copy rounds, pauses for the final one
        self.backend.clock.sleep(result.total_time_s - result.downtime_s)
        if self.backend.guest_state(name).value == "running":
            self._backend_suspend(name)
        self.backend.clock.sleep(result.downtime_s)
        with self._mutation() as m:
            self._record(name).last_job = {
                "type": "migration",
                "completed": True,
                "total_time_s": result.total_time_s,
                "downtime_s": result.downtime_s,
                "transferred_bytes": result.transferred_bytes,
                "rounds": result.rounds,
            }
            m.publish(
                "migration",
                domain=name,
                event="performed",
                detail="post-copy" if result.post_copy else ("live" if live else "offline"),
                rounds=result.rounds,
            )
            m.touch("domain", name)
        return {
            "total_time_s": result.total_time_s,
            "downtime_s": result.downtime_s,
            "rounds": result.rounds,
            "converged": result.converged,
            "transferred_bytes": result.transferred_bytes,
            "post_copy": result.post_copy,
            "postcopy_time_s": result.postcopy_time_s,
            "throttle_pct": result.throttle_pct,
        }

    def migrate_finish(self, cookie: Dict[str, Any], stats: Dict[str, Any]) -> Dict[str, Any]:
        name = cookie["name"]
        if stats.get("failed"):
            # the incoming guest is torn down: libvirt's STOPPED_FAILED
            if self.backend.has_guest(name):
                self._backend_destroy(name)
                with self._mutation() as m:
                    self._stopped(m, name, "failed")
            return {"name": name, "failed": True}
        self._backend_resume(name)
        record = self._record(name)
        with self._mutation() as m:
            record.persistent = True
            m.emit(name, DomainEvent.MIGRATED, "incoming")
            m.emit(name, DomainEvent.STARTED, "migrated")
            m.touch("domain", name)
        return self._public_record(name)

    def migrate_confirm(self, name: str, cancelled: bool) -> None:
        if cancelled:
            # the source guest paused for the copy runs on: RESUMED_MIGRATED
            if self.backend.has_guest(name) and self.backend.guest_state(name).value == "paused":
                self._backend_resume(name)
                with self._mutation() as m:
                    m.emit(name, DomainEvent.RESUMED, "migrated")
            return
        if self.backend.has_guest(name):
            self._backend_destroy(name)
        with self._mutation() as m:
            self._stopped(m, name, "migrated")

    def migrate_p2p(self, name: str, dest_uri: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Peer-to-peer mode: this (source) host dials the destination
        itself and drives the whole handshake; the managing client only
        issued one call."""
        from repro.core.connection import open_connection
        from repro.migration.manager import run_handshake

        dest = open_connection(dest_uri)
        try:
            if dest._driver is self or dest.hostname() == self.get_hostname():
                raise InvalidArgumentError(
                    f"peer-to-peer destination {dest_uri!r} is this host"
                )
            result, stats = run_handshake(self, dest._driver, name, params or {})
        finally:
            dest.close()
        return {"name": result["name"], "uuid": result.get("uuid"), "stats": stats}

    # ==================================================================
    # events
    # ==================================================================

    def domain_event_register(self, callback: EventCallback) -> int:
        """A lifecycle-filtered bus subscription calling ``callback``."""
        return self.events.subscribe(lifecycle_view(callback), kinds=LIFECYCLE)

    def domain_event_deregister(self, callback_id: int) -> None:
        self.events.unsubscribe(callback_id)

    def event_bus_subscribe(self, handler, kinds=None, max_queue=None) -> int:
        """Subscribe to typed bus records; returns the subscription id."""
        return self.events.subscribe(handler, kinds=kinds, max_queue=max_queue)

    def event_bus_unsubscribe(self, sub_id: int) -> None:
        self.events.unsubscribe(sub_id)

    # ==================================================================
    # networks
    # ==================================================================

    def network_define_xml(self, xml: str) -> Dict[str, Any]:
        config = NetworkConfig.from_xml(xml)
        if config.uuid is None:
            config.uuid = uuidutil.generate_uuid(self.backend.rng)
        with self._mutation() as m:
            if config.name in self._networks:
                raise NetworkExistsError(f"network {config.name!r} already defined")
            self._networks[config.name] = config
            m.publish("network", event="defined", detail=config.name)
            m.touch("network", config.name)
        return self._network_record(config.name)

    def _get_network(self, name: str) -> NetworkConfig:
        with self._lock:
            config = self._networks.get(name)
        if config is None:
            raise NoNetworkError(f"no network with matching name {name!r}")
        return config

    def _network_record(self, name: str) -> Dict[str, Any]:
        config = self._get_network(name)
        return {
            "name": name,
            "uuid": config.uuid,
            "active": name in self._active_networks,
            "bridge": config.bridge,
        }

    def network_undefine(self, name: str) -> None:
        with self._mutation() as m:
            self._get_network(name)
            if name in self._active_networks:
                raise InvalidOperationError(f"network {name!r} is active")
            del self._networks[name]
            m.publish("network", event="undefined", detail=name)
            m.touch("network", name)

    def network_create(self, name: str) -> None:
        with self._mutation() as m:
            self._get_network(name)
            if name in self._active_networks:
                raise InvalidOperationError(f"network {name!r} is already active")
            self._active_networks.add(name)
            m.publish("network", event="started", detail=name)
            m.touch("network", name)

    def network_destroy(self, name: str) -> None:
        with self._mutation() as m:
            self._get_network(name)
            if name not in self._active_networks:
                raise InvalidOperationError(f"network {name!r} is not active")
            self._active_networks.discard(name)
            self._dhcp_leases.pop(name, None)
            m.publish("network", event="stopped", detail=name)
            m.touch("network", name)

    def network_list(self) -> List[Dict[str, Any]]:
        with self._lock:
            names = sorted(self._networks)
        return [self._network_record(name) for name in names]

    def network_lookup_by_name(self, name: str) -> Dict[str, Any]:
        return self._network_record(name)

    def network_get_xml_desc(self, name: str) -> str:
        return self._get_network(name).to_xml()

    def network_dhcp_leases(self, name: str) -> List[Dict[str, Any]]:
        self._get_network(name)
        with self._lock:
            leases = dict(self._dhcp_leases.get(name, {}))
        return [
            {"mac": mac, **info} for mac, info in sorted(leases.items())
        ]

    def _assign_dhcp_leases(self, m: _Mutation, config: DomainConfig) -> None:
        """Hand a lease to every NIC attached to an active DHCP network
        (inside a mutation)."""
        touched = set()
        for iface in config.interfaces:
            if iface.interface_type != "network" or not iface.mac:
                continue
            network = self._networks.get(iface.source)
            if (
                network is None
                or iface.source not in self._active_networks
                or network.ip is None
                or network.ip.dhcp is None
            ):
                continue
            leases = self._dhcp_leases.setdefault(iface.source, {})
            if iface.mac in leases:
                continue
            used = {entry["ip"] for entry in leases.values()}
            ip = _next_free_lease(network.ip.dhcp, used)
            if ip is None:
                continue  # range exhausted: the guest simply gets no lease
            leases[iface.mac] = {
                "ip": ip,
                "hostname": config.name,
                "since": self.backend.clock.now(),
            }
            touched.add(iface.source)
        for network_name in sorted(touched):
            m.touch("network", network_name)

    def _release_dhcp_leases(self, m: _Mutation, config: DomainConfig) -> None:
        """Take back the config's leases (inside a mutation)."""
        touched = set()
        for iface in config.interfaces:
            leases = self._dhcp_leases.get(iface.source) if iface.mac else None
            if leases is not None and leases.pop(iface.mac, None) is not None:
                touched.add(iface.source)
        for network_name in sorted(touched):
            m.touch("network", network_name)

    # ==================================================================
    # storage
    # ==================================================================

    def storage_pool_define_xml(self, xml: str) -> Dict[str, Any]:
        config = StoragePoolConfig.from_xml(xml)
        if config.uuid is None:
            config.uuid = uuidutil.generate_uuid(self.backend.rng)
        with self._mutation() as m:
            if config.name in self._pools:
                raise StoragePoolExistsError(f"pool {config.name!r} already defined")
            self._pools[config.name] = config
            self._pool_volumes[config.name] = {}
            m.publish("storage", event="pool-defined", detail=config.name)
            m.touch("pool", config.name)
        return self._pool_record(config.name)

    def _get_pool(self, name: str) -> StoragePoolConfig:
        with self._lock:
            config = self._pools.get(name)
        if config is None:
            raise NoStoragePoolError(f"no storage pool with matching name {name!r}")
        return config

    def _pool_record(self, name: str) -> Dict[str, Any]:
        config = self._get_pool(name)
        return {
            "name": name,
            "uuid": config.uuid,
            "active": name in self._active_pools,
        }

    def storage_pool_undefine(self, name: str) -> None:
        with self._mutation() as m:
            self._get_pool(name)
            if name in self._active_pools:
                raise InvalidOperationError(f"pool {name!r} is active")
            del self._pools[name]
            del self._pool_volumes[name]
            m.publish("storage", event="pool-undefined", detail=name)
            m.touch("pool", name)

    def storage_pool_create(self, name: str) -> None:
        with self._mutation() as m:
            self._get_pool(name)
            if name in self._active_pools:
                raise InvalidOperationError(f"pool {name!r} is already active")
            self._active_pools.add(name)
            m.publish("storage", event="pool-started", detail=name)
            m.touch("pool", name)

    def storage_pool_destroy(self, name: str) -> None:
        with self._mutation() as m:
            self._get_pool(name)
            if name not in self._active_pools:
                raise InvalidOperationError(f"pool {name!r} is not active")
            self._active_pools.discard(name)
            m.publish("storage", event="pool-stopped", detail=name)
            m.touch("pool", name)

    def storage_pool_list(self) -> List[Dict[str, Any]]:
        with self._lock:
            names = sorted(self._pools)
        return [self._pool_record(name) for name in names]

    def storage_pool_lookup_by_name(self, name: str) -> Dict[str, Any]:
        return self._pool_record(name)

    def storage_pool_get_info(self, name: str) -> Dict[str, Any]:
        config = self._get_pool(name)
        with self._lock:
            volumes = dict(self._pool_volumes[name])
        allocation = 0
        for volume in volumes.values():
            path = f"{config.target_path}/{volume.name}"
            if self.backend.images.exists(path):
                allocation += self.backend.images.lookup(path).allocation_bytes
        return {
            "capacity_bytes": config.capacity_bytes,
            "allocation_bytes": allocation,
            "available_bytes": config.capacity_bytes - allocation,
            "active": name in self._active_pools,
        }

    def storage_pool_get_xml_desc(self, name: str) -> str:
        return self._get_pool(name).to_xml()

    def storage_vol_create_xml(self, pool: str, xml: str) -> Dict[str, Any]:
        volume, path = self._create_volume_image(pool, xml)
        with self._mutation() as m:
            self._pool_volumes[pool][volume.name] = volume
            m.publish("storage", event="vol-created", detail=f"{pool}/{volume.name}")
            m.touch("pool", pool)
        return {"name": volume.name, "path": path}

    def _create_volume_image(self, pool: str, xml: str) -> Tuple[VolumeConfig, str]:
        """A new volume's checks and its image; the caller records it."""
        pool_config = self._get_pool(pool)
        if pool not in self._active_pools:
            raise InvalidOperationError(f"pool {pool!r} is not active")
        volume = VolumeConfig.from_xml(xml)
        with self._lock:
            if volume.name in self._pool_volumes[pool]:
                raise StorageVolumeExistsError(
                    f"volume {volume.name!r} already exists in pool {pool!r}"
                )
        info = self.storage_pool_get_info(pool)
        if volume.capacity_bytes > info["available_bytes"] and volume.volume_format == "raw":
            raise InvalidOperationError(
                f"pool {pool!r} lacks space for volume {volume.name!r}"
            )
        path = f"{pool_config.target_path}/{volume.name}"
        self.backend.images.create(
            path,
            volume.capacity_bytes,
            volume.volume_format,
            backing_path=volume.backing_store,
        )
        return volume, path

    def storage_vol_delete(self, pool: str, volume: str) -> None:
        pool_config = self._get_pool(pool)
        with self._lock:
            if volume not in self._pool_volumes[pool]:
                raise NoStorageVolumeError(f"no volume {volume!r} in pool {pool!r}")
        path = f"{pool_config.target_path}/{volume}"
        if self.backend.images.exists(path):
            self.backend.images.delete(path)
        with self._mutation() as m:
            if self._pool_volumes[pool].pop(volume, None) is None:
                raise NoStorageVolumeError(f"no volume {volume!r} in pool {pool!r}")
            m.publish("storage", event="vol-deleted", detail=f"{pool}/{volume}")
            m.touch("pool", pool)

    def storage_vol_list(self, pool: str) -> List[str]:
        self._get_pool(pool)
        with self._lock:
            return sorted(self._pool_volumes[pool])

    def storage_vol_get_info(self, pool: str, volume: str) -> Dict[str, Any]:
        pool_config = self._get_pool(pool)
        with self._lock:
            config = self._pool_volumes[pool].get(volume)
        if config is None:
            raise NoStorageVolumeError(f"no volume {volume!r} in pool {pool!r}")
        path = f"{pool_config.target_path}/{volume}"
        allocation = config.allocation_bytes
        if self.backend.images.exists(path):
            allocation = self.backend.images.lookup(path).allocation_bytes
        return {
            "name": volume,
            "capacity_bytes": config.capacity_bytes,
            "allocation_bytes": allocation,
            "format": config.volume_format,
            "path": path,
        }

    def storage_vol_upload(
        self,
        pool: str,
        volume: str,
        data: "bytes | bytearray | memoryview | Sequence[bytes | memoryview]",
        offset: int = 0,
    ) -> Dict[str, Any]:
        """Commit uploaded bytes into a volume (``virStorageVolUpload``).

        ``data`` is one buffer or a sequence of buffers laid back to
        back (the daemon passes its staged chunks without joining them).

        This is the *commit* half of a streamed upload: the daemon
        stages chunks while the stream runs and applies them in this
        single call at finish, so a crash mid-stream leaves the volume
        untouched and a crash mid-commit tears the journal record —
        either way recovery never sees a half-written volume.
        """
        pool_config = self._get_pool(pool)
        with self._lock:
            if volume not in self._pool_volumes[pool]:
                raise NoStorageVolumeError(f"no volume {volume!r} in pool {pool!r}")
        path = f"{pool_config.target_path}/{volume}"
        if not self.backend.images.exists(path):
            raise NoStorageVolumeError(f"volume image {path!r} not found")
        written = self.backend.images.write_bytes(path, offset, data)
        with self._mutation() as m:
            m.publish("storage", event="vol-uploaded", detail=f"{pool}/{volume}", bytes=written)
            m.touch("pool", pool)
        return self.storage_vol_get_info(pool, volume)

    def storage_vol_download(
        self, pool: str, volume: str, offset: int = 0, length: Optional[int] = None
    ) -> List[memoryview]:
        """Read volume content back (``virStorageVolDownload``).

        Read-only: ``length`` defaults to the allocated extent past
        ``offset`` (not capacity — a thin volume downloads only what
        was ever written, like sparse-file aware tooling).  Returns the
        image store's snapshot, views laid back to back that later
        writes never show through: nothing is copied until the caller
        joins them or the daemon frames them.
        """
        info = self.storage_vol_get_info(pool, volume)
        if length is None:
            length = max(0, info["allocation_bytes"] - offset)
        return self.backend.images.snapshot(info["path"], offset, length)


#: every method a procedure row names: what a stateful driver serves
_ROW_METHODS = frozenset(row.method for row in REMOTE_PROCEDURES if row.method is not None)


def _counted(body: Any) -> Any:
    """``body`` behind the one count of a served call (re-entries count too)."""

    def row(self: StatefulDriver, *args: Any, **kwargs: Any) -> Any:
        self._count_call()
        return body(self, *args, **kwargs)

    # not ``functools.wraps``: the span recorder takes a ``__wrapped__`` for its own wrapper
    row.__name__, row.__qualname__, row.__doc__ = body.__name__, body.__qualname__, body.__doc__
    return row


for _method in sorted(_ROW_METHODS.intersection(vars(StatefulDriver))):
    setattr(StatefulDriver, _method, _counted(vars(StatefulDriver)[_method]))


def from_run_state_str(state: str) -> DomainState:
    """Translate a backend info-dict state string to the public enum."""
    return {
        "running": DomainState.RUNNING,
        "paused": DomainState.PAUSED,
        "shutoff": DomainState.SHUTOFF,
        "crashed": DomainState.CRASHED,
    }[state]


def _block_views(snapshot: List[memoryview], blocks: List[int], block_size: int) -> List[memoryview]:
    """The parts of ``snapshot`` (views laid back to back from offset 0)
    that cover each of the ascending ``blocks``, in order; a block past
    the snapshot's end is cut short or left out, as a read would."""
    picked: List[memoryview] = []
    views = iter(snapshot)
    view, base = memoryview(b""), 0
    for block in blocks:
        start, stop = block * block_size, (block + 1) * block_size
        while start < stop:
            while base + view.nbytes <= start:
                base += view.nbytes
                view = next(views, None)
                if view is None:
                    return picked
            piece = view[start - base : stop - base]
            picked.append(piece)
            start += piece.nbytes
    return picked


def _next_free_lease(dhcp, used: set) -> "str | None":
    """First address in the DHCP range not in ``used``."""
    import ipaddress

    start = int(ipaddress.ip_address(dhcp.start))
    end = int(ipaddress.ip_address(dhcp.end))
    for value in range(start, end + 1):
        candidate = str(ipaddress.ip_address(value))
        if candidate not in used:
            return candidate
    return None
