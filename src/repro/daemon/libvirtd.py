"""The daemon: drivers behind the wire protocol.

One :class:`Libvirtd` hosts the node's stateful drivers (qemu, xen,
lxc, test by default), listens on one or more transports, tracks the
connected clients against a configurable limit, dispatches calls
through a workerpool whose destructive operations ride the priority
lane, and fans lifecycle events out to subscribed clients.
"""

from __future__ import annotations

import functools
import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.uri import ConnectionURI
from repro.daemon.client import ClientRecord
from repro.daemon.registry import register_daemon, unregister_daemon
from repro.errors import (
    ConnectionError_,
    DaemonCrashError,
    InvalidArgumentError,
    InvalidOperationError,
    InvalidURIError,
    OperationFailedError,
    VirtError,
)
from repro.faults.crash import CrashPoint
from repro.observability.export import log_metrics, render_prometheus
from repro.observability.flightrec import FlightRecorder, interrupted_dispatches
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.rpc.procedures import BY_NAME, REMOTE_PROCEDURES, Procedure
from repro.rpc.protocol import (
    EVENT_BUS_RECORD,
    EVENT_DAEMON_SHUTDOWN,
    EVENT_DOMAIN_LIFECYCLE,
    PUSH_PROCEDURES,
)
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener, ServerConnection
from repro.stream.core import DEFAULT_CHUNK
from repro.util.clock import Clock, VirtualClock
from repro.util.threadpool import WorkerPool
from repro.util.virtlog import LOG_ERROR, LOG_INFO, Logger


#: per kind of pushed EVENT frame: the body of the frame one delivery
#: becomes (a lifecycle callback's arguments on the legacy frame, the bus
#: record itself on the other) and the optional CALL body keys arming
#: hands to the driver
_PUSH_FRAMES = {
    EVENT_DOMAIN_LIFECYCLE: (
        lambda domain, event, detail: {"domain": domain, "event": int(event), "detail": detail},
        (),
    ),
    EVENT_BUS_RECORD: (lambda record: record, ("kinds",)),
}


def _not_a_map(procedure: str, body: Any) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"{procedure} requires a map body, got {type(body).__name__}"
    )


def _bad_arguments(row: Procedure, body: Any) -> InvalidArgumentError:
    """Why ``body`` does not carry ``row.args``.  A CALL body is outside
    input: a missing key, or a body that is no map at all, is the
    caller's error and is typed as one."""
    if body is None:
        body = {}
    if not isinstance(body, dict):
        return _not_a_map(row.name, body)
    missing = next(arg for arg in row.args if arg not in body)
    return InvalidArgumentError(f"{row.name} requires argument {missing!r}")


def _unpack(row: Procedure, body: Any) -> List[Any]:
    """``row.args`` out of a CALL body, in order."""
    try:
        return [body[arg] for arg in row.args]
    except (KeyError, TypeError):
        raise _bad_arguments(row, body) from None


@functools.lru_cache(maxsize=None)
def _passthrough(row: Procedure) -> Callable[[Any, Any, Any], Any]:
    """The handler body of a row that forwards to one driver method.

    Compiled from a template, once per process and not once per daemon,
    so the path taken by a well-formed CALL is what a hand-written
    ``lambda _c, d, b: d.method(b["name"])`` runs; the ``try`` covers the
    body look-ups only, never the driver call.
    """
    names = [f"a{i}" for i in range(len(row.args))]
    lines = ["def fn(_client, driver, body):"]
    if names:
        lines.append("    try:")
        lines += [f"        {name} = body[{arg!r}]" for name, arg in zip(names, row.args)]
        lines.append("    except (KeyError, TypeError):")
        lines.append("        raise bad_arguments(row, body) from None")
    lines.append(f"    return driver.{row.method}({', '.join(names)})")
    namespace = {"row": row, "bad_arguments": _bad_arguments}
    exec(compile("\n".join(lines), f"<handler {row.name}>", "exec"), namespace)
    return namespace["fn"]


def _cursor(data: Any) -> Tuple[Callable[[int], Any], int]:
    """A stream source over ``data`` — one buffer or a sequence laid
    back to back — and its length in bytes.

    Each chunk is a view of the one buffer it lies in; only a chunk that
    straddles two buffers is joined.  The chunks cut the same bytes at
    the same places as one flat buffer would.
    """
    buffers = data if isinstance(data, (list, tuple)) else (data,)
    pending = deque(view for view in (memoryview(b).cast("B") for b in buffers) if view.nbytes)
    length = sum(view.nbytes for view in pending)

    def read(max_bytes: int) -> Any:
        parts = []
        while pending and max_bytes:
            view = pending.popleft()
            if view.nbytes > max_bytes:
                view, rest = view[:max_bytes], view[max_bytes:]
                pending.appendleft(rest)
            parts.append(view)
            max_bytes -= view.nbytes
        if len(parts) > 1:
            return b"".join(parts)
        return parts[0] if parts else None

    return read, length


class Libvirtd:
    """One daemon instance serving one simulated host."""

    def __init__(
        self,
        hostname: str = "localhost",
        drivers: "Optional[Dict[str, Any]]" = None,
        clock: "Optional[Clock]" = None,
        min_workers: int = 5,
        max_workers: int = 20,
        prio_workers: int = 5,
        max_clients: int = 120,
        max_client_requests: int = 5,
        use_pool: bool = True,
        log_level: int = LOG_ERROR,
        register: bool = True,
        state_dir: "Optional[str]" = None,
    ) -> None:
        self.hostname = hostname
        self.clock = clock or VirtualClock()
        #: the daemon-wide instrument panel, stamped in modelled time
        self.metrics = MetricsRegistry(now=self.clock.now)
        self.tracer = Tracer(self.clock.now, metrics=self.metrics)
        #: the black box: last-N control-plane facts, crash-durable once
        #: a state_dir attaches a StateDir to it (``flight-dump``)
        self.flight_recorder = FlightRecorder(self.clock.now)
        self._m_driver_ops = self.metrics.histogram(
            "driver_op_seconds",
            "Modelled latency of driver operations, by backend and procedure",
            ("driver", "procedure"),
        )
        self.metrics.gauge(
            "daemon_clients", "Connected clients", ("server",)
        )
        self.drivers = drivers if drivers is not None else self._default_drivers()
        for driver in self.drivers.values():
            # hosted drivers report into the daemon's registry (they keep
            # a registry they were already constructed with, if any)
            if getattr(driver, "metrics", None) is None:
                driver.metrics = self.metrics
            if getattr(driver, "tracer", None) is None:
                driver.tracer = self.tracer
            events = getattr(driver, "events", None)
            if events is not None:
                # broken event subscribers surface in the daemon's log
                events.attach_observability(logger=lambda: self.logger)
        self.pool = WorkerPool(
            min_workers=min_workers,
            max_workers=max_workers,
            prio_workers=prio_workers,
            name=f"libvirtd@{hostname}",
            metrics=self.metrics,
            now=self.clock.now,
        )
        self.rpc = RPCServer(
            pool=self.pool if use_pool else None,
            metrics=self.metrics,
            tracer=self.tracer,
            name="libvirtd",
            max_client_requests=max_client_requests,
        )
        self.logger = Logger(level=log_level, clock=self.clock.now)
        self.max_clients = max_clients
        #: per-server workerpools and client limits ("libvirtd" + optional "admin")
        self.server_pools: Dict[str, WorkerPool] = {"libvirtd": self.pool}
        self._server_max_clients: Dict[str, int] = {"libvirtd": max_clients}
        self._rpc_by_server: Dict[str, RPCServer] = {"libvirtd": self.rpc}
        self._listeners: Dict[str, Listener] = {}
        self._clients: Dict[int, ClientRecord] = {}
        self._by_conn: Dict[ServerConnection, ClientRecord] = {}
        self._next_client_id = 1
        self._lock = threading.Lock()
        self._shut_down = False
        self._client_gauge("libvirtd")
        #: timer scheduler for periodic maintenance (keepalive reaping)
        from repro.util.eventloop import EventLoop

        self.eventloop = EventLoop(self.clock.now)
        self._keepalive_timeout: "Optional[float]" = None
        #: maintenance timer ids owned by the daemon, cancelled on shutdown
        self._maintenance_timers: List[int] = []
        #: seeded daemon-kill script (see repro.faults.crash); None = off
        self.crash_plan = None
        #: durable state root; None keeps the daemon purely in-memory
        self.state_dir = state_dir
        #: per-driver recovery audit from startup (driver name -> stats)
        self.recovery: Dict[str, Dict[str, Any]] = {}
        #: the StateDirs this incarnation owns; shutdown() and crash()
        #: release their held descriptors (a killed process's are closed
        #: by the kernel — nothing is flushed, there is no buffer)
        self._state_dirs: List[Any] = []
        if state_dir is not None:
            self._attach_persistence(state_dir)
        for driver in self._unique_drivers():
            # armed after recovery, whose rewrite of every record its
            # ``recovery`` stats summarise: the inherited ring stays whole
            if hasattr(driver, "recorder") and driver.recorder is None:
                driver.recorder = self.flight_recorder
        self.rpc.on_ping = self._on_keepalive_ping
        self.rpc.recorder = self.flight_recorder
        self._register_handlers()
        if register:
            register_daemon(hostname, self)

    def _client_gauge(self, server: str) -> None:
        """Live-view gauge: connected clients on one server object."""
        self.metrics.get("daemon_clients").labels(server=server).set_function(
            lambda: sum(
                1
                for r in self._clients.values()
                if not r.conn.closed and r.server == server
            )
        )

    def _on_keepalive_ping(self, conn: ServerConnection) -> None:
        """A KEEPALIVE PING proves the client is alive: refresh its
        activity stamp so the idle reaper leaves the connection alone."""
        with self._lock:
            record = self._by_conn.get(conn)
        if record is not None:
            record.last_activity = self.clock.now()

    def _default_drivers(self) -> Dict[str, Any]:
        from repro.drivers.lxc import LxcDriver
        from repro.drivers.qemu import QemuDriver
        from repro.drivers.test import TestDriver
        from repro.drivers.xen import XenDriver
        from repro.hypervisors.container_backend import ContainerBackend
        from repro.hypervisors.host import SimHost
        from repro.hypervisors.qemu_backend import QemuBackend
        from repro.hypervisors.xen_backend import XenBackend

        def host() -> SimHost:
            return SimHost(hostname=self.hostname, clock=self.clock)

        qemu = QemuDriver(QemuBackend(host=host(), clock=self.clock))
        return {
            "qemu": qemu,
            "kvm": qemu,
            "xen": XenDriver(XenBackend(host=host(), clock=self.clock)),
            "lxc": LxcDriver(ContainerBackend(host=host(), clock=self.clock)),
            "test": TestDriver(seed_default=False),
        }

    # ==================================================================
    # persistence & crash injection
    # ==================================================================

    def _unique_drivers(self) -> List[Any]:
        """Hosted driver objects, deduplicated (qemu/kvm share one)."""
        unique: List[Any] = []
        for driver in self.drivers.values():
            if not any(existing is driver for existing in unique):
                unique.append(driver)
        return unique

    def _attach_persistence(self, root: str) -> None:
        """Give every stateful driver a journal under ``root`` and run
        recovery against whatever the journal + backend reality say.

        Each driver gets its own subdirectory (the qemu/kvm alias maps
        to one journal).  Recovery happens here, before the daemon takes
        its first call: a restarted daemon re-adopts running guests
        non-intrusively and fails interrupted jobs cleanly.
        """
        import os

        from repro.state import StateDir, StateJournal

        # the flight recorder recovers first: a previous incarnation's
        # tail names the dispatches its death interrupted, and those
        # spans must be closed before this incarnation starts tracing
        self.flight_recorder.statedir = StateDir(os.path.join(root, "flightrec"))
        self._state_dirs.append(self.flight_recorder.statedir)
        tail = self.flight_recorder.recover()
        interrupted = 0
        for begun in interrupted_dispatches(tail):
            if begun.get("span_id") is None:
                continue
            self.tracer.record_interrupted(
                "rpc.dispatch",
                span_id=begun["span_id"],
                trace_id=begun.get("trace_id") or begun["span_id"],
                parent_id=begun.get("parent_id"),
                start=begun.get("start", begun.get("t", 0.0)),
                procedure=begun.get("procedure"),
                serial=begun.get("serial"),
            )
            interrupted += 1
        if tail or interrupted:
            self.flight_recorder.record(
                "recovery", recovered=len(tail), interrupted_spans=interrupted
            )
            self.recovery["flightrec"] = {
                "records": len(tail),
                "interrupted_spans": interrupted,
            }

        journal_lag = self.metrics.gauge(
            "journal_tail_records",
            "Journal records appended since the last snapshot checkpoint",
            ("driver",),
        )
        for driver in self._unique_drivers():
            if not hasattr(driver, "attach_state"):
                continue
            statedir = StateDir(os.path.join(root, driver.name))
            self._state_dirs.append(statedir)
            journal = StateJournal(statedir, clock=self.clock)
            journal_lag.labels(driver=driver.name).set_function(
                lambda j=journal: float(j.tail_records)
            )
            driver.attach_state(journal)
            stats = driver.recover_state()
            self.recovery[driver.name] = stats
            if stats.get("domains") or stats.get("adopted") or stats.get("failed_jobs"):
                self.logger.info(
                    "daemon.recovery",
                    f"driver {driver.name}: recovered {stats.get('domains', 0)} "
                    f"domains, adopted {stats.get('adopted', 0)}, failed "
                    f"{len(stats.get('failed_jobs', []))} interrupted jobs",
                )

    def install_crash_plan(self, plan: Any) -> "Libvirtd":
        """Arm seeded daemon-kill injection on this incarnation.

        The plan is consulted at ``MID_DISPATCH``/``POST_JOURNAL`` for
        every dispatched driver call, and at ``MID_JOURNAL`` inside every
        driver journal write.  Installed after construction, so recovery
        itself is never crash-injected (a real daemon cannot be killed
        by a journal it is merely reading).
        """
        self.crash_plan = plan
        for driver in self._unique_drivers():
            if hasattr(driver, "crash_plan"):
                driver.crash_plan = plan
        return self

    def _maybe_crash(self, point: CrashPoint, procedure: str) -> None:
        plan = self.crash_plan
        if plan is not None and plan.decide(point, procedure, self.clock.now()):
            # last words first: the hit reaches the durable tail before
            # the process dies, so the dump names its own killer
            self.flight_recorder.record(
                "crash", point=point.value, procedure=procedure
            )
            self.crash()
            raise DaemonCrashError(
                f"daemon crashed at {point.value} during {procedure}"
            )

    def crash(self) -> None:
        """Die like ``kill -9``: no drain, no journal flush, no goodbyes.

        Every client link is severed silently (the peer discovers the
        death through keepalive or its next call), listeners stop
        accepting, and the hostname is deregistered so a restarted
        incarnation can take it over.  Driver memory is *not* cleaned
        up — it dies with this object, exactly like process memory.
        """
        with self._lock:
            if self._shut_down:
                return
            self._shut_down = True
            records = list(self._clients.values())
            listeners = list(self._listeners.values())
            timers = list(self._maintenance_timers)
            self._maintenance_timers.clear()
            self._clients.clear()
            self._by_conn.clear()
        for record in records:
            try:
                record.conn.channel.sever()
            except VirtError:
                pass
            # streams die with the process: nothing may dangle, and an
            # upload that never reached its commit leaves no trace
            self.rpc.abort_connection_streams(record.conn, "daemon crashed")
        for listener in listeners:
            listener.close_all()
        for timer_id in timers:
            self.eventloop.cancel(timer_id)
        for statedir in self._state_dirs:
            statedir.close()
        unregister_daemon(self.hostname)

    # ==================================================================
    # listeners & client management
    # ==================================================================

    def listen(
        self,
        transport: str = "unix",
        authenticator: "Optional[Callable[[Dict[str, Any]], Dict[str, Any]]]" = None,
        server: str = "libvirtd",
    ) -> Listener:
        """Open a service on ``transport`` (one per server+transport)."""
        key = f"{server}:{transport}"
        with self._lock:
            if key in self._listeners:
                return self._listeners[key]
        listener = Listener(
            transport,
            clock=self.clock,
            authenticator=authenticator,
            on_accept=lambda conn: self._accept(conn, server),
            metrics=self.metrics,
        )
        with self._lock:
            self._listeners[key] = listener
        self.logger.info("rpc.server", f"server {server} listening on {transport}")
        return listener

    def listener(self, transport: str, server: str = "libvirtd") -> Listener:
        with self._lock:
            listener = self._listeners.get(f"{server}:{transport}")
        if listener is None:
            raise ConnectionError_(
                f"daemon {self.hostname!r} server {server!r} is not listening "
                f"on {transport!r}"
            )
        return listener

    def enable_admin(
        self,
        authenticator: "Optional[Callable[[Dict[str, Any]], Dict[str, Any]]]" = None,
    ) -> Listener:
        """Bring up the *admin* server: a second server object inside the
        daemon with its own workerpool, reachable root-only over a UNIX
        socket, exposing the runtime-administration procedures."""
        from repro.daemon.admin_server import default_admin_authenticator, register_admin_handlers

        with self._lock:
            already = "admin" in self.server_pools
        if not already:
            admin_pool = WorkerPool(
                min_workers=1, max_workers=5, prio_workers=1,
                name=f"admin@{self.hostname}",
                metrics=self.metrics,
                now=self.clock.now,
            )
            admin_rpc = RPCServer(
                pool=admin_pool, metrics=self.metrics, tracer=self.tracer,
                name="admin",
            )
            admin_rpc.on_ping = self._on_keepalive_ping
            register_admin_handlers(admin_rpc, self)
            with self._lock:
                self.server_pools["admin"] = admin_pool
                self._rpc_by_server["admin"] = admin_rpc
                self._server_max_clients["admin"] = 5
            self._client_gauge("admin")
        return self.listen(
            "unix",
            authenticator=authenticator or default_admin_authenticator,
            server="admin",
        )

    def server_names(self) -> "list[str]":
        """The servers contained in this daemon (``srv-list``)."""
        with self._lock:
            return sorted(self.server_pools)

    def _accept(self, conn: ServerConnection, server: str = "libvirtd") -> None:
        with self._lock:
            if self._shut_down:
                raise ConnectionError_("daemon is shutting down")
            limit = self._server_max_clients.get(server, self.max_clients)
            live = sum(
                1
                for r in self._clients.values()
                if not r.conn.closed and r.server == server
            )
            if live >= limit:
                self.logger.warn(
                    "rpc.server",
                    f"refusing connection: {live}/{limit} clients on {server}",
                )
                raise OperationFailedError(
                    f"daemon {self.hostname!r} server {server!r} reached "
                    f"max_clients={limit}"
                )
            record = ClientRecord(
                self._next_client_id, conn, self.clock.now(), server=server
            )
            self._next_client_id += 1
            self._clients[record.id] = record
            self._by_conn[conn] = record
            rpc = self._rpc_by_server[server]
        rpc.attach(conn)
        self.logger.info(
            "rpc.server", f"client {record.id} connected via {record.transport}"
        )

    def list_clients(self, server: "Optional[str]" = None) -> List[Dict[str, Any]]:
        """``client-list``: every live client, pruning dead ones."""
        self._prune()
        with self._lock:
            records = sorted(self._clients.values(), key=lambda r: r.id)
            if server is not None:
                records = [r for r in records if r.server == server]
            return [r.summary() for r in records]

    def client_info(self, client_id: int) -> Dict[str, Any]:
        with self._lock:
            record = self._clients.get(client_id)
        if record is None:
            raise InvalidArgumentError(f"no client with id {client_id}")
        return record.info()

    def disconnect_client(self, client_id: int) -> None:
        """Force-close one client's connection (``client-disconnect``)."""
        with self._lock:
            record = self._clients.get(client_id)
        if record is None:
            raise InvalidArgumentError(f"no client with id {client_id}")
        self._cleanup_client(record)
        record.conn.close()
        self.logger.info("rpc.server", f"client {client_id} disconnected forcefully")

    def set_max_clients(self, limit: int, server: str = "libvirtd") -> None:
        if limit < 1:
            raise InvalidArgumentError("max_clients must be at least 1")
        with self._lock:
            if server not in self.server_pools:
                raise InvalidArgumentError(f"no server named {server!r}")
            self._server_max_clients[server] = limit
            if server == "libvirtd":
                self.max_clients = limit

    def get_max_clients(self, server: str = "libvirtd") -> int:
        with self._lock:
            if server not in self.server_pools:
                raise InvalidArgumentError(f"no server named {server!r}")
            return self._server_max_clients[server]

    def set_max_client_requests(self, value: int, server: str = "libvirtd") -> None:
        """Resize the per-connection in-flight request window."""
        with self._lock:
            rpc = self._rpc_by_server.get(server)
        if rpc is None:
            raise InvalidArgumentError(f"no server named {server!r}")
        rpc.set_max_client_requests(value)

    def get_max_client_requests(self, server: str = "libvirtd") -> int:
        with self._lock:
            rpc = self._rpc_by_server.get(server)
        if rpc is None:
            raise InvalidArgumentError(f"no server named {server!r}")
        return rpc.max_client_requests

    def _prune(self) -> None:
        with self._lock:
            dead = [r for r in self._clients.values() if r.conn.closed]
            for record in dead:
                self._clients.pop(record.id, None)
                self._by_conn.pop(record.conn, None)
        for record in dead:
            self._cleanup_client(record)

    def _cleanup_client(self, record: ClientRecord, clean: bool = False) -> None:
        for event_id in list(record.push):
            record.release(event_id)
        if not clean and record.owned_jobs and record.driver is not None:
            # a severed transport must not wedge the domain: fail any
            # background job this client started so its cleanup runs
            engine = getattr(record.driver, "jobs", None)
            if engine is not None:
                for domain in sorted(record.owned_jobs):
                    try:
                        if engine.fail_active(
                            domain, "client disconnected during job"
                        ):
                            self.logger.info(
                                "rpc.server",
                                f"client {record.id} vanished, failed "
                                f"background job on domain {domain!r}",
                            )
                    except VirtError:
                        pass
        record.owned_jobs.clear()
        # open streams never survive their connection: abort them so a
        # half-sent upload is discarded, not committed
        self.rpc.abort_connection_streams(
            record.conn,
            "client disconnected" if clean else "client connection lost",
        )
        with self._lock:
            self._clients.pop(record.id, None)
            self._by_conn.pop(record.conn, None)

    # -- keepalive ---------------------------------------------------------

    def enable_keepalive(self, timeout: float, check_interval: "Optional[float]" = None) -> None:
        """Reap clients idle longer than ``timeout`` modelled seconds.

        The check runs from the daemon's event loop; drive it with
        :meth:`tick` (the simulation's stand-in for the poll loop).
        """
        if timeout <= 0:
            raise InvalidArgumentError("keepalive timeout must be positive")
        self._keepalive_timeout = timeout
        timer_id = self.eventloop.add_interval(
            check_interval or timeout / 2, self.reap_idle_clients
        )
        with self._lock:
            self._maintenance_timers.append(timer_id)

    def reap_idle_clients(self) -> "List[int]":
        """Force-disconnect every client idle beyond the keepalive timeout."""
        if self._keepalive_timeout is None:
            return []
        now = self.clock.now()
        with self._lock:
            stale = [
                record
                for record in self._clients.values()
                if not record.conn.closed
                and now - record.last_activity > self._keepalive_timeout
            ]
        reaped = []
        for record in stale:
            self.logger.info(
                "rpc.server",
                f"client {record.id} idle {now - record.last_activity:.0f}s, reaping",
            )
            self._cleanup_client(record)
            record.conn.close()
            reaped.append(record.id)
        return reaped

    def tick(self) -> int:
        """Run due maintenance timers (keepalive); returns timers fired."""
        return self.eventloop.run_due()

    def stats(self) -> Dict[str, Any]:
        """The daemon health snapshot the admin interface would expose."""
        self._prune()
        pool = self.pool.stats()
        with self._lock:
            nclients = len(self._clients)
        return {
            "hostname": self.hostname,
            "nclients": nclients,
            "max_clients": self.max_clients,
            "calls_served": self.rpc.calls_served,
            "calls_failed": self.rpc.calls_failed,
            **pool,
        }

    # -- observability surface ---------------------------------------------

    def server_stats(self, server: str = "libvirtd") -> Dict[str, Any]:
        """Live metrics for one server object (``virt-admin server-stats``).

        Combines the workerpool counters, the RPC dispatcher counters,
        per-driver operation latency summaries, and the keepalive/span
        totals into one plain-data payload.  ``jobs_completed`` is jobs
        the pool ran — a non-blocking procedure never becomes one;
        ``rpc.calls_served`` counts every call once, pooled or inline.
        """
        self._prune()
        with self._lock:
            if server not in self.server_pools:
                raise InvalidArgumentError(f"no server named {server!r}")
            pool = self.server_pools[server]
            rpc = self._rpc_by_server[server]
            nclients = sum(
                1
                for r in self._clients.values()
                if not r.conn.closed and r.server == server
            )
            limit = self._server_max_clients[server]
        drivers: Dict[str, Dict[str, Any]] = {}
        for labels, child in self._m_driver_ops.samples():
            summary = child.summary()
            if not summary["count"]:
                continue  # stale child left by reset-stats
            per = drivers.setdefault(
                labels["driver"], {"ops": 0, "seconds": 0.0, "procedures": {}}
            )
            per["ops"] += int(summary["count"])
            per["seconds"] += summary["sum"]
            per["procedures"][labels["procedure"]] = {
                "count": int(summary["count"]),
                "mean_seconds": summary["mean"],
            }
        procedures: Dict[str, Any] = {}
        for labels, child in self.metrics.get("rpc_server_dispatch_seconds").samples():
            if labels["server"] != server:
                continue
            summary = child.summary()
            if not summary["count"]:
                continue  # stale child left by reset-stats
            procedures[labels["procedure"]] = {
                "count": int(summary["count"]),
                "mean_seconds": summary["mean"],
                "max_seconds": summary["max"],
            }
        rpc_stats: Dict[str, Any] = {
            "calls_served": rpc.calls_served,
            "calls_failed": rpc.calls_failed,
            "pings_answered": rpc.pings_answered,
            "calls_queued": rpc.calls_queued,
            "calls_rejected": rpc.calls_rejected,
            "calls_inflight": rpc.inflight_calls(),
            "max_client_requests": rpc.max_client_requests,
            "procedures": procedures,
        }
        return {
            "hostname": self.hostname,
            "server": server,
            "timestamp": self.metrics.now(),
            "clients": {"connected": nclients, "max": limit},
            "workerpool": pool.stats(),
            "jobs_completed": pool.jobs_completed,
            "rpc": rpc_stats,
            "drivers": drivers,
            "tracing": {
                "spans_started": self.tracer.spans_started,
                "spans_finished": self.tracer.spans_finished,
                "spans_failed": self.tracer.spans_failed,
                "spans_orphaned": self.tracer.spans_orphaned,
                "spans_propagated": self.tracer.spans_propagated,
                "spans_open": self.tracer.spans_open,
            },
        }

    def trace_list(self, limit: "Optional[int]" = None) -> List[Dict[str, Any]]:
        """Known traces, oldest first: one summary row per trace id,
        covering finished and still-in-flight spans alike."""
        return self.tracer.trace_summaries(limit=limit)

    def trace_get(self, trace_id: int) -> List[Dict[str, Any]]:
        """Every buffered span of one trace as plain dicts (in-flight
        spans included, with ``end``/``duration`` of None)."""
        spans = self.tracer.export(trace_id=trace_id, include_open=True)
        if not spans:
            raise InvalidArgumentError(f"no trace with id {trace_id}")
        return spans

    def client_stats(self, client_id: "Optional[int]" = None) -> Any:
        """Per-client traffic/activity stats (``virt-admin client-stats``)."""
        self._prune()
        with self._lock:
            records = sorted(self._clients.values(), key=lambda r: r.id)
        if client_id is not None:
            match = [r for r in records if r.id == client_id]
            if not match:
                raise InvalidArgumentError(f"no client with id {client_id}")
            records = match
        out = []
        for record in records:
            entry = record.info()
            entry["last_activity"] = record.last_activity
            entry["bytes_in"] = record.conn.bytes_in
            entry["bytes_out"] = record.conn.bytes_out
            out.append(entry)
        return out[0] if client_id is not None else out

    def reset_stats(self) -> Dict[str, Any]:
        """Zero every counter/histogram and the span buffer; live-view
        gauges keep mirroring component state.  Returns what was reset."""
        families = len(self.metrics.families())
        spans = self.tracer.spans_finished
        self.metrics.reset()
        self.tracer.reset()
        self.logger.structured(
            LOG_INFO, "observability.metrics", "stats_reset",
            families=families, spans_dropped=spans,
        )
        return {"families_reset": families, "spans_dropped": spans}

    def metrics_text(self) -> str:
        """The Prometheus exposition page for this daemon's registry."""
        return render_prometheus(self.metrics)

    def flight_dump(self) -> Dict[str, Any]:
        """The flight recorder's current ring plus its lifetime stats."""
        return self.flight_recorder.dump()

    def enable_stats_logging(
        self, interval: float, priority: int = LOG_INFO
    ) -> int:
        """Periodically emit every metric sample as a structured log
        line through the virtlog pipeline; returns the timer id."""
        if interval <= 0:
            raise InvalidArgumentError("stats logging interval must be positive")
        timer_id = self.eventloop.add_interval(
            interval,
            lambda: log_metrics(self.logger, self.metrics, priority=priority),
        )
        with self._lock:
            self._maintenance_timers.append(timer_id)
        return timer_id

    def shutdown(self) -> None:
        """Graceful drain, the opposite of :meth:`crash`.

        Ordering is the whole point:

        1. stop accepting new clients (``_shut_down`` gates ``_accept``);
        2. notify connected clients (``EVENT_DAEMON_SHUTDOWN``) while
           their links still work;
        3. fail still-active background jobs so their cleanup runs and
           the FAILED outcome is journalled, not wedged;
        4. drain each driver's event bus (queued records reach their
           subscribers while the links still work) and flush its
           journal into a snapshot (fast recovery);
        5. close every client cleanly *before* tearing down listeners,
           so a client sees exactly one clean close — never a spurious
           keepalive timeout racing a half-closed link;
        6. cancel the daemon's maintenance timers (keepalive reaper,
           stats logging) so nothing fires into a dead daemon;
        7. stop the workerpools and release the hostname.
        """
        with self._lock:
            if self._shut_down:
                return
            self._shut_down = True
            records = list(self._clients.values())
            listeners = list(self._listeners.values())
            timers = list(self._maintenance_timers)
            self._maintenance_timers.clear()
        for record in records:
            try:
                self._rpc_by_server[record.server].emit_event(
                    record.conn, EVENT_DAEMON_SHUTDOWN, {"hostname": self.hostname}
                )
            except VirtError:
                pass  # that client is already gone; keep draining
        for driver in self._unique_drivers():
            engine = getattr(driver, "jobs", None)
            if engine is not None:
                for domain in engine.active_domains():
                    try:
                        engine.fail_active(domain, "daemon shut down during job")
                    except VirtError:
                        pass
            # push out any event records still queued for slow subscribers
            # while the client links are up — the drain half of the bus
            events = getattr(driver, "events", None)
            if events is not None:
                events.drain_all()
            flush = getattr(driver, "flush_state", None)
            if flush is not None:
                flush()
        # the flight recorder's last graceful word, then compact the ring
        # to disk so the next incarnation recovers a clean tail
        self.flight_recorder.record("shutdown", hostname=self.hostname)
        self.flight_recorder.flush()
        for record in records:
            self._cleanup_client(record, clean=True)
            record.conn.close()
        for listener in listeners:
            listener.close_all()
        for timer_id in timers:
            self.eventloop.cancel(timer_id)
        with self._lock:
            pools = list(self.server_pools.values())
        for pool in pools:
            pool.shutdown()
        for statedir in self._state_dirs:
            statedir.close()
        unregister_daemon(self.hostname)

    def __enter__(self) -> "Libvirtd":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ==================================================================
    # RPC procedure handlers
    # ==================================================================

    def _record_of(self, conn: ServerConnection) -> ClientRecord:
        with self._lock:
            record = self._by_conn.get(conn)
        if record is None:
            raise ConnectionError_("unknown connection")
        return record

    @staticmethod
    def _driver_of(record: ClientRecord) -> Any:
        if record.driver is None:
            raise ConnectionError_("connection not opened (call connect.open first)")
        return record.driver

    def _call(self, conn: ServerConnection, now: float) -> ClientRecord:
        """The client behind ``conn``, with one more call counted at
        ``now``: the one place a client's ``calls`` and ``last_activity``
        move."""
        record = self._record_of(conn)
        record.calls += 1
        record.last_activity = now
        return record

    def _wrap(
        self, fn: Callable[[ClientRecord, Any, Any], Any], procedure: str
    ) -> Callable[[ServerConnection, Any], Any]:
        """``fn(client, driver, body)`` as the handler of ``procedure``:
        client bookkeeping, kill points, the ``driver.op`` span and metric.
        The clock is read once as the op starts and once as it ends."""
        op_seconds = self._m_driver_ops.by("driver", procedure=procedure)

        def handler(conn: ServerConnection, body: Any) -> Any:
            started = self.clock.now()
            record = self._call(conn, started)
            driver = self._driver_of(record)
            plan = self.crash_plan
            if plan is not None:
                # kill point 1: the call arrived but nothing has happened yet
                self._maybe_crash(CrashPoint.MID_DISPATCH, procedure)
            label = getattr(driver, "name", type(driver).__name__)
            tracer = self.tracer
            span = (
                tracer.span("driver.op", start=started, driver=label, procedure=procedure)
                if tracer is not None
                else None
            )
            # the span is finished on every exit, with the error that
            # unwound it, also one raised while the process dies
            try:
                try:
                    result = fn(record, driver, body or {})
                except DaemonCrashError:
                    # kill point 2 fired inside a journal write: the
                    # driver already tore the record, now the process dies
                    self.flight_recorder.record(
                        "crash",
                        point=CrashPoint.MID_JOURNAL.value,
                        procedure=procedure,
                    )
                    self.crash()
                    raise
                ended = self.clock.now()
            except BaseException as exc:
                if span is not None:
                    tracer.finish_span(span, error=repr(exc))
                raise
            if span is not None:
                tracer.finish_span(span, end=ended)
            op_seconds[label].observe(ended - started)
            if plan is not None:
                # kill point 3: mutation + journal durable, reply never sent
                self._maybe_crash(CrashPoint.POST_JOURNAL, procedure)
            return result

        return handler

    def _h_ping(self, conn: ServerConnection, body: Any) -> Any:
        """Keepalive probe: counts as client activity, echoes the body."""
        self._call(conn, self.clock.now())
        return body if body is not None else "pong"

    def _h_open(self, conn: ServerConnection, body: Any) -> Any:
        record = self._call(conn, self.clock.now())
        uri_text = body.get("uri") if isinstance(body, dict) else None
        if not uri_text:
            raise InvalidArgumentError("connect.open requires a uri")
        uri = ConnectionURI.parse(uri_text)
        driver = self.drivers.get(uri.driver)
        if driver is None:
            raise InvalidURIError(
                f"daemon {self.hostname!r} has no driver for scheme {uri.driver!r}"
            )
        record.driver = driver
        self.logger.debug("rpc.server", f"client {record.id} opened {uri_text}")
        return {"uri": uri_text}

    def _h_close(self, conn: ServerConnection, body: Any) -> Any:
        record = self._record_of(conn)
        self._cleanup_client(record, clean=True)
        return None

    def _h_push(
        self,
        event_id: int,
        arm_row: Procedure,
        disarm_row: Procedure,
        frame_body: Callable[..., Any],
        optional: Tuple[str, ...],
    ) -> "Tuple[Callable[[ServerConnection, Any], Any], Callable[[ServerConnection, Any], Any]]":
        """The handlers arming and disarming one kind of pushed EVENT frame.

        Arming subscribes a forwarder through the driver method
        ``arm_row`` names, passing on the ``optional`` keys the CALL body
        carries; each delivery becomes one ``event_id`` frame whose body
        is ``frame_body(*delivered)``.  A client holds at most
        one subscription per frame kind (re-arming returns its id), ended
        by disarming, by ``_cleanup_client``, or by the first forward that
        finds the client gone.  Both are wrapped like any driver call:
        counted, killable at ``MID_DISPATCH`` and traced as ``driver.op``.
        """

        def arm(record: ClientRecord, driver: Any, body: Any) -> Any:
            held = record.push.get(event_id)
            if held is not None:
                return held[0]
            if not isinstance(body, dict):
                raise _not_a_map(arm_row.name, body)
            options = {key: body[key] for key in optional if key in body}

            def forward(*delivered: Any) -> None:
                try:
                    self.rpc.emit_event(record.conn, event_id, frame_body(*delivered))
                except VirtError:
                    record.release(event_id)  # client went away: stop forwarding

            sub_id = getattr(driver, arm_row.method)(forward, **options)
            record.push[event_id] = (sub_id, getattr(driver, disarm_row.method))
            return sub_id

        def disarm(record: ClientRecord, driver: Any, body: Any) -> Any:
            record.release(event_id)
            return None

        return self._wrap(arm, arm_row.name), self._wrap(disarm, disarm_row.name)

    def _h_supports_feature(self, row: Procedure) -> Callable[[ServerConnection, Any], Any]:
        def supports(_c: ClientRecord, d: Any, b: Any) -> Any:
            if not isinstance(b, dict):
                raise _not_a_map(row.name, b)
            # without a feature to test, the reply is the whole list
            feature = b.get("feature")
            return d.features() if feature is None else d.supports_feature(feature)

        return self._wrap(supports, row.name)

    def _h_backup_begin(self, row: Procedure) -> Callable[[ServerConnection, Any], Any]:
        def begin(client: ClientRecord, d: Any, b: Any) -> Any:
            (name,) = _unpack(row, b)
            result = d.backup_begin(name, b.get("options") or {})
            # remember who started the job: an unclean disconnect of
            # this client fails it rather than leaving it to run with
            # nobody able to observe or cancel it
            client.owned_jobs.add(name)
            return result

        return self._wrap(begin, row.name)

    # -- stream-backed procedures -------------------------------------------
    #
    # Each opening CALL validates its arguments through a ``_wrap``-ed
    # driver call on the argument tuple (so crash points, spans and the
    # driver-op metric apply), then attaches a ``ServerStream`` to move
    # the bulk payload outside the procedure-call path.  Uploads stage
    # chunks and commit through the driver in ONE journaled call at
    # finish time: a crash or abort mid-stream therefore leaves the
    # volume untouched.

    def _h_vol_upload(self, row: Procedure) -> Callable[[ServerConnection, Any], Any]:
        validate = self._wrap(lambda _c, d, b: d.storage_vol_get_info(*b), row.name)
        commit = self._wrap(lambda _c, d, b: d.storage_vol_upload(*b), row.name)

        def handler(conn: ServerConnection, body: Any) -> Any:
            pool, volume = _unpack(row, body)
            offset = int(body.get("offset") or 0)
            if offset < 0:
                raise InvalidArgumentError("write offset must be non-negative")
            info = validate(conn, (pool, volume))
            capacity = info["capacity_bytes"]
            stream = self.rpc.open_stream()
            # a full chunk is staged by reference (a view of its frame's
            # immutable bytes), a short one copied into a coalescing tail:
            # what is pinned stays proportional to the bytes staged
            staged: List[Any] = []
            size = 0

            def on_data(chunk: memoryview) -> None:
                nonlocal size
                size += len(chunk)
                if offset + size > capacity:
                    raise InvalidOperationError(
                        f"write of {size} bytes at offset {offset} "
                        f"exceeds capacity {capacity} of {info['path']!r}"
                    )
                if len(chunk) == DEFAULT_CHUNK:
                    staged.append(chunk)
                elif staged and isinstance(staged[-1], bytearray):
                    staged[-1] += chunk
                else:
                    staged.append(bytearray(chunk))

            def on_finish() -> Any:
                # single journaled mutation: MID_JOURNAL crash here tears
                # the journal record and recovery discards the upload
                return commit(conn, (pool, volume, staged, offset))

            stream.set_sink(on_data, on_finish=on_finish)
            return {
                "pool": pool,
                "volume": volume,
                "offset": offset,
                "capacity_bytes": capacity,
            }

        return handler

    def _h_vol_download(self, row: Procedure) -> Callable[[ServerConnection, Any], Any]:
        fetch = self._wrap(lambda _c, d, b: d.storage_vol_download(*b), row.name)

        def handler(conn: ServerConnection, body: Any) -> Any:
            pool, volume = _unpack(row, body)
            offset = int(body.get("offset") or 0)
            read, length = _cursor(fetch(conn, (pool, volume, offset, body.get("length"))))
            stream = self.rpc.open_stream()
            stream.set_source(read, result={"length": length})
            return {"pool": pool, "volume": volume, "length": length}

        return handler

    def _h_open_console(self, row: Procedure) -> Callable[[ServerConnection, Any], Any]:
        attach = self._wrap(lambda _c, d, b: d.domain_open_console(*b), row.name)

        def handler(conn: ServerConnection, body: Any) -> Any:
            (name,) = _unpack(row, body)
            console = attach(conn, (name,))
            stream = self.rpc.open_stream()

            def flush_output() -> None:
                while stream.state == "open":
                    out = console.recv()
                    if not out:
                        break
                    stream.send(out)

            def on_data(chunk: Any) -> None:
                console.send(bytes(chunk))
                flush_output()

            def on_finish() -> Any:
                console.close()
                return {"domain": name}

            def on_abort(reason: Any) -> None:
                console.close()

            stream.set_sink(on_data, on_finish=on_finish, on_abort=on_abort)
            # the guest banner is waiting before the client types anything
            flush_output()
            return {"domain": name}

        return handler

    def _h_backup_begin_pull(self, row: Procedure) -> Callable[[ServerConnection, Any], Any]:
        def begin(_c: ClientRecord, d: Any, b: Any) -> Any:
            (name,) = _unpack(row, b)
            return d.backup_begin_pull(name, b.get("options") or {})

        base = self._wrap(begin, row.name)

        def handler(conn: ServerConnection, body: Any) -> Any:
            result = base(conn, body)
            # the block payload travels on the stream; the manifest
            # (disks -> dirty block lists) is the opening reply
            read, length = _cursor(result.pop("data", b"") or b"")
            stream = self.rpc.open_stream()
            stream.set_source(read, result={"total_bytes": length})
            return result

        return handler

    def _register_handlers(self) -> None:
        """One handler per row of the procedure table, on the row's lane."""
        #: connection-level procedures, outside the driver-op wrapper
        handlers = {
            "connect.open": self._h_open,
            "connect.close": self._h_close,
            "connect.ping": self._h_ping,
        }
        # the arming procedures' rows name the driver method pair behind them
        for event_id, (arm, disarm) in PUSH_PROCEDURES.items():
            handlers[arm], handlers[disarm] = self._h_push(
                event_id, BY_NAME[arm], BY_NAME[disarm], *_PUSH_FRAMES[event_id]
            )
        #: driver procedures that do more than forward their arguments
        builders = {
            "connect.supports_feature": self._h_supports_feature,
            "domain.backup_begin": self._h_backup_begin,
            # stream-backed bulk data (never retried, never pooled past
            # the opening CALL: STREAM frames dispatch inline)
            "storage.vol_upload": self._h_vol_upload,
            "storage.vol_download": self._h_vol_download,
            "domain.open_console": self._h_open_console,
            "domain.backup_begin_pull": self._h_backup_begin_pull,
        }
        for row in REMOTE_PROCEDURES:
            # a hand-written handler wins over the row's pass-through
            if row.name in handlers:
                handler = handlers[row.name]
            elif row.name in builders:
                handler = builders[row.name](row)
            else:
                handler = self._wrap(_passthrough(row), row.name)
            self.rpc.register(row.name, handler, priority=row.priority)
