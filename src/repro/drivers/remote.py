"""The remote driver: the uniform API tunnelled over the RPC protocol.

When no client-side driver recognizes a URI — or the URI names an
explicit transport — the connection is carried to a libvirtd daemon:
every Driver method becomes one RPC call, and lifecycle events stream
back as server-pushed frames.  The daemon re-enters the very same
driver interface on its side with a local stateful driver, which is
the architecture trick that makes remote and local management
indistinguishable to applications.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.cache import InvalidationCache
from repro.core.driver import Driver
from repro.core.events import LIFECYCLE, BusCallback, ConnectionResetEvent, EventCallback
from repro.core.events import check_kinds, lifecycle_fields, lifecycle_view
from repro.core.states import DomainEvent
from repro.core.uri import ConnectionURI
from repro.daemon.registry import lookup_daemon
from repro.errors import (
    CircuitOpenError,
    ConnectionClosedError,
    ConnectionError_,
    InvalidArgumentError,
    OperationTimeoutError,
    VirtError,
)
from repro.rpc.client import PendingReply, RPCClient
from repro.rpc.procedures import REMOTE_PROCEDURES, Procedure
from repro.rpc.protocol import (
    EVENT_BUS_RECORD,
    EVENT_DAEMON_SHUTDOWN,
    EVENT_DOMAIN_LIFECYCLE,
    PUSH_PROCEDURES,
)
from repro.rpc.retry import CircuitBreaker, RetryPolicy, is_idempotent
from repro.stream import StreamConsole

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import Tracer

#: URI parameters consumed client-side, never forwarded to the daemon
RESILIENCE_URI_PARAMS = frozenset(
    {
        "keepalive_interval",
        "keepalive_count",
        "call_timeout",
        "auto_reconnect",
        "max_retries",
    }
)

#: all client-side URI parameters (resilience + the read cache toggle)
CLIENT_URI_PARAMS = RESILIENCE_URI_PARAMS | {"cache"}

#: how many of the latest bus ``seq`` numbers a client remembers, to hand
#: a handler no record twice when pushes overlap or arrive out of order
SEEN_SEQS = 1024


class ResilienceConfig:
    """Client-side survival policy for one remote connection.

    ``keepalive_interval``/``keepalive_count`` mirror the real remote
    driver's URI parameters of the same names; ``call_timeout`` bounds
    every RPC; ``retry`` (a :class:`RetryPolicy`) re-issues idempotent
    calls after timeouts; ``auto_reconnect`` re-dials a declared-dead
    link with exponential backoff, guarded by a circuit breaker.
    """

    def __init__(
        self,
        call_timeout: "Optional[float]" = None,
        keepalive_interval: "Optional[float]" = None,
        keepalive_count: int = 5,
        retry: "Optional[RetryPolicy]" = None,
        auto_reconnect: bool = True,
        reconnect_attempts: int = 5,
        reconnect_base_delay: float = 0.2,
        reconnect_max_delay: float = 10.0,
        breaker_threshold: int = 3,
        breaker_reset: float = 60.0,
    ) -> None:
        if call_timeout is not None and call_timeout <= 0:
            raise InvalidArgumentError("call_timeout must be positive")
        if keepalive_interval is not None and keepalive_interval <= 0:
            raise InvalidArgumentError("keepalive_interval must be positive")
        if reconnect_attempts < 1:
            raise InvalidArgumentError("reconnect_attempts must be at least 1")
        if reconnect_base_delay <= 0 or reconnect_max_delay < reconnect_base_delay:
            raise InvalidArgumentError(
                "need 0 < reconnect_base_delay <= reconnect_max_delay"
            )
        self.call_timeout = call_timeout
        self.keepalive_interval = keepalive_interval
        self.keepalive_count = keepalive_count
        self.retry = retry
        self.auto_reconnect = auto_reconnect
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_base_delay = reconnect_base_delay
        self.reconnect_max_delay = reconnect_max_delay
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset

    @classmethod
    def from_uri_params(cls, params: Dict[str, str]) -> "Optional[ResilienceConfig]":
        """Build a config from ``?keepalive_interval=5&...`` URI params;
        None when the URI carries no resilience parameter at all."""
        if not RESILIENCE_URI_PARAMS & set(params):
            return None
        try:
            retries = int(params.get("max_retries", "0"))
            return cls(
                call_timeout=(
                    float(params["call_timeout"]) if "call_timeout" in params else None
                ),
                keepalive_interval=(
                    float(params["keepalive_interval"])
                    if "keepalive_interval" in params
                    else None
                ),
                keepalive_count=int(params.get("keepalive_count", "5")),
                retry=RetryPolicy(max_attempts=retries) if retries > 1 else None,
                auto_reconnect=params.get("auto_reconnect", "1") not in ("0", "no", "off"),
            )
        except ValueError as exc:
            raise InvalidArgumentError(f"bad resilience URI parameter: {exc}") from exc

    def reconnect_delay(self, attempt: int) -> float:
        """Exponential backoff for the ``attempt``-th re-dial (1-based)."""
        return min(
            self.reconnect_max_delay,
            self.reconnect_base_delay * (2 ** (attempt - 1)),
        )


class RemoteDriver(Driver):
    """Client-side stub forwarding every call to a daemon.

    The class body holds the resilience stack and the stubs that do more
    than forward (coerce an argument, memoise, open a stream, arm event
    push); every other ``Driver`` method is generated below the class,
    one per row of :mod:`repro.rpc.procedures`.
    """

    name = "remote"
    stateless = False

    def __init__(
        self,
        uri: ConnectionURI,
        credentials: "Optional[Dict[str, Any]]" = None,
        resilience: "Optional[ResilienceConfig]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self._hostname = uri.hostname or "localhost"
        self._transport = uri.transport or "unix"
        self._credentials = credentials
        if resilience is None:
            resilience = ResilienceConfig.from_uri_params(uri.params)
        self.resilience = resilience
        forwarded = {
            k: v for k, v in uri.params.items() if k not in CLIENT_URI_PARAMS
        }
        self.remote_uri = ConnectionURI(
            driver=uri.driver, path=uri.path, params=forwarded
        ).format()
        #: invalidation-driven read cache (?cache=1, or :meth:`enable_cache`);
        #: it only serves entries while the bus push keeps it coherent
        self.cache = InvalidationCache(enabled=False)
        #: armed frame id -> {handler id -> (kinds, bus handler)}: every
        #: local listener, a lifecycle callback being a view of the records
        self._handlers: "Dict[int, Dict[int, Tuple[Optional[frozenset], BusCallback]]]" = {}
        self._handler_ids = {event_id: itertools.count(1) for event_id in PUSH_PROCEDURES}
        #: the latest bus seqs handed to handlers, oldest first (concurrent
        #: publishes reach this client on concurrent threads)
        self._seen_seqs: "Dict[int, None]" = {}
        self._seen_lock = threading.Lock()
        #: local handlers that raised (mirrors the daemon-side metric)
        self.bus_callback_errors = 0
        self._features: "Optional[List[str]]" = None
        #: every disconnect this driver handled, oldest first
        self.connection_events: List[ConnectionResetEvent] = []
        #: graceful-shutdown notices pushed by the daemon, oldest first
        self.shutdown_notices: List[Dict[str, Any]] = []
        self._conn_callbacks: "List[Callable[[ConnectionResetEvent], None]]" = []
        self._breaker: "Optional[CircuitBreaker]" = None
        self._clock = None
        self.reconnects = 0
        self.retries = 0
        self.metrics = metrics
        #: optional Tracer shared with (or separate from) the daemon's;
        #: every RPC issued opens an ``rpc.call`` span whose context
        #: rides the CALL frame so the daemon can join the same trace
        self.tracer = tracer
        if metrics is not None:
            self._m_retries = metrics.counter(
                "remote_retries_total", "Idempotent calls re-issued after timeouts"
            )
            self._m_reconnects = metrics.counter(
                "remote_reconnects_total", "Successful re-dials of a dead link"
            )
            self._m_circuit_open = metrics.counter(
                "remote_circuit_open_total", "Calls refused by an open circuit breaker"
            )
        self.client = self._dial()
        if uri.params.get("cache", "0") not in ("0", "no", "off"):
            self.enable_cache()

    def enable_cache(self) -> None:
        """Arm the bus push that keeps the cache coherent, then serve from it."""
        if not self.cache.enabled:
            self._armed(EVENT_BUS_RECORD)
            self.cache.enabled = True

    # -- resilient call path ---------------------------------------------------

    def _dial(self) -> RPCClient:
        """(Re-)establish the RPC session: connect, open, arm keepalive."""
        daemon = lookup_daemon(self._hostname)
        listener = daemon.listener(self._transport)
        channel = listener.connect(self._credentials)
        self._clock = channel.clock
        cfg = self.resilience
        if self.metrics is not None:
            # late-bind: the client-side registry follows the daemon clock
            self.metrics.set_clock(channel.clock.now)
        client = RPCClient(
            channel,
            default_timeout=cfg.call_timeout if cfg is not None else None,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if cfg is not None and cfg.keepalive_interval is not None:
            client.enable_keepalive(cfg.keepalive_interval, cfg.keepalive_count)
        # a draining daemon announces itself before closing the link;
        # recording the notice lets callers tell a graceful shutdown
        # apart from an abrupt crash
        client.on_event(EVENT_DAEMON_SHUTDOWN, self._on_daemon_shutdown)
        attempts = 0
        backoff: "Optional[float]" = None
        while True:
            attempts += 1
            try:
                client.call("connect.open", {"uri": self.remote_uri})
                return client
            except OperationTimeoutError:
                # connect.open is idempotent; a lossy link may eat the
                # very first frame, so the session open retries too
                if (
                    cfg is None
                    or cfg.retry is None
                    or attempts >= cfg.retry.max_attempts
                ):
                    raise
                backoff = cfg.retry.next_delay(backoff)
                self._clock.sleep(backoff)
                self.retries += 1
                if self.metrics is not None:
                    self._m_retries.inc()

    def _ensure_breaker(self) -> CircuitBreaker:
        if self._breaker is None:
            cfg = self.resilience
            self._breaker = CircuitBreaker(
                self._clock.now,
                threshold=cfg.breaker_threshold,
                reset_timeout=cfg.breaker_reset,
            )
        return self._breaker

    def _call(self, name: str, body: Any = None) -> Any:
        """One RPC through the resilience stack.

        Without a :class:`ResilienceConfig` this is a bare
        ``client.call`` — the seed behaviour.  With one, per-call
        deadlines apply (inside :meth:`RPCClient.call`), a dead
        connection triggers backed-off auto-reconnect with event
        re-subscription, and timeouts on idempotent procedures are
        retried under the policy.
        """
        cfg = self.resilience
        if cfg is None:
            return self.client.call(name, body)
        max_attempts = cfg.retry.max_attempts if cfg.retry is not None else 2
        attempts = 0
        backoff: "Optional[float]" = None
        while True:
            attempts += 1
            if self._breaker is not None and not self._breaker.allow():
                if self.metrics is not None:
                    self._m_circuit_open.inc()
                raise CircuitOpenError(
                    f"circuit open for {self._hostname!r}: reconnect keeps "
                    f"failing; retry after {cfg.breaker_reset:g}s"
                )
            try:
                return self.client.call(name, body)
            except ConnectionClosedError as exc:
                if not cfg.auto_reconnect:
                    raise
                self._reconnect(str(exc) or type(exc).__name__)
                # the link is healthy again; re-issuing is only safe for
                # idempotent procedures — anything else may have executed
                if is_idempotent(name) and attempts < max_attempts:
                    continue
                raise
            except OperationTimeoutError:
                if (
                    cfg.retry is not None
                    and is_idempotent(name)
                    and attempts < cfg.retry.max_attempts
                ):
                    backoff = cfg.retry.next_delay(backoff)
                    self._clock.sleep(backoff)
                    self.retries += 1
                    if self.metrics is not None:
                        self._m_retries.inc()
                    continue
                raise

    def call_async(self, name: str, body: Any = None) -> "PendingReply":
        """Pipeline one RPC: send now, collect the reply later.

        Returns a :class:`~repro.rpc.client.PendingReply` whose
        ``result()`` blocks until the daemon's out-of-order reply
        arrives.  Deliberately single-shot — the retry/reconnect stack
        only wraps synchronous :meth:`_call`, because a pipelined call
        may have executed even if its reply is lost."""
        return self.client.call_async(name, body)

    def _reconnect(self, reason: str) -> None:
        """Re-dial with exponential backoff; raises when the budget is
        exhausted or the circuit breaker refuses to keep trying."""
        cfg = self.resilience
        clock = self._clock
        breaker = self._ensure_breaker()
        t0 = clock.now()
        last_exc: "Optional[VirtError]" = None
        attempts = 0
        for attempt in range(1, cfg.reconnect_attempts + 1):
            if not breaker.allow():
                break
            attempts = attempt
            clock.sleep(cfg.reconnect_delay(attempt))
            try:
                client = self._dial()
                # events during the outage are gone, and a restarted
                # daemon restarts its seq: forget the dead session's
                with self._seen_lock:
                    self._seen_seqs.clear()
                for event_id in sorted(self._handlers):
                    self._arm(client, event_id, client.call)
            except VirtError as exc:
                last_exc = exc
                breaker.record_failure()
                continue
            self.client.close()  # drop the dead session's timers
            self.client = client
            # anything cached across the outage may be stale: flush
            self.cache.flush("reconnect")
            self.reconnects += 1
            if self.metrics is not None:
                self._m_reconnects.inc()
            breaker.record_success()
            self._emit_connection_event(
                ConnectionResetEvent(
                    reason, attempt, clock.now() - t0, True, clock.now()
                )
            )
            return
        self._emit_connection_event(
            ConnectionResetEvent(
                reason, attempts, clock.now() - t0, False, clock.now()
            )
        )
        raise ConnectionError_(
            f"lost connection to {self._hostname!r} ({reason}); "
            f"reconnect gave up after {attempts} attempts"
        ) from last_exc

    def _emit_connection_event(self, event: ConnectionResetEvent) -> None:
        self.connection_events.append(event)
        for callback in list(self._conn_callbacks):
            try:
                callback(event)
            except Exception:  # noqa: BLE001 - observers must not break recovery
                continue

    def on_connection_event(self, callback: "Callable[[ConnectionResetEvent], None]") -> None:
        """Observe disconnect/reconnect outcomes (monitoring hooks)."""
        self._conn_callbacks.append(callback)

    def tick(self) -> int:
        """Drive the client-side keepalive timers (poll-loop stand-in)."""
        return self.client.tick()

    # -- connection -----------------------------------------------------------

    def close(self) -> None:
        try:
            if not self.client.closed and not self.client.dead:
                self.client.call("connect.close")
        except VirtError:
            pass  # closing a dying link must not raise
        finally:
            self.client.close()

    def get_version(self) -> Tuple[int, int, int]:
        return tuple(self._call("connect.get_version"))  # type: ignore[return-value]

    def features(self) -> List[str]:
        if self._features is None:
            self._features = list(self._call("connect.supports_feature", {"feature": None}))
        return self._features

    def ping(self) -> str:
        """Round-trip health probe (used by the transport benchmarks)."""
        return self._call("connect.ping")

    def _cached_call(self, scope: str, key: str, name: str, body: Any, cached: bool) -> Any:
        """Serve from the invalidation cache, falling through to the wire.

        ``cached=False`` is the bypass flag: the caller needs daemon
        truth regardless of coherence state.  An answer whose key was
        invalidated while it was on the wire is returned, not stored."""
        if cached:
            hit, value = self.cache.get(scope, key)
            if hit:
                return value
        since = self.cache.generation
        value = self._call(name, body)
        if cached:
            self.cache.put(scope, key, value, since)
        return value

    def domain_set_autostart(self, name: str, autostart: bool) -> None:
        self._call(
            "domain.set_autostart", {"name": name, "autostart": bool(autostart)}
        )

    # -- backup & streams ---------------------------------------------------------------------

    def backup_begin(self, name: str, options: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return self._call(
            "domain.backup_begin", {"name": name, "options": dict(options or {})}
        )

    def backup_begin_pull(self, name: str, options: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        # stream-backed (never retried): the manifest arrives as the
        # opening reply, the block payload rides STREAM frames
        stream = self.client.open_stream(
            "domain.backup_begin_pull",
            {"name": name, "options": dict(options or {})},
        )
        result = dict(stream.info or {})
        result["data"] = stream.drain()
        return result

    def domain_open_console(self, name: str) -> Any:
        stream = self.client.open_stream("domain.open_console", {"name": name})
        return StreamConsole(stream)

    # -- events -------------------------------------------------------------------------------

    def domain_event_register(self, callback: EventCallback) -> int:
        return self._listen(EVENT_DOMAIN_LIFECYCLE, lifecycle_view(callback), LIFECYCLE)

    def domain_event_deregister(self, callback_id: int) -> None:
        self._unlisten(EVENT_DOMAIN_LIFECYCLE, callback_id)

    def event_bus_subscribe(
        self,
        handler: BusCallback,
        kinds: "Optional[Any]" = None,
        max_queue: "Optional[int]" = None,
    ) -> int:
        """Subscribe to pushed bus records; kinds filter applies locally."""
        if not callable(handler):
            raise InvalidArgumentError("bus handler must be callable")
        return self._listen(EVENT_BUS_RECORD, handler, check_kinds(kinds))

    def event_bus_unsubscribe(self, sub_id: int) -> None:
        self._unlisten(EVENT_BUS_RECORD, sub_id)

    def _listen(self, event_id: int, handler: BusCallback, kinds: "Optional[frozenset]") -> int:
        """Add a local handler of ``event_id`` frames; returns its id."""
        handler_id = next(self._handler_ids[event_id])
        self._armed(event_id)[handler_id] = (kinds, handler)
        return handler_id

    def _unlisten(self, event_id: int, handler_id: int) -> None:
        handlers = self._handlers.get(event_id, {})
        if handlers.pop(handler_id, None) is None:
            raise InvalidArgumentError(f"no event subscription with id {handler_id}")
        if not handlers and not (event_id == EVENT_BUS_RECORD and self.cache.enabled):
            # nothing client-side needs this push stream any more
            self._call(PUSH_PROCEDURES[event_id][1])
            self.client.remove_event_handler(event_id)
            del self._handlers[event_id]

    def _armed(self, event_id: int) -> "Dict[int, Tuple[Optional[frozenset], BusCallback]]":
        """The handlers of ``event_id`` frames, arming their push first if need be."""
        handlers = self._handlers.get(event_id)
        if handlers is None:
            handlers = self._handlers[event_id] = {}  # a reconnect inside the call re-arms it
            try:
                self._arm(self.client, event_id, self._call)
            except VirtError:
                del self._handlers[event_id]
                raise
        return handlers

    def _arm(self, client: RPCClient, event_id: int, call: Callable[[str], Any]) -> None:
        """Route ``client``'s ``event_id`` frames here and have the daemon
        push them (idempotent daemon-side)."""
        client.on_event(event_id, functools.partial(self._on_bus_record, event_id=event_id))
        call(PUSH_PROCEDURES[event_id][0])

    def _on_bus_record(self, body: Any, event_id: int = EVENT_BUS_RECORD) -> None:
        """The one delivery function, for pushed frames of both kinds.

        Every record (a lifecycle frame becomes the record it mirrors)
        reaches the idempotent cache invalidation *before* any handler,
        so no handler reads an answer its record replaced.  Handlers are
        spared only a bus ``seq`` already handed over: a window, not a
        high-water mark, as concurrent publishes may arrive out of order.
        """
        if event_id == EVENT_DOMAIN_LIFECYCLE:
            event = DomainEvent(body["event"])
            record = {"kind": "lifecycle", **lifecycle_fields(body["domain"], event, body.get("detail", ""))}
        else:
            record = dict(body or {})
        self.cache.on_event(record)
        seq = record.get("seq")
        if seq is not None:
            with self._seen_lock:
                if seq in self._seen_seqs:
                    return  # duplicate push (re-subscription overlap)
                self._seen_seqs[seq] = None
                if len(self._seen_seqs) > SEEN_SEQS:
                    del self._seen_seqs[next(iter(self._seen_seqs))]
        kind = record.get("kind")
        for kinds, handler in list(self._handlers.get(event_id, {}).values()):
            if kinds is not None and kind not in kinds:
                continue
            try:
                handler(dict(record))
            except Exception:  # noqa: BLE001 - one bad consumer must not break others
                self.bus_callback_errors += 1

    def _on_daemon_shutdown(self, body: Any) -> None:
        self.shutdown_notices.append(dict(body or {}))

    # -- volume streams ---------------------------------------------------------------------------

    def storage_vol_upload(self, pool: str, volume: str, data: Any, offset: int = 0) -> Dict[str, Any]:
        stream = self.client.open_stream(
            "storage.vol_upload",
            {"pool": pool, "volume": volume, "offset": int(offset)},
        )
        try:
            stream.send(data)
        except VirtError:
            if stream.state == "open":
                stream.abort("upload failed client-side")
            raise
        return stream.finish()

    def storage_vol_download(self, pool: str, volume: str, offset: int = 0, length: "Optional[int]" = None) -> bytes:
        stream = self.client.open_stream(
            "storage.vol_download",
            {"pool": pool, "volume": volume, "offset": int(offset), "length": length},
        )
        return stream.drain()


def _forwarder(row: Procedure) -> Callable[..., Any]:
    """The stub for a table row that forwards to one driver method.

    A real function with the signature of the ``Driver`` method it
    overrides (plus the ``cached`` bypass flag on cached reads), compiled
    from a template the way ``namedtuple`` compiles ``__new__``: a call
    builds its body map directly and binds no ``inspect.Signature``.
    """
    base = getattr(Driver, row.method)
    signature = inspect.signature(base)
    params = list(signature.parameters)[1:]
    if len(params) != len(row.args):
        raise TypeError(
            f"{row.name} carries {row.args}, Driver.{row.method} takes {params}"
        )
    pairs = ", ".join(f"{arg!r}: {param}" for arg, param in zip(row.args, params))
    body = f"{{{pairs}}}" if params else "None"
    if row.cache is None:
        call = f"self._call({row.name!r}, {body})"
    else:
        key = params[0] if params else repr(row.name)
        call = f"self._cached_call({row.cache!r}, {key}, {row.name!r}, {body}, cached)"
        cached = inspect.Parameter(
            "cached", inspect.Parameter.POSITIONAL_OR_KEYWORD, default=True, annotation="bool"
        )
        signature = signature.replace(parameters=[*signature.parameters.values(), cached])
    source = f"def {row.method}{signature}:\n    return {call}\n"
    namespace: Dict[str, Any] = {"__name__": __name__}
    # dont_inherit: this module's ``annotations`` future would quote the
    # already-quoted annotations a second time
    exec(compile(source, f"<RemoteDriver.{row.method}>", "exec", dont_inherit=True), namespace)
    stub = namespace[row.method]
    stub.__qualname__ = f"RemoteDriver.{row.method}"
    stub.__doc__ = base.__doc__
    return stub


for _row in REMOTE_PROCEDURES:
    # what the class body defines is a stub that does more than forward
    if _row.method is not None and _row.method not in vars(RemoteDriver):
        setattr(RemoteDriver, _row.method, _forwarder(_row))
