"""RPC client: call serialization, serial matching, event delivery,
per-call deadlines, and the client half of the keepalive protocol.

Resilience additions over the bare wire client:

* ``call(..., timeout=...)`` bounds how long one call may block; a lost
  reply costs exactly the deadline and raises
  :class:`~repro.errors.OperationTimeoutError`.
* ``enable_keepalive(interval, count)`` arms the PING/PONG program
  (mirroring libvirt's ``virKeepAlive``): an event-loop timer probes the
  daemon every ``interval`` modelled seconds, and after ``count``
  consecutive missed PONGs the connection is *declared dead* — in-flight
  and subsequent calls fail with
  :class:`~repro.errors.KeepaliveTimeoutError` instead of hanging.
* A desynchronized reply stream (serial mismatch, non-REPLY frame,
  unparsable reply) closes the channel: mispairing replies silently
  would be worse than failing every later call with
  :class:`~repro.errors.ConnectionClosedError`.

Concurrency: a server that dispatches through a workerpool answers
*asynchronously* and may deliver replies in any order.  The client
keeps a serial → pending-call correlation table; each REPLY frame is
matched to its call by serial, so several calls can be in flight on one
connection at once (``call_async`` starts a call without blocking, and
the returned handle's ``result()`` collects it).  Deadline and
keepalive semantics are unchanged: a reply that can never arrive
charges exactly the remaining wait on the caller's own clock.

Bulk data additions:

* ``open_stream(procedure, ...)`` issues a stream-carrying CALL and
  returns a :class:`~repro.stream.core.ClientStream` correlated by the
  call's serial; STREAM frames are demultiplexed off both the inline
  and pushed delivery paths.  Streams are torn down — never left
  dangling — on keepalive death, desync, and ``close``.
* ``call_many([...])`` coalesces several small CALL frames into one
  transport write (one per-message latency charge for the whole batch).
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import (
    ConnectionClosedError,
    InvalidArgumentError,
    KeepaliveTimeoutError,
    OperationTimeoutError,
    RPCError,
    TransportStalledError,
    VirtError,
)
from repro.rpc.protocol import (
    KEEPALIVE_PONG,
    STREAM_PROCEDURES,
    MessageType,
    ReplyStatus,
    RPCMessage,
    is_keepalive,
    make_ping,
    peek_message_type,
    procedure_number,
)
from repro.rpc.transport import Channel
from repro.stream.core import ClientStream
from repro.util.eventloop import EventLoop

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import Span, Tracer

#: real-time (not modelled) ceiling on waiting for an async reply — a
#: backstop against a wedged dispatcher, far above any legitimate wait
REPLY_WAIT_BACKSTOP = 60.0


class _PendingCall:
    """One call awaiting its reply, keyed by serial."""

    __slots__ = (
        "serial",
        "procedure",
        "timeout",
        "wait_bound",
        "bound_is_keepalive",
        "started",
        "_claimed",
        "_resolved",
        "outcome",
        "reply",
        "reason",
        "span",
    )

    def __init__(
        self,
        serial: int,
        procedure: str,
        timeout: "Optional[float]",
        wait_bound: "Optional[float]",
        bound_is_keepalive: bool,
        started: float,
    ) -> None:
        self.serial = serial
        self.procedure = procedure
        self.timeout = timeout
        self.wait_bound = wait_bound
        self.bound_is_keepalive = bound_is_keepalive
        self.started = started
        #: taken (never released) by the resolution that wins
        self._claimed = threading.Lock()
        #: one-shot gate: held from creation, released by that resolution
        self._resolved = threading.Lock()
        self._resolved.acquire()
        #: None while in flight; then "reply" | "lost" | "closed" | "desync"
        self.outcome: "Optional[str]" = None
        #: packed, as an inline server returned it; or already decoded by
        #: the thread that delivered it (a pooled reply is decoded once)
        self.reply: "bytes | RPCMessage | None" = None
        self.reason: "Optional[str]" = None
        #: detached rpc.call span (tracing enabled only)
        self.span: "Optional[Span]" = None

    def resolve(
        self, outcome: str, reply: "bytes | RPCMessage | None" = None, reason: "Optional[str]" = None
    ) -> None:
        if not self._claimed.acquire(blocking=False):
            return  # first resolution wins
        self.reply = reply
        self.reason = reason
        self.outcome = outcome  # last: a set outcome means the rest is readable
        self._resolved.release()

    def wait(self, timeout: float) -> bool:
        """Block until resolved; False after ``timeout`` real seconds."""
        if self.outcome is None:
            if not self._resolved.acquire(timeout=timeout):
                return False
            self._resolved.release()  # stays open for every other waiter
        return True


class PendingReply:
    """Handle to one in-flight call (see :meth:`RPCClient.call_async`)."""

    __slots__ = ("_client", "_entry", "_done", "_result", "_failure")

    def __init__(self, client: "RPCClient", entry: _PendingCall) -> None:
        self._client = client
        self._entry = entry
        self._done = False
        self._result: Any = None
        self._failure: "Optional[BaseException]" = None

    @property
    def serial(self) -> int:
        return self._entry.serial

    @property
    def procedure(self) -> str:
        return self._entry.procedure

    def done(self) -> bool:
        """True once the reply (or its loss) is known without blocking."""
        return self._done or self._entry.outcome is not None

    def result(self) -> Any:
        """Block until the reply arrives and return its body (idempotent)."""
        if not self._done:
            try:
                self._result = self._client._finish_call(self._entry)
            except BaseException as exc:
                self._failure = exc
            self._done = True
        if self._failure is not None:
            raise self._failure
        return self._result


class RPCClient:
    """The client end of one RPC connection."""

    def __init__(
        self,
        channel: Channel,
        default_timeout: "Optional[float]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self._channel = channel
        #: optional Tracer; when set, every call opens a detached
        #: ``rpc.call`` span and stamps its context onto the CALL frame
        self.tracer = tracer
        self._serials = itertools.count(1)
        self._event_handlers: Dict[int, Callable[[Any], None]] = {}
        self._pending: Dict[int, _PendingCall] = {}
        #: open streams keyed by their opening call's serial
        self._streams: Dict[int, ClientStream] = {}
        self._lock = threading.Lock()
        self.calls_made = 0
        self.timeouts = 0
        #: replies that overtook an earlier outstanding serial
        self.replies_out_of_order = 0
        #: per-call deadline applied when ``call`` gets no explicit one
        self.default_timeout = default_timeout
        self.metrics = metrics
        if metrics is not None:
            self._m_calls = metrics.counter(
                "rpc_client_calls_total", "RPC calls issued", ("procedure",)
            ).by("procedure")
            self._m_latency = metrics.histogram(
                "rpc_client_call_seconds",
                "Modelled round-trip latency of successful RPC calls",
                ("procedure",),
            ).by("procedure")
            self._m_timeouts = metrics.counter(
                "rpc_client_timeouts_total", "Calls that hit their deadline", ("procedure",)
            ).by("procedure")
            self._m_errors = metrics.counter(
                "rpc_client_errors_total", "Structured error replies", ("procedure",)
            ).by("procedure")
            self._m_pings = metrics.counter(
                "rpc_client_keepalive_pings_total", "Keepalive PINGs sent"
            )
            self._m_pongs = metrics.counter(
                "rpc_client_keepalive_pongs_total", "Keepalive PONGs received"
            )
            self._m_deaths = metrics.counter(
                "rpc_client_keepalive_deaths_total",
                "Connections declared dead (keepalive or desync)",
            )
            self._m_ooo = metrics.counter(
                "rpc_client_out_of_order_replies_total",
                "REPLY frames that overtook an earlier outstanding serial",
            )
        # -- keepalive state
        self.eventloop: "Optional[EventLoop]" = None
        self._ka_interval: "Optional[float]" = None
        self._ka_count = 0
        self._ka_missed = 0
        self._ka_timer: "Optional[int]" = None
        self._dead_reason: "Optional[str]" = None
        self.pings_sent = 0
        self.pongs_received = 0
        channel.set_event_handler(self._on_event_frame)
        channel.set_reply_handler(self._on_reply_frame)
        channel.set_reply_lost_handler(self._on_reply_lost)

    @property
    def transport(self) -> str:
        return self._channel.spec.name

    @property
    def closed(self) -> bool:
        return self._channel.closed

    @property
    def dead(self) -> bool:
        """True once keepalive (or a desync) declared this link dead."""
        return self._dead_reason is not None

    @property
    def dead_reason(self) -> "Optional[str]":
        return self._dead_reason

    @property
    def calls_in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- keepalive ---------------------------------------------------------

    def enable_keepalive(
        self,
        interval: float,
        count: int = 5,
        eventloop: "Optional[EventLoop]" = None,
    ) -> None:
        """Arm client-side keepalive (``virConnectSetKeepAlive``).

        Every ``interval`` modelled seconds the event loop sends a PING;
        ``count`` consecutive missed PONGs declare the connection dead.
        Drive the timers with :meth:`tick` (or ``eventloop.drive``).
        """
        if interval <= 0:
            raise InvalidArgumentError("keepalive interval must be positive")
        if count < 1:
            raise InvalidArgumentError("keepalive count must be at least 1")
        self.disable_keepalive()
        self._ka_interval = interval
        self._ka_count = count
        self._ka_missed = 0
        self.eventloop = eventloop or EventLoop(self._channel.clock.now)
        self._ka_timer = self.eventloop.add_interval(interval, self._keepalive_probe)

    def disable_keepalive(self) -> None:
        if self._ka_timer is not None and self.eventloop is not None:
            self.eventloop.cancel(self._ka_timer)
        self._ka_timer = None
        self._ka_interval = None
        self._ka_count = 0
        self._ka_missed = 0

    @property
    def keepalive_enabled(self) -> bool:
        return self._ka_interval is not None

    @property
    def missed_pings(self) -> int:
        return self._ka_missed

    def tick(self) -> int:
        """Run due keepalive timers; returns how many fired."""
        if self.eventloop is None:
            return 0
        return self.eventloop.run_due()

    def send_ping(self, timeout: "Optional[float]" = None) -> bool:
        """One PING/PONG round trip; True when the PONG arrived."""
        if self._dead_reason is not None:
            raise KeepaliveTimeoutError(self._dead_reason)
        if self._channel.closed:
            raise ConnectionClosedError("RPC connection is closed")
        with self._lock:
            serial = next(self._serials)
            self.pings_sent += 1
        if self.metrics is not None:
            self._m_pings.inc()
        bound_in = timeout if timeout is not None else self._ka_interval
        wait_bound = (
            self._channel.clock.now() + bound_in if bound_in is not None else None
        )
        # keepalive is answered inline even by pooled servers, so the
        # synchronous round trip is always valid here
        raw = self._channel.call_bytes(make_ping(serial).pack(), wait_bound=wait_bound)
        if raw is None:
            return False
        pong = RPCMessage.unpack(raw)
        if not is_keepalive(pong) or pong.procedure != KEEPALIVE_PONG:
            return False
        with self._lock:
            self.pongs_received += 1
        if self.metrics is not None:
            self._m_pongs.inc()
        return True

    def _keepalive_probe(self) -> None:
        """The interval-timer body: probe, count misses, declare death."""
        if self._dead_reason is not None or self._channel.closed:
            return
        try:
            if self.send_ping():
                self._ka_missed = 0
                return
        except TransportStalledError:
            pass
        except ConnectionClosedError as exc:
            self._declare_dead(f"keepalive probe failed: {exc}")
            return
        self._ka_missed += 1
        if self._ka_missed >= self._ka_count:
            self._declare_dead(
                f"keepalive: no response to {self._ka_missed} consecutive pings "
                f"({self._ka_interval:g}s apart)"
            )

    def _declare_dead(self, reason: str) -> None:
        self._dead_reason = reason
        if self.metrics is not None:
            self._m_deaths.inc()
        self._channel.abandon()
        self._abort_all_streams(reason)
        if self._ka_timer is not None and self.eventloop is not None:
            self.eventloop.cancel(self._ka_timer)
            self._ka_timer = None

    # -- calls -------------------------------------------------------------

    def call(self, procedure: str, body: Any = None, timeout: "Optional[float]" = None) -> Any:
        """Invoke a remote procedure and return its result body.

        Server-side failures arrive as structured error replies and are
        re-raised here as the matching :class:`VirtError` subclass.

        ``timeout`` (defaulting to ``default_timeout``) bounds the wait
        for the reply.  With keepalive armed, the wait is additionally
        bounded by ``interval * count`` — the point at which the probe
        loop would have declared the connection dead under a blocked
        call, mirroring how libvirt aborts in-flight calls when
        ``virKeepAlive`` trips.
        """
        return self._finish_call(self._start_call(procedure, body, timeout))

    def call_async(
        self, procedure: str, body: Any = None, timeout: "Optional[float]" = None
    ) -> PendingReply:
        """Start a call without waiting for its reply.

        Several calls may be pipelined on the connection this way; the
        server executes them concurrently (up to its
        ``max_client_requests`` window) and each reply is correlated
        back by serial.  Collect with :meth:`PendingReply.result`, which
        applies the same deadline/keepalive semantics as :meth:`call`.
        """
        return PendingReply(self, self._start_call(procedure, body, timeout))

    def call_many(
        self,
        calls: "list[tuple[str, Any]]",
        timeout: "Optional[float]" = None,
    ) -> "list[Any]":
        """Issue several calls as one coalesced transport write.

        ``calls`` is a list of ``(procedure, body)`` pairs.  The whole
        batch pays the per-message transport latency once instead of
        once per call — the win for many small calls (bulk status
        polls, fleet sweeps).  Replies are still correlated per serial,
        results are returned in input order, and the first failure is
        re-raised after every reply has been collected.
        """
        if not calls:
            return []
        entries = []
        frames = []
        for procedure, body in calls:
            entry, frame = self._prepare_call(procedure, body, timeout)
            entries.append(entry)
            frames.append(frame)
        try:
            outcomes = self._channel.send_batch(frames, tokens=[entry.serial for entry in entries])
        except BaseException as exc:
            for entry in entries:
                self._forget(entry)
                self._finish_span(entry, error=repr(exc))
            raise
        for entry, (status, raw) in zip(entries, outcomes):
            self._settle(entry, status, raw)
        results: "list[Any]" = []
        first_failure: "Optional[BaseException]" = None
        for entry in entries:
            try:
                results.append(self._finish_call(entry))
            except BaseException as exc:  # collect every reply regardless
                results.append(None)
                if first_failure is None:
                    first_failure = exc
        if first_failure is not None:
            raise first_failure
        return results

    # -- streams -----------------------------------------------------------

    def open_stream(
        self, procedure: str, body: Any = None, timeout: "Optional[float]" = None
    ) -> ClientStream:
        """Issue a stream-carrying CALL and return its client stream.

        The stream is registered *before* the CALL goes out: a server
        that starts pushing chunks while still dispatching the opening
        call (every download does) finds the buffer already in place.
        The opening reply's body lands on ``stream.info``.

        Stream procedures are deliberately absent from the idempotent
        retry allowlist — replaying an upload after a lost reply would
        duplicate bytes — so unlike :meth:`call` this path never
        retries.
        """
        if procedure not in STREAM_PROCEDURES:
            raise InvalidArgumentError(
                f"procedure {procedure!r} does not carry a stream"
            )
        with self._lock:
            serial = next(self._serials)
        stream = ClientStream(self, procedure, procedure_number(procedure), serial)
        with self._lock:
            self._streams[serial] = stream
        try:
            entry = self._start_call(procedure, body, timeout, serial=serial)
            stream.info = self._finish_call(entry)
        except BaseException as exc:
            self._forget_stream(serial)
            if stream.state == "open":
                stream.state = "aborted"
                stream.error = (
                    exc
                    if isinstance(exc, VirtError)
                    else RPCError(f"stream open failed: {exc}")
                )
            raise
        if stream.state == "aborted":
            raise stream.error
        return stream

    def _send_stream_frame(self, frame: bytes) -> bool:
        """Push one STREAM frame; True when it reached the server."""
        if self._dead_reason is not None:
            raise ConnectionClosedError(
                f"connection declared dead: {self._dead_reason}"
            )
        return self._channel.send_oneway(frame)

    def _stream_link_ok(self) -> bool:
        return not (
            self._channel.closed
            or self._channel.severed
            or self._dead_reason is not None
        )

    def _forget_stream(self, serial: int) -> None:
        with self._lock:
            self._streams.pop(serial, None)

    @property
    def streams_open(self) -> int:
        with self._lock:
            return len(self._streams)

    def _abort_all_streams(self, reason: str) -> None:
        """Teardown every open stream (link died): nothing may dangle."""
        with self._lock:
            streams = list(self._streams.values())
            self._streams.clear()
        for stream in streams:
            stream._local_abort(reason)

    def _on_stream_frame(self, data: "bytes | List[Any]") -> None:
        try:
            # a gather frame's data chunk is decoded as the payload buffer
            # the daemon handed over: the chunk is not copied to arrive
            message = RPCMessage.unpack(data if isinstance(data, list) else memoryview(data))
        except RPCError:
            # a corrupted stream frame leaves a hole in the byte
            # stream; the stalled stream aborts at the next recv/finish
            return
        with self._lock:
            stream = self._streams.get(message.serial)
        if stream is not None:
            stream._on_frame(message)

    def _prepare_call(
        self,
        procedure: str,
        body: Any,
        timeout: "Optional[float]",
        serial: "Optional[int]" = None,
    ) -> "tuple[_PendingCall, bytes]":
        """Build the CALL frame and register the pending entry.

        Shared by the single-call path, the batched path
        (:meth:`call_many`) and the stream-opening path
        (:meth:`open_stream`, which pre-allocates the serial so the
        stream can be registered before the frame goes out)."""
        if self._dead_reason is not None:
            raise KeepaliveTimeoutError(f"connection declared dead: {self._dead_reason}")
        if self._channel.closed:
            raise ConnectionClosedError("RPC connection is closed")
        number = procedure_number(procedure)
        if timeout is None:
            timeout = self.default_timeout
        if timeout is not None and timeout <= 0:
            raise InvalidArgumentError("call timeout must be positive")
        with self._lock:
            if serial is None:
                serial = next(self._serials)
            self.calls_made += 1
        if self.metrics is not None:
            self._m_calls[procedure].inc()
        request = RPCMessage(number, MessageType.CALL, serial)
        request.body = body
        span: "Optional[Span]" = None
        if self.tracer is not None:
            # detached (never on the thread stack): pipelined calls from
            # one thread must stay siblings, and the reply may be
            # collected from a different thread than the one that sent
            span = self.tracer.start_span(
                "rpc.call",
                procedure=procedure,
                transport=self.transport,
                serial=serial,
            )
            request.trace = span.context.to_wire()
        now = self._channel.clock.now()
        wait_bound: "Optional[float]" = None
        bound_is_keepalive = False
        if timeout is not None:
            wait_bound = now + timeout
        if self._ka_interval is not None:
            ka_bound = now + self._ka_interval * self._ka_count
            if wait_bound is None or ka_bound < wait_bound:
                wait_bound = ka_bound
                bound_is_keepalive = True
        entry = _PendingCall(serial, procedure, timeout, wait_bound, bound_is_keepalive, now)
        entry.span = span
        with self._lock:
            self._pending[serial] = entry
        return entry, request.pack()

    def _start_call(
        self,
        procedure: str,
        body: Any,
        timeout: "Optional[float]",
        serial: "Optional[int]" = None,
    ) -> _PendingCall:
        """Send the CALL frame and register the pending entry."""
        entry, frame = self._prepare_call(procedure, body, timeout, serial=serial)
        try:
            status, raw = self._channel.send_request(frame, token=entry.serial)
        except BaseException as exc:
            self._forget(entry)
            self._finish_span(entry, error=repr(exc))
            raise
        self._settle(entry, status, raw)
        return entry

    def _settle(self, entry: _PendingCall, status: str, raw: "Optional[bytes]") -> None:
        """Apply one frame's transport outcome to its call.

        An inline ``"reply"`` resolves the call here; a ``"pending"`` one
        resolves through :meth:`_on_reply_frame`, and a ``"lost"`` one
        was already resolved through :meth:`_on_reply_lost`, whose wait
        :meth:`_finish_call_inner` charges.
        """
        if status == "reply":
            self._forget(entry)
            if raw is None:
                self._desynchronize(f"no reply to {entry.procedure}")
            entry.resolve("reply", reply=raw)

    def _finish_call(self, entry: _PendingCall) -> Any:
        """Wait for the reply and translate it, or the loss of it,
        closing the call's span with the outcome either way."""
        try:
            result = self._finish_call_inner(entry)
        except BaseException as exc:
            self._finish_span(entry, error=repr(exc))
            raise
        self._finish_span(entry)
        return result

    def _finish_span(self, entry: _PendingCall, error: "Optional[str]" = None) -> None:
        if entry.span is None or self.tracer is None or entry.span.finished:
            return
        entry.span.set_attribute("status", "error" if error is not None else "ok")
        self.tracer.finish_span(entry.span, error=error)

    def _finish_call_inner(self, entry: _PendingCall) -> Any:
        self._wait_for_outcome(entry)
        if entry.outcome == "lost":
            # the transport told us no reply is coming; this is the one
            # place a lost reply's wait is charged, on the caller's clock
            try:
                self._channel.charge_stall(
                    entry.wait_bound, f"reply to {entry.procedure} lost"
                )
            except TransportStalledError as exc:
                self._map_stall(exc, entry)
                raise  # pragma: no cover - _map_stall always raises
        if entry.outcome == "closed":
            raise ConnectionClosedError(
                entry.reason or "connection closed with the call in flight"
            )
        if entry.outcome == "desync":
            raise RPCError(entry.reason or "reply stream desynchronized")
        reply = entry.reply
        if not isinstance(reply, RPCMessage):
            try:
                reply = RPCMessage.unpack(reply)
            except RPCError as exc:
                self._desynchronize(f"unparsable reply to {entry.procedure}: {exc}")
        if reply.mtype != MessageType.REPLY:
            self._desynchronize(f"expected REPLY, got {reply.mtype.name}")
        if reply.serial != entry.serial:
            self._desynchronize(
                f"serial mismatch: sent {entry.serial}, got {reply.serial}"
            )
        if reply.status == ReplyStatus.ERROR:
            if not isinstance(reply.body, dict):
                self._desynchronize(f"malformed error body: {reply.body!r}")
            if self.metrics is not None:
                self._m_errors[entry.procedure].inc()
            raise VirtError.from_dict(reply.body)
        if self.metrics is not None:
            self._m_latency[entry.procedure].observe(
                self._channel.clock.now() - entry.started
            )
        return reply.body

    def _wait_for_outcome(self, entry: _PendingCall) -> None:
        if not entry.wait(REPLY_WAIT_BACKSTOP):
            raise RPCError(
                f"no reply to {entry.procedure} after "
                f"{REPLY_WAIT_BACKSTOP:g}s of real time (dispatch wedged)"
            )

    def _map_stall(self, exc: TransportStalledError, entry: _PendingCall) -> None:
        """Translate a transport stall into the user-facing error."""
        if entry.wait_bound is None:
            raise exc  # TransportHangError: the unprotected client hung
        if entry.bound_is_keepalive:
            self._declare_dead(
                f"keepalive: connection unresponsive during {entry.procedure!r} "
                f"({self._ka_count} probe intervals elapsed)"
            )
            raise KeepaliveTimeoutError(self._dead_reason) from exc
        with self._lock:
            self.timeouts += 1
        if self.metrics is not None:
            self._m_timeouts[entry.procedure].inc()
        raise OperationTimeoutError(
            f"{entry.procedure} got no reply within its {entry.timeout:g}s deadline"
        ) from exc

    def _forget(self, entry: _PendingCall) -> None:
        with self._lock:
            self._pending.pop(entry.serial, None)

    # -- asynchronous reply demultiplexing ---------------------------------

    def _on_reply_frame(self, data: bytes) -> None:
        """Channel delivery of a deferred REPLY frame (worker thread)."""
        if peek_message_type(data) == MessageType.STREAM:
            self._on_stream_frame(data)
            return
        try:
            message = RPCMessage.unpack(data)
        except RPCError as exc:
            self._fail_all_pending(f"unparsable reply: {exc}")
            return
        if message.mtype != MessageType.REPLY:
            self._fail_all_pending(f"expected REPLY, got {message.mtype.name}")
            return
        with self._lock:
            entry = self._pending.pop(message.serial, None)
            out_of_order = entry is not None and any(
                serial < message.serial for serial in self._pending
            )
            if out_of_order:
                self.replies_out_of_order += 1
        if entry is None:
            self._fail_all_pending(
                f"serial mismatch: reply {message.serial} matches no outstanding call"
            )
            return
        if out_of_order and self.metrics is not None:
            self._m_ooo.inc()
        entry.resolve("reply", reply=message)

    def _on_reply_lost(self, token: Any, reason: str) -> None:
        """Channel notification that a pending reply can never arrive."""
        with self._lock:
            entry = self._pending.pop(token, None)
        if entry is None:
            return
        if reason == "closed":
            entry.resolve("closed", reason="connection closed with the call in flight")
        else:
            entry.resolve("lost")

    def _fail_all_pending(self, why: str) -> None:
        """Async-path desync: no frame can be trusted to correlate any
        more, so the channel closes and every waiter fails loudly."""
        reason = f"{why} (channel closed: reply stream desynchronized)"
        with self._lock:
            entries = list(self._pending.values())
            self._pending.clear()
        self._channel.abandon()
        for entry in entries:
            entry.resolve("desync", reason=reason)
        self._abort_all_streams(reason)

    def _desynchronize(self, why: str) -> None:
        """The reply stream can no longer be trusted: close the channel
        so every subsequent call fails loudly with
        ``ConnectionClosedError`` instead of silently mispairing
        replies, and raise for the current call."""
        self._channel.abandon()
        raise RPCError(f"{why} (channel closed: reply stream desynchronized)")

    # -- events -----------------------------------------------------------

    def on_event(self, event_id: int, handler: Callable[[Any], None]) -> None:
        """Register a callback for server-pushed EVENT frames."""
        with self._lock:
            self._event_handlers[event_id] = handler

    def remove_event_handler(self, event_id: int) -> None:
        with self._lock:
            self._event_handlers.pop(event_id, None)

    def _on_event_frame(self, data: "bytes | List[Any]") -> None:
        # a pushed stream data frame comes in its gather form; its type
        # word is in the first buffer, the header
        if peek_message_type(data[0] if isinstance(data, list) else data) == MessageType.STREAM:
            self._on_stream_frame(data)
            return
        try:
            message = RPCMessage.unpack(data)
        except RPCError:
            return  # a corrupted event frame is dropped, not fatal
        if message.mtype != MessageType.EVENT:
            return
        with self._lock:
            handler = self._event_handlers.get(message.procedure)
        if handler is not None:
            handler(message.body)

    def close(self) -> None:
        self.disable_keepalive()
        self._abort_all_streams("connection closed")
        self._channel.close()
