"""RPC server: procedure dispatch on the daemon side.

Each incoming CALL frame is unpacked, routed to the registered handler,
and answered with a REPLY frame.  Failures travel as structured error
bodies, rebuilt into the matching exception class client-side.

With a workerpool attached, dispatch is *asynchronous*: the call is
submitted to the pool and the dispatcher returns immediately, so one
slow handler never head-of-line-blocks the connection.  The REPLY frame
is delivered when the job completes — replies may therefore leave in
any order, correlated by serial on the client (exactly how libvirtd
dispatches through ``virThreadPool``).  Each connection gets an
in-flight window mirroring libvirtd's ``max_client_requests``: calls
beyond the window queue (up to a bound) and are rejected past that,
providing backpressure instead of unbounded memory growth.  A procedure
whose table row says ``blocking=False`` takes its window slot and is
then answered on the receiving thread (handler runs inline, reply is
the return value), as every procedure is without a pool; with the
window full it queues like any other and a worker answers it.

Bulk data: STREAM frames are peeked off the dispatch entry *before*
full unpack and routed straight to their
:class:`~repro.stream.core.ServerStream` (never through the pool — like
libvirt, stream traffic bypasses procedure dispatch once the opening
call set the stream up).  Handlers create streams with
:meth:`RPCServer.open_stream` during the opening CALL's dispatch;
connection teardown aborts every stream the connection owned so a
disconnect or daemon crash never leaves one dangling.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import deque
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Tuple

from repro.errors import DaemonCrashError, InvalidArgumentError, RPCError, VirtError
from repro.observability.tracing import SpanContext
from repro.rpc.procedures import BY_NAME
from repro.rpc.protocol import (
    KEEPALIVE_PING,
    MessageType,
    ReplyStatus,
    RPCMessage,
    is_keepalive,
    make_pong,
    peek_message_type,
    procedure_name,
    procedure_number,
)
from repro.rpc.transport import ASYNC_REPLY, ServerConnection
from repro.stream.core import DEFAULT_WINDOW, ServerStream
from repro.util.threadpool import WorkerPool

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracing import Tracer

Handler = Callable[[ServerConnection, Any], Any]

#: libvirtd's default ``max_client_requests``
DEFAULT_MAX_CLIENT_REQUESTS = 5
#: queued-call bound beyond the window before calls are rejected
DEFAULT_MAX_QUEUED_REQUESTS = 64


class _DispatchJob:
    """One unpacked call travelling through the pooled dispatch path."""

    __slots__ = (
        "handler", "message", "label", "priority",
        "frame_index", "started", "trace_ctx",
    )

    def __init__(
        self,
        handler: Handler,
        message: RPCMessage,
        label: str,
        priority: bool,
        frame_index: "Optional[int]",
        started: float,
        trace_ctx: "Optional[SpanContext]" = None,
    ) -> None:
        self.handler = handler
        self.message = message
        self.label = label
        self.priority = priority
        self.frame_index = frame_index
        self.started = started
        #: trace context the CALL frame carried, if any — rides the job
        #: across the read-loop → window-queue → worker handoffs
        self.trace_ctx = trace_ctx


class _InflightWindow:
    """Per-connection in-flight accounting (``max_client_requests``)."""

    __slots__ = ("lock", "inflight", "queue", "peak")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight = 0
        self.queue: "Deque[_DispatchJob]" = deque()
        self.peak = 0


class RPCServer:
    """Routes unpacked calls to handlers and packs the replies."""

    def __init__(
        self,
        pool: "Optional[WorkerPool]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        tracer: "Optional[Tracer]" = None,
        name: str = "rpc",
        max_client_requests: int = DEFAULT_MAX_CLIENT_REQUESTS,
        max_queued_requests: int = DEFAULT_MAX_QUEUED_REQUESTS,
    ) -> None:
        _validate_window(max_client_requests, max_queued_requests)
        #: number -> (handler, priority, blocking, wire name)
        self._procedures: Dict[int, Tuple[Handler, bool, bool, str]] = {}
        self._pool = pool
        self._lock = threading.Lock()
        self._windows: "weakref.WeakKeyDictionary[ServerConnection, _InflightWindow]" = (
            weakref.WeakKeyDictionary()
        )
        #: open streams per connection, keyed by opening-call serial
        self._streams: "weakref.WeakKeyDictionary[ServerConnection, Dict[int, ServerStream]]" = (
            weakref.WeakKeyDictionary()
        )
        #: (conn, message) of the CALL being dispatched on this thread,
        #: so a handler can call :meth:`open_stream` with no arguments
        self._dispatch_ctx = threading.local()
        self.max_client_requests = max_client_requests
        self.max_queued_requests = max_queued_requests
        self.calls_served = 0
        self.calls_failed = 0
        self.calls_queued = 0
        self.calls_rejected = 0
        self.pings_answered = 0
        #: optional hook fired on every keepalive PING (activity tracking)
        self.on_ping: "Optional[Callable[[ServerConnection], None]]" = None
        #: optional flight recorder: every dispatch records its frame
        #: header on entry (``rpc.begin``) and outcome on exit
        #: (``rpc.end``) — a begin with no end is a dispatch a crash
        #: cut short (see repro.observability.flightrec)
        self.recorder: "Optional[Any]" = None
        #: dispatch ordinals, the ``call`` of a begin/end pair: serials
        #: repeat across connections, these do not
        self._calls = itertools.count(1)
        self.metrics = metrics
        self.tracer = tracer
        #: label value distinguishing server objects sharing one registry
        self.name = name
        if metrics is not None:
            calls = metrics.counter(
                "rpc_server_calls_total",
                "Dispatched calls by server, procedure, and outcome",
                ("server", "procedure", "status"),
            )
            self._m_served = calls.by("procedure", server=name, status="ok")
            self._m_failed = calls.by("procedure", server=name, status="error")
            self._m_latency = metrics.histogram(
                "rpc_server_dispatch_seconds",
                "Modelled dispatch latency (queue wait + handler service)",
                ("server", "procedure"),
            ).by("procedure", server=name)
            self._m_pings = metrics.counter(
                "rpc_server_keepalive_pings_total",
                "Keepalive PINGs answered inline",
                ("server",),
            ).by("server")
            self._m_backpressure = metrics.counter(
                "rpc_server_backpressure_total",
                "Calls that hit the per-connection in-flight window",
                ("server", "outcome"),
            ).by("outcome", server=name)
            inflight = metrics.gauge(
                "rpc_server_inflight_calls",
                "Calls executing or queued behind the in-flight window",
                ("server",),
            )
            inflight.labels(server=name).set_function(self.inflight_calls)
            self._m_stream_bytes = metrics.counter(
                "stream_bytes_total",
                "Bulk bytes moved over streams by direction (daemon view)",
                ("server", "direction"),
            ).by("direction", server=name)
            stream_active = metrics.gauge(
                "stream_active",
                "Streams currently open on the daemon",
                ("server",),
            )
            stream_active.labels(server=name).set_function(self.active_streams)

    def _procedure_label(self, number: int) -> str:
        try:
            return procedure_name(number)
        except RPCError:
            return f"unknown:{number}"

    def reset_counters(self) -> None:
        """Zero the aggregate counters (``reset-stats``)."""
        with self._lock:
            self.calls_served = 0
            self.calls_failed = 0
            self.calls_queued = 0
            self.calls_rejected = 0
            self.pings_answered = 0

    def register(self, name: str, handler: Handler, priority: bool = False) -> None:
        """Bind ``handler`` to a procedure name from the protocol table.

        ``priority=True`` marks the procedure for the guaranteed lane:
        it is dispatched to priority workers and must never block on a
        hypervisor (libvirt's high-priority procedure tagging); on that
        lane, a row the table declares ``blocking=False`` is answered inline.
        """
        number = procedure_number(name)
        with self._lock:
            self._procedures[number] = (
                handler, priority, BY_NAME[name].blocking or not priority, name
            )

    def registered(self, name: str) -> bool:
        return procedure_number(name) in self._procedures

    def attach(self, conn: ServerConnection) -> None:
        """Wire a freshly accepted connection into this dispatcher."""
        conn.set_handler(lambda data: self.dispatch(conn, data))
        self._window(conn)

    # -- in-flight window --------------------------------------------------

    def _window(self, conn: ServerConnection) -> _InflightWindow:
        with self._lock:
            window = self._windows.get(conn)
            if window is None:
                window = _InflightWindow()
                self._windows[conn] = window
            return window

    def set_max_client_requests(self, value: int) -> None:
        """Adjust the per-connection window at runtime (admin API);
        queued calls that now fit are dispatched immediately."""
        _validate_window(value, self.max_queued_requests)
        with self._lock:
            self.max_client_requests = value
            pairs = list(self._windows.items())
        for conn, window in pairs:
            self._pump(conn, window)

    def inflight_calls(self) -> int:
        """Calls currently executing or queued, across all connections."""
        with self._lock:
            windows = list(self._windows.values())
        total = 0
        for window in windows:
            with window.lock:
                total += window.inflight + len(window.queue)
        return total

    def _record_backpressure(self, outcome: str) -> None:
        with self._lock:
            if outcome == "queued":
                self.calls_queued += 1
            else:
                self.calls_rejected += 1
        if self.metrics is not None:
            self._m_backpressure[outcome].inc()

    # -- dispatch pipeline ------------------------------------------------

    def dispatch(self, conn: ServerConnection, data: bytes) -> Any:
        """The server-side entry: unpack → route → reply.

        Returns the packed REPLY bytes when the call was answered
        inline (non-blocking row, no pool, keepalive, early errors), or
        :data:`~repro.rpc.transport.ASYNC_REPLY` when the reply will be
        delivered through :meth:`ServerConnection.send_reply` once a
        worker finishes the job.

        STREAM frames never enter the pool: they are routed straight to
        the stream object the opening call registered, keeping data
        chunks ordered relative to each other and to the flow-control
        grants they answer.
        """
        if peek_message_type(data) == MessageType.STREAM:
            return self._handle_stream_frame(conn, data)
        try:
            message = RPCMessage.unpack(data)
        except VirtError as exc:
            # can't even recover a serial; answer with serial 0
            return self._error_reply(0, 0, exc)
        if is_keepalive(message):
            return self._handle_keepalive(conn, message)
        if message.mtype != MessageType.CALL:
            return self._error_reply(
                message.procedure,
                message.serial,
                RPCError(f"expected CALL, got {message.mtype.name}"),
            )
        entry = self._procedures.get(message.procedure)
        if entry is None:
            return self._error_reply(
                message.procedure,
                message.serial,
                RPCError(f"procedure {message.procedure} not registered"),
            )
        handler, priority, blocking, label = entry
        trace_ctx = (
            SpanContext.from_wire(message.trace)
            if self.tracer is not None and message.trace is not None
            else None
        )
        job = _DispatchJob(
            handler,
            message,
            label,
            priority,
            conn.current_frame_index,
            conn.channel.clock.now(),
            trace_ctx=trace_ctx,
        )
        if self._pool is None:
            return self._run_inline(conn, None, job)
        window = self._window(conn)
        with window.lock:
            if window.inflight >= self.max_client_requests:
                if len(window.queue) >= self.max_queued_requests:
                    self._record_backpressure("rejected")
                    return self._error_reply(
                        message.procedure,
                        message.serial,
                        RPCError(
                            f"max_client_requests exceeded: "
                            f"{self.max_client_requests} calls in flight and "
                            f"{len(window.queue)} queued on this connection"
                        ),
                    )
                window.queue.append(job)
                self._record_backpressure("queued")
                return ASYNC_REPLY
            window.inflight += 1
            window.peak = max(window.peak, window.inflight)
        if not blocking:
            return self._run_inline(conn, window, job)
        self._submit_job(conn, window, job)
        return ASYNC_REPLY

    def _submit_job(self, conn: ServerConnection, window: _InflightWindow, job: _DispatchJob) -> bool:
        try:
            self._pool.submit(self._run_async, conn, window, job, priority=job.priority)
            return True
        except VirtError as exc:
            # pool shut down under us: answer instead of leaving the
            # client to wait out its deadline
            with window.lock:
                window.inflight -= 1
            conn.send_reply(
                self._error_reply(job.message.procedure, job.message.serial, exc),
                job.frame_index,
            )
            return False

    def _run_async(self, conn: ServerConnection, window: _InflightWindow, job: _DispatchJob) -> None:
        """Pool-job body: execute, reply, then let a queued call in.

        The wire trace context rode the job object across the
        read-loop → queue → worker handoff; attach it to this worker
        thread for the duration so anything the handler spawns inherits
        the caller's trace, and restore whatever was attached before.
        """
        attached = self.tracer is not None and job.trace_ctx is not None
        token = self.tracer.attach(job.trace_ctx) if attached else None
        try:
            conn.send_reply(self._execute(conn, job), job.frame_index)
        finally:
            if attached:
                self.tracer.detach(token)
            self._pump(conn, window, freed=1)

    def _run_inline(
        self, conn: ServerConnection, window: "Optional[_InflightWindow]", job: _DispatchJob
    ) -> Any:
        """Receiving-thread body of a non-blocking row and of a pool-less
        server (``window`` None): the REPLY is the return value.

        A crashed daemon has severed the link, which resolved the call as
        lost: under a pool the crash stops here, and the caller sees what a
        pooled call sees.  ``CrashHarness``'s pool-less rig learns that its
        plan fired from the exception unwinding the caller, so it keeps it.
        """
        try:
            return self._execute(conn, job)
        except DaemonCrashError:
            if window is None:
                raise
            return ASYNC_REPLY
        finally:
            if window is not None:
                self._pump(conn, window, freed=1)

    def _pump(self, conn: ServerConnection, window: _InflightWindow, freed: int = 0) -> None:
        """Give ``freed`` slots back, then move queued calls into the pool
        while the window has room."""
        while True:
            with window.lock:
                window.inflight -= freed
                freed = 0
                if not window.queue or window.inflight >= self.max_client_requests:
                    return
                job = window.queue.popleft()
                window.inflight += 1
                window.peak = max(window.peak, window.inflight)
            if not self._submit_job(conn, window, job):
                return

    def _execute(self, conn: ServerConnection, job: _DispatchJob) -> bytes:
        """Run the handler and pack the REPLY; records span, counters,
        and dispatch latency on both the OK and the error outcome.

        The dispatch span parents into the trace context the CALL frame
        carried (one trace across the wire); without one it roots a
        local trace, exactly as before.  ``queue_wait`` — modelled time
        between unpack and a worker picking the job up — is recorded as
        a span attribute.
        """
        message = job.message
        label = job.label
        tracer = self.tracer
        recorder = self.recorder
        clock = conn.channel.clock
        scope = (
            tracer.span(
                "rpc.dispatch",
                parent=job.trace_ctx,
                procedure=label,
                priority=job.priority,
                serial=message.serial,
                queue_wait=clock.now() - job.started,
            )
            if tracer is not None
            else nullcontext(None)
        )
        with scope as span:
            if recorder is not None:
                call = next(self._calls)
                recorder.record(
                    "rpc.begin",
                    server=self.name,
                    procedure=label,
                    serial=message.serial,
                    call=call,
                    start=job.started,
                    span_id=span.span_id if span is not None else None,
                    trace_id=span.trace_id if span is not None else None,
                    parent_id=span.parent_id if span is not None else None,
                )
            failure: "Optional[VirtError]" = None
            result: Any = None
            self._dispatch_ctx.conn = conn
            self._dispatch_ctx.message = message
            try:
                result = job.handler(conn, message.body)
            except DaemonCrashError:
                # a crashed daemon sends nothing: re-raise so the whole
                # call tears down like a killed process, never an
                # error reply
                raise
            except VirtError as exc:
                failure = exc
            except Exception as exc:  # noqa: BLE001 - internal errors cross the wire too
                failure = VirtError(f"internal error: {exc}")
            finally:
                self._dispatch_ctx.conn = None
                self._dispatch_ctx.message = None
            status = "ok" if failure is None else "error"
            if span is not None:
                span.attributes["status"] = status
                if failure is not None:
                    span.error = repr(failure)
            if failure is not None:
                reply = self._error_reply(message.procedure, message.serial, failure)
            else:
                with self._lock:
                    self.calls_served += 1
                if self.metrics is not None:
                    self._m_served[label].inc()
                reply = RPCMessage(
                    message.procedure,
                    MessageType.REPLY,
                    message.serial,
                    ReplyStatus.OK,
                    result,
                ).pack()
            if self.metrics is not None:
                self._m_latency[label].observe(clock.now() - job.started)
            if recorder is not None:
                recorder.record(
                    "rpc.end",
                    server=self.name,
                    procedure=label,
                    serial=message.serial,
                    call=call,
                    status=status,
                )
        return reply

    def _handle_keepalive(self, conn: ServerConnection, message: RPCMessage) -> Optional[bytes]:
        """Answer PING with PONG on the spot — never through the pool,
        so a daemon with every worker wedged still proves liveness
        (mirroring ``virKeepAlive`` running from the event loop)."""
        if message.mtype != MessageType.CALL or message.procedure != KEEPALIVE_PING:
            return None  # keepalive carries no errors; ignore strays
        with self._lock:
            self.pings_answered += 1
        if self.metrics is not None:
            self._m_pings[self.name].inc()
        if self.on_ping is not None:
            self.on_ping(conn)
        return make_pong(message.serial).pack()

    def _error_reply(self, procedure: int, serial: int, exc: VirtError) -> bytes:
        with self._lock:
            self.calls_failed += 1
        if self.metrics is not None:
            self._m_failed[self._procedure_label(procedure)].inc()
        reply = RPCMessage(
            procedure,
            MessageType.REPLY,
            serial,
            ReplyStatus.ERROR,
            exc.to_dict(),
        )
        return reply.pack()

    # -- server push -------------------------------------------------------

    def emit_event(self, conn: ServerConnection, event_id: int, body: Any) -> None:
        """Push an EVENT frame to one connected client."""
        message = RPCMessage(event_id, MessageType.EVENT, 0, ReplyStatus.OK, body)
        conn.push(message.pack())

    # -- streams -----------------------------------------------------------

    def open_stream(
        self,
        conn: "Optional[ServerConnection]" = None,
        message: "Optional[RPCMessage]" = None,
        window: int = DEFAULT_WINDOW,
    ) -> ServerStream:
        """Create the daemon half of a stream for the CALL being
        dispatched on this thread (both arguments default from the
        dispatch context, so handlers just call ``server.open_stream()``).

        The stream registers under its opening serial before the
        handler returns, so chunks the client fires right behind the
        CALL find it; the opening reply itself still travels the normal
        REPLY path.
        """
        if conn is None:
            conn = getattr(self._dispatch_ctx, "conn", None)
        if message is None:
            message = getattr(self._dispatch_ctx, "message", None)
        if conn is None or message is None:
            raise RPCError("open_stream called outside a CALL dispatch")
        label = self._procedure_label(message.procedure)
        stream = ServerStream(
            self, conn, message.procedure, message.serial, label, window=window
        )
        with self._lock:
            streams = self._streams.get(conn)
            if streams is None:
                streams = {}
                self._streams[conn] = streams
            streams[message.serial] = stream
        if self.tracer is not None:
            # detached: the transfer outlives the opening call's dispatch
            stream.span = self.tracer.start_span(
                "stream.transfer",
                server=self.name,
                procedure=label,
                serial=message.serial,
            )
        if self.recorder is not None:
            self.recorder.record(
                "stream.open",
                server=self.name,
                procedure=label,
                serial=message.serial,
            )
        return stream

    def _handle_stream_frame(self, conn: ServerConnection, data: bytes) -> None:
        # memoryview: chunk bodies decode as sub-views of the frame
        # buffer — no per-chunk copy on the receive path
        try:
            message = RPCMessage.unpack(memoryview(data))
        except VirtError:
            return None  # corrupt stream frame: the stream stalls out
        with self._lock:
            streams = self._streams.get(conn)
            stream = streams.get(message.serial) if streams else None
        if stream is None:
            return None  # late frame for an already torn-down stream
        stream.handle_frame(message)
        return None

    def active_streams(self) -> int:
        """Streams currently open across all connections."""
        with self._lock:
            return sum(len(streams) for streams in self._streams.values())

    def connection_streams(self, conn: ServerConnection) -> "list[ServerStream]":
        with self._lock:
            return list((self._streams.get(conn) or {}).values())

    def abort_connection_streams(self, conn: ServerConnection, reason: str) -> int:
        """Tear down every stream a dying connection owns (no wire
        traffic — the link is already gone).  Returns how many died."""
        streams = self.connection_streams(conn)
        for stream in streams:
            stream.local_abort(reason)
        return len(streams)

    def _count_stream_bytes(self, direction: str, amount: int) -> None:
        if self.metrics is not None:
            self._m_stream_bytes[direction].inc(amount)

    def _stream_closed(self, stream: ServerStream, outcome: str) -> None:
        """Bookkeeping for any stream teardown (finish and abort)."""
        with self._lock:
            streams = self._streams.get(stream._conn)
            if streams is not None:
                streams.pop(stream.serial, None)
        if self.recorder is not None:
            fields = {
                "server": self.name,
                "procedure": stream.label,
                "serial": stream.serial,
                "bytes_in": stream.bytes_in,
                "bytes_out": stream.bytes_out,
            }
            if stream.error is not None:
                fields["error"] = stream.error
            self.recorder.record(
                "stream.finish" if outcome == "finish" else "stream.abort",
                **fields,
            )
        if stream.span is not None and self.tracer is not None:
            stream.span.set_attribute("bytes_in", stream.bytes_in)
            stream.span.set_attribute("bytes_out", stream.bytes_out)
            stream.span.set_attribute(
                "status", "ok" if outcome == "finish" else "error"
            )
            self.tracer.finish_span(stream.span, error=stream.error)


def _validate_window(max_client_requests: int, max_queued_requests: int) -> None:
    if not isinstance(max_client_requests, int) or max_client_requests < 1:
        raise InvalidArgumentError(
            f"max_client_requests must be a positive integer, got {max_client_requests!r}"
        )
    if not isinstance(max_queued_requests, int) or max_queued_requests < 0:
        raise InvalidArgumentError(
            f"max_queued_requests must be a non-negative integer, got {max_queued_requests!r}"
        )
