"""Connection transports with per-transport latency models.

Libvirt supports several transports for the client↔daemon link, with
very different cost profiles.  Real bytes flow through these channels
(the messages are genuinely packed/unpacked); only the physical link
latency is modelled, charged on a shared clock:

========= ================= ==================== =========================
transport connect cost      per-message latency  bandwidth
========= ================= ==================== =========================
local     ~0 (in-process)   ~0                   ∞ (function call)
unix      socket connect    kernel round trip    memory speed
tcp       3-way handshake   LAN RTT              ~1 GiB/s
tls       + TLS handshake   RTT + crypto         ~0.4 GiB/s (AES overhead)
ssh       + exec ssh + auth RTT + ssh framing    ~0.3 GiB/s
========= ================= ==================== =========================
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    InvalidArgumentError,
    RPCError,
    TransportHangError,
    TransportStalledError,
)
from repro.observability.metrics import MetricsRegistry
from repro.util.clock import Clock, VirtualClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

#: modelled stand-in for "blocked forever": a client with no deadline
#: and no keepalive charges a full day of simulated time on a dead link
HANG_SECONDS = 86400.0

#: sentinel a message handler returns when the REPLY frame will be
#: produced later (pooled dispatch) and delivered through
#: :meth:`ServerConnection.send_reply` instead of the handler's return
ASYNC_REPLY: Any = object()

#: one CALL frame's fate: ``("reply", bytes)`` answered inline,
#: ``("pending", None)`` deferred to the server's workerpool (the REPLY
#: arrives through the reply handler), or ``("lost", None)`` — the link
#: ate the frame or its reply, and the reply-lost handler was told
Outcome = Tuple[str, Optional[bytes]]


class TransportSpec:
    """The latency/bandwidth profile of one transport kind."""

    def __init__(
        self,
        name: str,
        connect_latency: float,
        per_message_latency: float,
        bytes_per_second: float,
        encrypted: bool,
        local: bool,
    ) -> None:
        if connect_latency < 0 or per_message_latency < 0:
            raise InvalidArgumentError("latencies must be non-negative")
        if bytes_per_second <= 0:
            raise InvalidArgumentError("bandwidth must be positive")
        self.name = name
        self.connect_latency = connect_latency
        self.per_message_latency = per_message_latency
        self.bytes_per_second = bytes_per_second
        self.encrypted = encrypted
        self.local = local

    def message_latency(self, num_bytes: int) -> float:
        """One-way latency for a message of ``num_bytes``."""
        return self.per_message_latency + num_bytes / self.bytes_per_second


TRANSPORT_SPECS: Dict[str, TransportSpec] = {
    "local": TransportSpec("local", 0.0, 0.0, 64e9, encrypted=False, local=True),
    "unix": TransportSpec("unix", 50e-6, 25e-6, 2e9, encrypted=False, local=True),
    "tcp": TransportSpec("tcp", 350e-6, 120e-6, 1e9, encrypted=False, local=False),
    "tls": TransportSpec("tls", 2.8e-3, 160e-6, 0.4e9, encrypted=True, local=False),
    "ssh": TransportSpec("ssh", 55e-3, 220e-6, 0.3e9, encrypted=True, local=False),
    "libssh2": TransportSpec("libssh2", 48e-3, 210e-6, 0.3e9, encrypted=True, local=False),
}


def spec_for(name: str) -> TransportSpec:
    try:
        return TRANSPORT_SPECS[name]
    except KeyError:
        raise InvalidArgumentError(f"unknown transport {name!r}") from None


def frame_length(frame: "bytes | List[Any]") -> int:
    """A frame's length on the wire; a gather frame's is its buffers' sum."""
    return sum(map(len, frame)) if isinstance(frame, list) else len(frame)


class ServerConnection:
    """The daemon-side endpoint of one accepted client channel."""

    def __init__(self, listener: "Listener", channel: "Channel", identity: Dict[str, Any]) -> None:
        self.listener = listener
        self.channel = channel
        #: who the transport says this client is (uid, username, sock addr…)
        self.identity = identity
        self._handler: "Optional[Callable[[bytes], Optional[bytes]]]" = None
        self.closed = False
        self.bytes_in = 0
        self.bytes_out = 0
        # per-thread dispatch context: the frame index of the message a
        # handler is currently processing on this thread, so a pooled
        # dispatcher can echo it back through send_reply
        self._dispatch_ctx = threading.local()

    def set_handler(self, handler: Callable[[bytes], Optional[bytes]]) -> None:
        """Install the message handler (called once per client frame)."""
        self._handler = handler

    @property
    def current_frame_index(self) -> "Optional[int]":
        """The frame index being handled on the calling thread (if any)."""
        return getattr(self._dispatch_ctx, "frame_index", None)

    def handle(self, data: bytes, frame_index: "Optional[int]" = None) -> Optional[bytes]:
        if self.closed:
            raise ConnectionClosedError("server side of the connection is closed")
        if self._handler is None:
            raise ConnectionClosedError("no message handler installed")
        self.bytes_in += len(data)
        self.listener._record_bytes(received=len(data))
        self._dispatch_ctx.frame_index = frame_index
        try:
            reply = self._handler(data)
        finally:
            self._dispatch_ctx.frame_index = None
        if reply is not None and reply is not ASYNC_REPLY:
            self.bytes_out += len(reply)
            self.listener._record_bytes(sent=len(reply))
        return reply

    def send_reply(self, data: bytes, frame_index: "Optional[int]") -> None:
        """Deliver an asynchronously produced REPLY frame to the client.

        A reply for a connection that has since closed vanishes, like
        bytes written to a half-closed socket — the client side charges
        its own deadline instead.
        """
        if self.closed or self.channel.closed or frame_index is None:
            return
        self.bytes_out += len(data)
        self.listener._record_bytes(sent=len(data))
        self.channel._deliver_reply(data, frame_index)

    def push(self, data: "bytes | List[Any]") -> None:
        """Server-initiated message (events, stream frames) to the client:
        a packed frame or its gather form (``RPCMessage.gather``)."""
        if self.closed or self.channel.closed:
            raise ConnectionClosedError("cannot push on a closed connection")
        size = frame_length(data)
        self.bytes_out += size
        self.listener._record_bytes(sent=size)
        self.channel._deliver_event(data)

    def close(self) -> None:
        """Force-close from the server side (client-disconnect path)."""
        if self.closed:
            return
        self.closed = True
        self.channel.closed = True
        self.listener._forget(self)
        self.channel._fail_inflight("closed")


class Channel:
    """The client-side endpoint."""

    def __init__(self, spec: TransportSpec, clock: Clock, server_conn_ref: "list") -> None:
        self.spec = spec
        self.clock = clock
        self._server_conn_ref = server_conn_ref  # late-bound [ServerConnection]
        self.closed = False
        #: silently cut: the peer is gone but this side was never told
        self.severed = False
        self._event_handler: "Optional[Callable[[bytes], None]]" = None
        #: receives asynchronously delivered REPLY frames (pooled dispatch)
        self._reply_handler: "Optional[Callable[[bytes], None]]" = None
        #: told (token, reason) when a pending reply can never arrive;
        #: reason is "lost" (silent link death) or "closed" (clean close)
        self._reply_lost_handler: "Optional[Callable[[Any, str], None]]" = None
        self._faults: "Optional[FaultPlan]" = None
        #: frame index → caller-supplied correlation token, for frames
        #: whose reply is still owed by the server
        self._inflight: Dict[int, Any] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_lost = 0
        self._lock = threading.Lock()

    @property
    def _server_conn(self) -> ServerConnection:
        return self._server_conn_ref[0]

    # -- fault injection ---------------------------------------------------

    def install_fault_plan(self, plan: "Optional[FaultPlan]") -> None:
        """Route every frame on this channel through ``plan``."""
        self._faults = plan

    def _record_fault(self, kind: str) -> None:
        conn = self._server_conn
        if conn is not None:
            conn.listener._record_fault(kind)

    def sever(self) -> None:
        """Cut the link silently: tear down the server side without
        notifying this endpoint (a pulled cable, not a clean close)."""
        self.severed = True
        conn = self._server_conn
        if conn is not None and not conn.closed:
            conn.closed = True
            conn.listener._forget(conn)
        self._fail_inflight("lost")

    def abandon(self) -> None:
        """Close this side only — for links already declared dead, where
        reaching through to the peer would be cheating the simulation."""
        self.closed = True
        self._fail_inflight("closed")

    def _record_lost_frame(self) -> None:
        with self._lock:
            self.frames_lost += 1
        conn = self._server_conn
        if conn is not None:
            conn.listener._record_loss()

    def charge_stall(self, wait_bound: "Optional[float]", what: str) -> None:
        """The reply is known lost; charge the caller's wait and raise.

        With a bound, exactly the remaining wait is charged and
        :class:`~repro.errors.TransportStalledError` raised; without
        one, :data:`HANG_SECONDS` and
        :class:`~repro.errors.TransportHangError` — the deterministic
        model of a client hanging forever.
        """
        if wait_bound is None:
            self.clock.sleep(HANG_SECONDS)
            raise TransportHangError(
                f"{what}: no reply and no deadline — call hung "
                f"({HANG_SECONDS:.0f}s of modelled time lost)"
            )
        now = self.clock.now()
        if wait_bound > now:
            self.clock.sleep(wait_bound - now)
        raise TransportStalledError(f"{what}: no reply within wait bound")

    def _lose(self, token: Any) -> Outcome:
        """One frame will never be answered: count it, tell the
        reply-lost handler, and return the frame's ``lost`` outcome."""
        self._record_lost_frame()
        if self._reply_lost_handler is not None:
            self._reply_lost_handler(token, "lost")
        return "lost", None

    def _fail_inflight(self, reason: str) -> None:
        """Resolve every reply still owed on this channel as undeliverable."""
        with self._lock:
            tokens = list(self._inflight.values())
            self._inflight.clear()
        for token in tokens:
            if reason == "lost":
                self._lose(token)
            elif self._reply_lost_handler is not None:
                self._reply_lost_handler(token, reason)

    def _fault(
        self, direction: str, frame_index: int, data: "Optional[bytes]", before_sever: Any = None
    ) -> "Tuple[Optional[bytes], float, bool, bool]":
        """The one fault step: consult the plan for one frame.

        Records the injected fault and applies ``SEVER`` (after
        ``before_sever``) and ``CORRUPT``.  Returns the frame's verdict
        ``(data, delay, duplicate, lost)``: the bytes that travel on, the
        extra one-way delay, whether the frame is delivered twice, and
        whether it never arrives (``DROP``, ``SEVER``, or a severed or
        blackholed link).
        """
        from repro.faults.plan import FaultKind

        plan = self._faults
        decision = plan.decide(direction, frame_index, self.clock.now())
        kind = decision.kind
        if kind is not None:
            self._record_fault(kind.value)
        if kind is FaultKind.SEVER:
            if before_sever is not None:
                before_sever()
            self.sever()
        elif kind is FaultKind.CORRUPT and data is not None:
            data = plan.corrupt_bytes(data)
        delay = decision.delay if kind is FaultKind.DELAY else 0.0
        lost = kind is FaultKind.DROP or self.severed or plan.blackholed
        return data, delay, kind is FaultKind.DUPLICATE, lost

    @property
    def inflight_requests(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- calls -------------------------------------------------------------

    def call_bytes(self, data: bytes, wait_bound: "Optional[float]" = None) -> Optional[bytes]:
        """Deliver one frame and return the reply frame, charging latency.

        The fully synchronous form of :meth:`send_request`: only valid
        against servers that answer inline (no workerpool).  ``wait_bound``
        is the absolute modelled time the caller is willing to block
        until; when the reply is lost the channel charges exactly that
        wait and raises :class:`~repro.errors.TransportStalledError`
        (:class:`~repro.errors.TransportHangError` without a bound).
        """
        status, reply = self.send_request(data)
        if status == "lost":
            self.charge_stall(wait_bound, f"{self.spec.name} frame lost")
        if status == "pending":
            raise RPCError(
                "server dispatched the call asynchronously; "
                "call_bytes cannot correlate deferred replies"
            )
        return reply

    def send_request(self, data: bytes, token: Any = None) -> Outcome:
        """Deliver one CALL frame; returns its :data:`Outcome`.

        A deferred or lost reply is correlated to its call by the
        caller-supplied opaque ``token``.
        """
        spec = self.spec
        if self.closed:
            raise ConnectionClosedError(f"{spec.name} channel is closed")
        with self._lock:
            frame_index = self.frames_sent
            self.frames_sent += 1
        delay, duplicate, lost = 0.0, False, self.severed
        if self._faults is not None:
            data, delay, duplicate, lost = self._fault("send", frame_index, data)
        if lost:
            return self._lose(token)
        conn = self._check_peer()
        self.clock.sleep(spec.message_latency(len(data)) + delay)
        reply = self._hand_over(conn, frame_index, data, token, duplicate)
        if reply is ASYNC_REPLY:
            return "pending", None
        status, reply = self._receive(frame_index, reply, token)
        if reply is not None:
            self.clock.sleep(spec.message_latency(len(reply)))
            with self._lock:
                self.bytes_received += len(reply)
        return status, reply

    def send_oneway(self, data: bytes) -> bool:
        """Deliver one frame that expects no correlated reply.

        Stream data/control frames travel this way: they are never
        registered in the in-flight table and never wait.  Returns True
        when the frame reached the server, False when the link silently
        ate it (sever, drop, blackhole) — exactly how bytes written to a
        half-dead socket behave.  A cleanly closed channel still raises.
        Only the send direction consults the fault plan, and a
        ``DUPLICATE`` is recorded but the frame goes once: no transport
        repeats bytes inside a byte stream.
        """
        if self.closed:
            raise ConnectionClosedError(f"{self.spec.name} channel is closed")
        with self._lock:
            frame_index = self.frames_sent
            self.frames_sent += 1
        delay, lost = 0.0, self.severed
        if self._faults is not None:
            data, delay, _duplicate, lost = self._fault("send", frame_index, data)
        if lost:
            self._record_lost_frame()
            return False
        conn = self._check_peer()
        self.clock.sleep(self.spec.message_latency(len(data)) + delay)
        with self._lock:
            self.bytes_sent += len(data)
        conn.handle(data, frame_index=None)
        return True

    def send_batch(self, frames: "list[bytes]", tokens: "Optional[list]" = None) -> "list[Outcome]":
        """Deliver several frames in one coalesced transport write.

        This is the RPC batching path: the whole batch pays the
        per-message transport latency *once* (plus bandwidth on the
        total bytes), instead of once per frame — the coalescing win
        for many small calls.  Returns one :data:`Outcome` per input
        frame.  Every frame takes the fault step a single call takes,
        in both directions; the inline replies come back as one
        coalesced read.  A severing frame cuts the write: the frames ahead
        of it are delivered and answered first, as single calls would be.
        """
        if self.closed:
            raise ConnectionClosedError(f"{self.spec.name} channel is closed")
        toks = list(tokens) if tokens is not None else [None] * len(frames)
        if len(toks) != len(frames):
            raise InvalidArgumentError("send_batch needs one token per frame")
        with self._lock:
            first = self.frames_sent
            self.frames_sent += len(frames)
        outcomes: "list[Any]" = [None] * len(frames)
        deliverable = []
        for i, (data, token) in enumerate(zip(frames, toks)):
            delay, duplicate, lost = 0.0, False, self.severed
            if self._faults is not None:
                data, delay, duplicate, lost = self._fault(
                    "send", first + i, data, lambda: self._write(first, deliverable, outcomes)
                )
            if lost:
                outcomes[i] = self._lose(token)
                continue
            if delay:
                self.clock.sleep(delay)
            deliverable.append((i, data, token, duplicate))
        self._write(first, deliverable, outcomes)
        return outcomes

    def _write(self, first: int, deliverable: list, outcomes: list) -> None:
        """Hand ``deliverable`` to the server as one write, and empty it."""
        if not deliverable:
            return
        conn = self._check_peer()
        # the whole batch crosses the wire as one write
        self.clock.sleep(self.spec.message_latency(sum(len(item[1]) for item in deliverable)))
        inline = []
        try:
            for i, data, token, duplicate in deliverable:
                reply = self._hand_over(conn, first + i, data, token, duplicate)
                if reply is ASYNC_REPLY:
                    outcomes[i] = ("pending", None)
                else:
                    inline.append((i, reply, token))
        except BaseException:
            # frames handed over before the failure are owed nothing now
            with self._lock:
                for item in deliverable:
                    self._inflight.pop(first + item[0], None)
            raise
        inline_total = 0
        for i, reply, token in inline:
            outcomes[i] = self._receive(first + i, reply, token)
            inline_total += len(outcomes[i][1] or b"")
        if inline_total:
            # the inline replies come back as one coalesced read too
            self.clock.sleep(self.spec.message_latency(inline_total))
            with self._lock:
                self.bytes_received += inline_total
        deliverable.clear()

    def _check_peer(self) -> ServerConnection:
        """The peer, once it is known open: a closed one is detected
        before charging latency or counting the frame as delivered
        traffic — a dead link carries no bytes."""
        conn = self._server_conn_ref[0]
        if conn.closed:
            self.closed = True
            raise ConnectionClosedError("server closed the connection")
        return conn

    def _hand_over(
        self, conn: ServerConnection, frame_index: int, data: bytes, token: Any, duplicate: bool
    ) -> Any:
        """Give one CALL frame to the server ``conn``; its inline reply or
        :data:`ASYNC_REPLY`.

        The frame is registered in flight first: a pooled server may
        finish the job and deliver the reply before ``handle`` returns.
        A duplicate is handled twice; its inline reply is discarded
        here, and its deferred reply is dropped in :meth:`_deliver_reply`
        because the frame resolves on first delivery.
        """
        with self._lock:
            self.bytes_sent += len(data)
            self._inflight[frame_index] = token
        try:
            reply = conn.handle(data, frame_index=frame_index)
            if duplicate:
                with self._lock:
                    self.bytes_sent += len(data)
                conn.handle(data, frame_index=frame_index)
        except BaseException:
            with self._lock:
                self._inflight.pop(frame_index, None)
            raise
        if reply is not ASYNC_REPLY:
            with self._lock:
                self._inflight.pop(frame_index, None)
        return reply

    def _receive(self, frame_index: int, reply: "Optional[bytes]", token: Any) -> Outcome:
        """The recv-direction fault step for one REPLY frame: its outcome."""
        if self._faults is not None:
            reply, delay, _duplicate, lost = self._fault("recv", frame_index, reply)
            if lost:
                return self._lose(token)
            if delay:
                self.clock.sleep(delay)
        return "reply", reply

    def set_reply_handler(self, handler: Callable[[bytes], None]) -> None:
        """Install the sink for asynchronously delivered REPLY frames."""
        self._reply_handler = handler

    def set_reply_lost_handler(self, handler: "Callable[[Any, str], None]") -> None:
        """Install the sink for replies that can never arrive."""
        self._reply_lost_handler = handler

    def _deliver_reply(self, data: bytes, frame_index: int) -> None:
        """Server-side delivery of a deferred REPLY frame.

        Runs on the worker thread that finished the job: correlates the
        frame with its request, takes the recv-direction fault step,
        charges the reply latency, and hands the frame to the reply
        handler.  Unknown frames (duplicates, already-failed requests)
        are dropped silently.
        """
        with self._lock:
            token = self._inflight.pop(frame_index, None)
        if token is None:
            return
        status, reply = self._receive(frame_index, data, token)
        if status == "lost":
            return
        if self.closed or self.severed:
            self._lose(token)
            return
        self.clock.sleep(self.spec.message_latency(len(reply)))
        with self._lock:
            self.bytes_received += len(reply)
        if self._reply_handler is not None:
            self._reply_handler(reply)

    def set_event_handler(self, handler: Callable[[bytes], None]) -> None:
        self._event_handler = handler

    def _deliver_event(self, data: "bytes | List[Any]") -> None:
        if self.closed or self.severed:
            return
        if self._faults is not None and self._faults.blackholed:
            return
        size = frame_length(data)
        self.clock.sleep(self.spec.message_latency(size))
        with self._lock:
            self.bytes_received += size
        if self._event_handler is not None:
            self._event_handler(data)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._fail_inflight("closed")
        if not self.severed:
            self._server_conn.close()


class Listener:
    """The server-side acceptor for one (transport, service) pair.

    ``authenticator`` maps the client-supplied credentials to an
    identity dict, raising :class:`AuthenticationError` to refuse.
    ``on_accept`` lets the daemon veto/account the new connection.
    """

    def __init__(
        self,
        transport: str,
        clock: Optional[Clock] = None,
        authenticator: "Optional[Callable[[Dict[str, Any]], Dict[str, Any]]]" = None,
        on_accept: "Optional[Callable[[ServerConnection], None]]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        self.spec = spec_for(transport)
        self.clock = clock or VirtualClock()
        self._authenticator = authenticator
        self._on_accept = on_accept
        self._connections: "list[ServerConnection]" = []
        self._lock = threading.Lock()
        self._fault_plan: "Optional[FaultPlan]" = None
        #: per-listener connection counts: ``transport_connections_total``
        #: is per transport, and two servers' listeners may share one
        self.accepted = 0
        self.rejected = 0
        #: a private registry on the listener's clock when none is given
        self.metrics = metrics = metrics or MetricsRegistry(self.clock.now)
        self._m_conns = metrics.counter(
            "transport_connections_total",
            "Connection attempts by transport and outcome",
            ("transport", "outcome"),
        )
        self._m_bytes_in = metrics.counter(
            "transport_bytes_received_total",
            "Payload bytes received by the daemon",
            ("transport",),
        ).by("transport")
        self._m_bytes_out = metrics.counter(
            "transport_bytes_sent_total",
            "Payload bytes sent by the daemon",
            ("transport",),
        ).by("transport")
        self._m_lost = metrics.counter(
            "transport_frames_lost_total",
            "Frames that never produced a reply (drops, dead links)",
            ("transport",),
        )
        self._m_faults = metrics.counter(
            "transport_faults_total",
            "Fault injections observed on the wire",
            ("transport", "kind"),
        )

    # -- metric recording ----------------------------------------------------

    def _record_bytes(self, sent: int = 0, received: int = 0) -> None:
        if sent:
            self._m_bytes_out[self.spec.name].inc(sent)
        if received:
            self._m_bytes_in[self.spec.name].inc(received)

    def _record_loss(self) -> None:
        self._m_lost.labels(transport=self.spec.name).inc()

    def _record_fault(self, kind: str) -> None:
        self._m_faults.labels(transport=self.spec.name, kind=kind).inc()

    def _record_connection(self, outcome: str) -> None:
        self._m_conns.labels(transport=self.spec.name, outcome=outcome).inc()

    def install_fault_plan(self, plan: "Optional[FaultPlan]") -> None:
        """Apply ``plan`` to every channel accepted from now on.

        Sharing one plan across channels is how daemon-wide faults
        (blackhole) are scripted; frame-pinned rules fire once, so a
        reconnected channel does not replay the same scripted fault.
        """
        self._fault_plan = plan

    def connect(self, credentials: "Optional[Dict[str, Any]]" = None) -> Channel:
        """Client-side connect: handshake latency, auth, accept hook."""
        self.clock.sleep(self.spec.connect_latency)
        creds = dict(credentials or {})
        identity: Dict[str, Any] = {
            "transport": self.spec.name,
            "username": creds.get("username", "anonymous"),
        }
        if self.spec.local:
            identity.setdefault("unix_user_id", creds.get("uid", 0))
            identity.setdefault("unix_process_id", creds.get("pid", 1))
        else:
            identity.setdefault("sock_addr", creds.get("addr", "192.0.2.10:0"))
        if self._authenticator is not None:
            try:
                identity.update(self._authenticator(creds) or {})
            except AuthenticationError:
                with self._lock:
                    self.rejected += 1
                self._record_connection("rejected")
                raise
        conn_ref: "list" = [None]
        channel = Channel(self.spec, self.clock, conn_ref)
        if self._fault_plan is not None:
            channel.install_fault_plan(self._fault_plan)
        conn = ServerConnection(self, channel, identity)
        conn_ref[0] = conn
        if self._on_accept is not None:
            try:
                self._on_accept(conn)
            except Exception:
                with self._lock:
                    self.rejected += 1
                self._record_connection("rejected")
                conn.closed = True
                channel.closed = True
                raise
        with self._lock:
            self._connections.append(conn)
            self.accepted += 1
        self._record_connection("accepted")
        return channel

    def _forget(self, conn: ServerConnection) -> None:
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)

    @property
    def active_connections(self) -> int:
        with self._lock:
            return len(self._connections)

    def close_all(self) -> None:
        with self._lock:
            conns = list(self._connections)
        for conn in conns:
            conn.close()
