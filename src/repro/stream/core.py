"""virStream: credit-based bulk-data streams over the RPC connection.

A stream is opened by an ordinary CALL (``storage.vol_upload``,
``storage.vol_download``, ``domain.open_console``,
``domain.backup_begin_pull``) and identified by that call's serial.
Every subsequent frame is ``MessageType.STREAM`` with the opening
procedure/serial in its header, in one of four shapes:

========== ======================= =====================================
status     body                    meaning
========== ======================= =====================================
CONTINUE   bytes/memoryview        one data chunk (≤ :data:`DEFAULT_CHUNK`)
CONTINUE   {"op":"credits","n":k}  flow control: receiver grants k chunks
OK         None (client → server)  sender finished; commit and confirm
OK         result (server→client)  stream completed, result attached
ERROR      error dict              abort (either direction)
========== ======================= =====================================

Flow control is credit-based, riding the same philosophy as the
per-connection ``max_client_requests`` window: each side may have at
most ``window`` unacknowledged chunks toward its peer, and the receiver
returns credits only as it *consumes* — a slow reader therefore
backpressures the sender instead of growing an unbounded buffer in the
daemon.  Chunks never exceed :data:`DEFAULT_CHUNK`, far under
``MAX_MESSAGE``.

Streams ride a *reliable-in-order but severable* link model: a dropped
or lost frame has no retransmit layer underneath, so any loss aborts
the stream on the side that observes it — never a dangle, never a
silent gap in the bytes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import (
    ConnectionClosedError,
    DaemonCrashError,
    OperationAbortedError,
    RPCError,
    TransportStalledError,
    VirtError,
)
from repro.rpc.protocol import MessageType, ReplyStatus, RPCMessage

#: flow-control window: max unacknowledged chunks toward the peer
DEFAULT_WINDOW = 4
#: data chunk ceiling — comfortably under MAX_MESSAGE
DEFAULT_CHUNK = 256 * 1024
#: server-side outbound buffer bound; past it a slow reader is cut off
MAX_OUTBOX = 64


def stream_frame(number: int, serial: int, status: ReplyStatus, body: Any) -> bytes:
    """Pack one STREAM frame for the stream keyed (number, serial)."""
    return RPCMessage(number, MessageType.STREAM, serial, status, body).pack()


class ClientStream:
    """The client half of one open stream (``virStreamPtr``).

    Created by :meth:`RPCClient.open_stream`; ``info`` carries the
    opening call's reply body.  ``send``/``recv`` move data,
    ``finish`` half-closes and returns the server's completion result,
    ``abort`` tears down early.  Any transport casualty (sever, drop,
    daemon crash) aborts the stream locally — it never dangles.
    """

    def __init__(
        self,
        client: Any,
        procedure: str,
        number: int,
        serial: int,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self._client = client
        self.procedure = procedure
        self.number = number
        self.serial = serial
        self.window = window
        #: chunks we may still send before the server grants more
        self.credits = window
        #: chunks consumed locally but not yet credited back to the server
        self._owed = 0
        self._recv_buf: "Deque[Any]" = deque()
        #: "open" | "finished" | "aborted"
        self.state = "open"
        #: reply body of the opening call
        self.info: Any = None
        #: completion body the server attached to its final OK frame
        self.result: Any = None
        self.error: "Optional[VirtError]" = None
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- sending -----------------------------------------------------------

    def send(self, data: "bytes | bytearray | memoryview") -> int:
        """Send bytes into the stream, split into window-sized chunks.

        Chunk payloads travel as memoryviews — the XDR layer keeps them
        by reference, so no per-chunk copy happens on the way out.
        """
        if self.state == "aborted":
            raise self.error
        if self.state == "finished":
            raise RPCError(f"stream {self.procedure}#{self.serial} already finished")
        view = data if isinstance(data, memoryview) else memoryview(data)
        total = 0
        for start in range(0, len(view), DEFAULT_CHUNK):
            chunk = view[start : start + DEFAULT_CHUNK]
            if self.credits <= 0:
                raise TransportStalledError(
                    f"stream {self.procedure}#{self.serial}: flow-control "
                    f"window exhausted ({self.window} chunks unacknowledged)"
                )
            self.credits -= 1
            self._send_frame(
                stream_frame(self.number, self.serial, ReplyStatus.CONTINUE, chunk)
            )
            total += len(chunk)
            self.bytes_sent += len(chunk)
            if self.state == "aborted":
                raise self.error
        return total

    def finish(self) -> Any:
        """Half-close: tell the server we are done, await its result.

        For an upload this is the commit point — the server applies the
        staged bytes and answers with the completion body (or an error,
        re-raised here).  A link that dies before the confirmation
        aborts the stream and raises.
        """
        if self.state == "aborted":
            raise self.error
        if self.state == "finished":
            return self.result
        self._send_frame(stream_frame(self.number, self.serial, ReplyStatus.OK, None))
        if self.state == "aborted":
            raise self.error
        if self.state == "finished":
            return self.result
        # the finish frame went out but no completion came back
        self._finalize_abort(
            ConnectionClosedError(
                f"stream {self.procedure}#{self.serial}: no completion "
                "after finish (connection lost)"
            )
        )
        raise self.error

    def abort(self, reason: str = "aborted by client") -> None:
        """Tear the stream down early (both sides discard state)."""
        if self.state != "open":
            return
        try:
            self._client._send_stream_frame(
                stream_frame(
                    self.number,
                    self.serial,
                    ReplyStatus.ERROR,
                    OperationAbortedError(reason).to_dict(),
                )
            )
        except DaemonCrashError:
            self._finalize_abort(OperationAbortedError(reason))
            raise
        except VirtError:
            pass
        self._finalize_abort(OperationAbortedError(reason))

    def _send_frame(self, frame: bytes) -> None:
        try:
            delivered = self._client._send_stream_frame(frame)
        except DaemonCrashError:
            self._finalize_abort(
                ConnectionClosedError(
                    f"stream {self.procedure}#{self.serial}: daemon crashed mid-stream"
                )
            )
            raise
        except VirtError as exc:
            self._finalize_abort(
                ConnectionClosedError(
                    f"stream {self.procedure}#{self.serial}: {exc}"
                )
            )
            raise self.error from exc
        if not delivered:
            # the link silently ate the frame: without retransmit the
            # byte stream now has a hole, so the stream must die
            self._finalize_abort(
                ConnectionClosedError(
                    f"stream {self.procedure}#{self.serial}: frame lost on dead link"
                )
            )
            raise self.error

    # -- receiving ---------------------------------------------------------

    def recv(self) -> "bytes | memoryview":
        """Next buffered chunk, or ``b""`` (EOF once ``state`` is
        ``finished``, "nothing available yet" while still open).

        Consuming chunks returns credits to the server in half-window
        batches — that grant is what pumps the next chunks out of a
        download source, so a reader that stops calling ``recv``
        freezes the sender at one window of data.
        """
        if not self._recv_buf and self.state == "open":
            if not self._client._stream_link_ok():
                self._finalize_abort(
                    ConnectionClosedError(
                        f"stream {self.procedure}#{self.serial}: connection lost"
                    )
                )
                raise self.error
            if self._owed:
                self._flush_grants()
        if self._recv_buf:
            chunk = self._recv_buf.popleft()
            self._owed += 1
            if self.state == "open" and self._owed >= max(1, self.window // 2):
                self._flush_grants()
            return chunk
        if self.state == "aborted":
            raise self.error
        return b""

    def drain(self) -> bytes:
        """Read to EOF and return everything (the download helper)."""
        parts = []
        stalls = 0
        while True:
            chunk = self.recv()
            if chunk:
                parts.append(chunk)
                stalls = 0
                continue
            if self.state == "finished":
                return b"".join(parts)
            stalls += 1
            if stalls >= 2:
                self._finalize_abort(
                    ConnectionClosedError(
                        f"stream {self.procedure}#{self.serial}: stalled "
                        "with no data and no completion"
                    )
                )
                raise self.error

    def _flush_grants(self) -> None:
        n, self._owed = self._owed, 0
        if n <= 0:
            return
        self._send_frame(
            stream_frame(
                self.number,
                self.serial,
                ReplyStatus.CONTINUE,
                {"op": "credits", "n": n},
            )
        )

    # -- demux entry (called by RPCClient) ---------------------------------

    def _on_frame(self, message: RPCMessage) -> None:
        if self.state != "open":
            return
        body = message.body
        if message.status == ReplyStatus.CONTINUE:
            if isinstance(body, dict):
                if body.get("op") == "credits":
                    self.credits += int(body.get("n", 0))
                return
            if body is None:
                return
            self._recv_buf.append(body)
            self.bytes_received += len(body)
            return
        if message.status == ReplyStatus.OK:
            self.state = "finished"
            self.result = body
            self._client._forget_stream(self.serial)
            return
        error = (
            VirtError.from_dict(body)
            if isinstance(body, dict)
            else RPCError(f"stream {self.procedure}#{self.serial} aborted by peer")
        )
        self._finalize_abort(error)

    def _finalize_abort(self, error: VirtError) -> None:
        if self.state == "aborted":
            return
        self.state = "aborted"
        self.error = error
        self._client._forget_stream(self.serial)

    def _local_abort(self, reason: str) -> None:
        """Teardown with no wire traffic (link already dead)."""
        self._finalize_abort(
            ConnectionClosedError(
                f"stream {self.procedure}#{self.serial} aborted: {reason}"
            )
        )


class ServerStream:
    """The daemon half of one open stream.

    A handler obtains one via :meth:`RPCServer.open_stream` during the
    opening CALL's dispatch, then wires it either as a *sink*
    (``set_sink``: upload/console input — callbacks fire per incoming
    chunk and at finish) or as a *source* (``set_source``: download /
    backup pull — a pull callback is pumped one chunk per credit, so
    the daemon never buffers more than the client's window).
    """

    def __init__(
        self,
        server: Any,
        conn: Any,
        number: int,
        serial: int,
        label: str,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self._server = server
        self._conn = conn
        self.number = number
        self.serial = serial
        self.label = label
        self.window = window
        #: chunks we may push to the client before it grants more
        self.credits = window
        self.state = "open"
        self.bytes_in = 0
        self.bytes_out = 0
        self.error: "Optional[str]" = None
        #: detached ``stream.transfer`` span (tracing enabled only)
        self.span: Any = None
        self._on_data: "Optional[Callable[[Any], None]]" = None
        self._on_finish: "Optional[Callable[[], Any]]" = None
        self._on_abort: "Optional[Callable[[str], None]]" = None
        self._source: "Optional[Callable[[int], Optional[bytes]]]" = None
        self._source_result: Any = None
        self._outbox: "Deque[Any]" = deque()

    # -- handler wiring ----------------------------------------------------

    def set_sink(
        self,
        on_data: "Callable[[Any], None]",
        on_finish: "Optional[Callable[[], Any]]" = None,
        on_abort: "Optional[Callable[[str], None]]" = None,
    ) -> None:
        """Receive mode: ``on_data`` per chunk, ``on_finish`` at the
        client's half-close (its return value rides the completion
        frame), ``on_abort`` on any teardown short of finish."""
        self._on_data = on_data
        self._on_finish = on_finish
        self._on_abort = on_abort

    def set_source(
        self,
        read: "Callable[[int], Optional[bytes]]",
        result: Any = None,
    ) -> None:
        """Send mode: ``read(max_bytes)`` is pulled once per credit
        until it returns empty, then the stream finishes with
        ``result`` (called if callable).  Pumping starts immediately
        with the client's initial window."""
        self._source = read
        self._source_result = result
        self._pump()

    # -- sending (server → client) -----------------------------------------

    def send(self, data: "bytes | bytearray | memoryview") -> None:
        """Push bytes toward the client, respecting its credit window.

        Chunks beyond the window queue in a bounded outbox; a reader
        slow enough to overflow it is cut off with an abort rather than
        allowed to grow daemon memory without limit.
        """
        if self.state != "open":
            return
        view = data if isinstance(data, memoryview) else memoryview(data)
        for start in range(0, len(view), DEFAULT_CHUNK):
            chunk = view[start : start + DEFAULT_CHUNK]
            if self.credits > 0 and not self._outbox:
                self.credits -= 1
                self._push_data(chunk)
            else:
                self._outbox.append(chunk)
                if len(self._outbox) > MAX_OUTBOX:
                    self.abort("slow reader: outbound stream buffer overflow")
                    return
            if self.state != "open":
                return

    def finish(self, result: Any = None) -> None:
        """Server-side completion (source streams finish themselves)."""
        if self.state != "open":
            return
        self._push(stream_frame(self.number, self.serial, ReplyStatus.OK, result))
        self._teardown("finish")

    def abort(self, reason: str) -> None:
        """Server-initiated abort: tell the client, then tear down."""
        if self.state != "open":
            return
        self._push(
            stream_frame(
                self.number,
                self.serial,
                ReplyStatus.ERROR,
                OperationAbortedError(reason).to_dict(),
            )
        )
        self._teardown("abort", error=reason)

    def local_abort(self, reason: str) -> None:
        """Teardown with no wire traffic (connection already gone)."""
        self._teardown("abort", error=reason)

    def _pump(self) -> None:
        """Move outbox/source chunks out while credits allow."""
        while self.state == "open" and self.credits > 0:
            if self._outbox:
                chunk = self._outbox.popleft()
            elif self._source is not None:
                chunk = self._source(DEFAULT_CHUNK)
                if not chunk:
                    result = (
                        self._source_result()
                        if callable(self._source_result)
                        else self._source_result
                    )
                    self.finish(result)
                    return
            else:
                return
            self.credits -= 1
            self._push_data(chunk)

    def _push_data(self, chunk: "bytes | memoryview") -> None:
        self.bytes_out += len(chunk)
        self._server._count_stream_bytes("out", len(chunk))
        self._push(
            stream_frame(self.number, self.serial, ReplyStatus.CONTINUE, chunk)
        )

    def _push(self, frame: bytes) -> None:
        try:
            self._conn.push(frame)
        except ConnectionClosedError:
            self._teardown("abort", error="connection closed mid-stream")

    # -- incoming frames (routed by RPCServer) ------------------------------

    def handle_frame(self, message: RPCMessage) -> None:
        if self.state != "open":
            return
        body = message.body
        if message.status == ReplyStatus.CONTINUE:
            if isinstance(body, dict):
                if body.get("op") == "credits":
                    self.credits += int(body.get("n", 0))
                    self._pump()
                return
            if body is None:
                return
            self.bytes_in += len(body)
            self._server._count_stream_bytes("in", len(body))
            if self._on_data is not None:
                try:
                    self._on_data(body)
                except VirtError as exc:
                    self._fail(exc)  # the sink refused the chunk: no credit
                    return
            # consumed — hand the sender its credit back
            self._push(
                stream_frame(
                    self.number,
                    self.serial,
                    ReplyStatus.CONTINUE,
                    {"op": "credits", "n": 1},
                )
            )
            return
        if message.status == ReplyStatus.OK:
            result: Any = None
            if self._on_finish is not None:
                try:
                    result = self._on_finish()
                except DaemonCrashError:
                    # a crashed daemon confirms nothing: tear down
                    # locally and let the crash propagate like a kill
                    self._teardown("abort", error="daemon crashed at commit")
                    raise
                except VirtError as exc:
                    self._fail(exc)
                    return
            self.finish(result)
            return
        reason = (
            body.get("message", "aborted by peer")
            if isinstance(body, dict)
            else "aborted by peer"
        )
        self._teardown("abort", error=reason)

    def _fail(self, exc: VirtError) -> None:
        """A sink callback raised: its typed error rides the ERROR frame."""
        self._push(stream_frame(self.number, self.serial, ReplyStatus.ERROR, exc.to_dict()))
        self._teardown("abort", error=repr(exc))

    def _teardown(self, outcome: str, error: "Optional[str]" = None) -> None:
        if self.state != "open":
            return
        self.state = "finished" if outcome == "finish" else "aborted"
        if outcome != "finish":
            self.error = error or "aborted"
            if self._on_abort is not None:
                try:
                    self._on_abort(self.error)
                except VirtError:
                    pass
        self._server._stream_closed(self, outcome)


class StreamConsole:
    """Duck-typed console handle over a bidirectional stream.

    Mirrors the local console object: ``send`` writes guest input,
    ``recv`` returns buffered guest output, ``close`` detaches.
    """

    def __init__(self, stream: ClientStream) -> None:
        self._stream = stream

    @property
    def closed(self) -> bool:
        return self._stream.state != "open"

    def send(self, data: "str | bytes") -> None:
        payload = data.encode("utf-8") if isinstance(data, str) else data
        self._stream.send(payload)

    def recv(self) -> bytes:
        return bytes(self._stream.recv())

    def close(self) -> None:
        if self._stream.state == "open":
            try:
                self._stream.finish()
            except VirtError:
                pass
