"""Per-layer span recording, installed from outside the program.

``Recorder.install()`` wraps the public entry points of every layer of
the call path (this repo's modules) with in-memory span recorders,
patching every module that imported a wrapped function by name.  It must
run *before* the daemon is built, because handlers are wrapped as they
are passed to ``RPCServer.register``.  ``uninstall()`` puts every
original back.

A span is ``(id, parent, op, label, start_ns, end_ns)``.  ``op`` is the
id of the root span the harness opens around each workload operation;
it is carried across the workerpool hand-off (and across a wait in the
per-connection in-flight window) together with the parent.  A layer's
self time is its spans' duration minus the time their children cover.
A child that runs after its parent returned — the pooled job runs after
``submit`` returned, while ``RPCClient.call`` is still waiting — is
charged against the nearest ancestor still open when it started, so the
client's wait is not counted on top of the work it waited for.  Waits
(submit -> job start, and time queued behind the in-flight window) are
spans too, reported apart from their layer's busy time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

#: the layers the report breaks an op into, in call-path order
LAYERS = (
    "drivers.remote", "rpc.client", "rpc.xdr", "rpc.protocol", "rpc.transport",
    "rpc.server", "util.threadpool", "daemon.libvirtd", "drivers.stateful",
    "hypervisors", "state.journal", "core.events", "core.cache",
    "observability.tracing", "observability.flightrec", "xmlconfig.domain", "stream.core",
)
ROOT_LAYER = "bench.op"
POOL_WAIT = ("util.threadpool", "wait")
WINDOW_WAIT = ("rpc.server", "window_wait")
#: how many ops' spans ``dump`` writes to ``trace_<workload>.json``
MAX_DUMP_OPS = 200

#: (layer, module, class or None, names); ``None`` names = every public
#: function the class defines.  Besides the public methods, a few
#: callbacks are listed because they are how a layer is *entered* from
#: another thread or from the wire (reply/event delivery, the pool-job
#: body, the span context manager's exit).
TARGETS: "Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...]" = (
    ("drivers.remote", "repro.drivers.remote", "RemoteDriver", None),
    ("drivers.remote", "repro.drivers.remote", "RemoteDriver", ("_on_bus_record",)),
    ("rpc.client", "repro.rpc.client", "RPCClient",
     ("call", "call_async", "call_many", "open_stream", "_on_reply_frame", "_on_event_frame")),
    ("rpc.client", "repro.rpc.client", "PendingReply", ("result",)),
    ("rpc.xdr", "repro.rpc.xdr", None, ("encode_value", "decode_value")),
    ("rpc.protocol", "repro.rpc.protocol", "RPCMessage", ("pack", "unpack")),
    ("rpc.protocol", "repro.rpc.protocol", None, ("split_frames",)),
    ("rpc.transport", "repro.rpc.transport", "Channel", ("send_request", "send_oneway", "send_batch")),
    ("rpc.transport", "repro.rpc.transport", "ServerConnection", ("handle", "send_reply", "push")),
    ("rpc.server", "repro.rpc.server", "RPCServer", ("dispatch", "_run_async", "emit_event", "open_stream")),
    ("drivers.stateful", "repro.drivers.stateful", "StatefulDriver", None),
    ("hypervisors", "repro.hypervisors.base", "Backend", None),
    ("hypervisors", "repro.hypervisors.qemu_backend", "QemuBackend", None),
    ("hypervisors", "repro.hypervisors.qemu_backend", "QmpMonitor", ("execute",)),
    ("hypervisors", "repro.hypervisors.diskimage", "ImageStore", None),
    ("state.journal", "repro.state.journal", "StateJournal", ("put", "delete", "checkpoint")),
    ("core.events", "repro.core.events", "EventBus", ("publish", "emit")),
    ("core.cache", "repro.core.cache", "InvalidationCache", ("get", "put", "on_event")),
    ("observability.tracing", "repro.observability.tracing", "Tracer", ("span", "start_span", "finish_span")),
    ("observability.tracing", "repro.observability.tracing", "_SpanContextManager", ("__exit__",)),
    ("observability.flightrec", "repro.observability.flightrec", "FlightRecorder", ("record", "flush")),
    ("xmlconfig.domain", "repro.xmlconfig.domain", "DomainConfig", ("to_xml", "from_xml")),
    ("stream.core", "repro.stream.core", "ClientStream", ("send", "recv", "drain", "finish")),
    ("stream.core", "repro.stream.core", "ServerStream", ("handle_frame", "send")),
)
#: replaced by purpose-built wrappers (thread hand-off, window, registration)
HAND_WRAPPED: "Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]]], ...]" = (
    ("util.threadpool", "repro.util.threadpool", "WorkerPool", ("submit",)),
    ("rpc.server", "repro.rpc.server", "RPCServer", ("_submit_job", "register")),
)


def _public_functions(cls: type) -> Tuple[str, ...]:
    return tuple(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, (types.FunctionType, staticmethod, classmethod))
    )


def _holder(module_name: str, class_name: "Optional[str]") -> Any:
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


class _Context:
    """What a thread needs to attribute the spans it records."""

    __slots__ = ("op", "stack")

    def __init__(self, op: int, parent: int) -> None:
        self.op = op
        self.stack = [parent]


class Recorder:
    """All state of one traced run (spans, counters, patched originals)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.labels: List[Tuple[str, str]] = []
        self._label_index: Dict[Tuple[str, str], int] = {}
        self.ids = itertools.count(1)
        self.local = threading.local()
        #: credit grants that found the sending side of a stream blocked
        self.credit_stalls = 0
        #: (id(conn), serial) -> [op, parent span, ns the CALL was queued or 0]
        self.arrivals: Dict[Tuple[int, int], List[int]] = {}
        self._undo: List[Callable[[], None]] = []

    def label(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._label_index:
            self._label_index[key] = len(self.labels)
            self.labels.append(key)
        return self._label_index[key]

    # -- the op root -------------------------------------------------------

    def traced_call(self, op: Callable[[int, int], Any]) -> Callable[[int, int], Any]:
        """Wrap a workload's ``op`` so each call runs under a root span."""
        label = self.label(ROOT_LAYER, "op")
        local, spans, ids = self.local, self.spans, self.ids

        def call(client: int, k: int) -> Any:
            sid = next(ids)
            local.ctx = _Context(sid, sid)
            t0 = _now()
            try:
                return op(client, k)
            finally:
                t1 = _now()
                local.ctx = None
                spans.append((sid, 0, sid, label, t0, t1))

        return call

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        label = self.label(layer, name)
        local, spans, ids = self.local, self.spans, self.ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ctx = getattr(local, "ctx", None)
            if ctx is None:  # outside any traced op (set-up, teardown)
                return fn(*args, **kwargs)
            sid = next(ids)
            stack = ctx.stack
            parent = stack[-1]
            stack.append(sid)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans.append((sid, parent, ctx.op, label, t0, t1))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _set(self, holder: Any, name: str, patched: Any) -> None:
        """Replace ``holder.name``, remembering how to put it back."""
        original = vars(holder)[name]
        setattr(holder, name, patched)
        self._undo.append(lambda: setattr(holder, name, original))

    def _patch_class(self, layer: str, cls: type, names: "Optional[Tuple[str, ...]]") -> None:
        for name in names if names is not None else _public_functions(cls):
            original = vars(cls)[name]
            label = f"{cls.__name__}.{name}"
            if isinstance(original, staticmethod):
                patched: Any = staticmethod(self.wrap(original.__func__, layer, label))
            elif isinstance(original, classmethod):
                patched = classmethod(self.wrap(original.__func__, layer, label))
            else:
                patched = self.wrap(original, layer, label)
            self._set(cls, name, patched)

    def _patch_function(self, layer: str, module: Any, name: str) -> None:
        original = getattr(module, name)
        patched = self.wrap(original, layer, name)
        # every module that did ``from repro.rpc.xdr import encode_value``
        # holds its own reference to the original
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and vars(other).get(name) is original:
                self._set(other, name, patched)

    # -- hand-offs that change thread ---------------------------------------

    def _patch_pool(self) -> None:
        """``WorkerPool.submit``: carry (op, parent) to the worker thread
        and record submit -> job start as the pool wait."""
        from repro.util.threadpool import WorkerPool

        original = WorkerPool.submit
        submit_label = self.label("util.threadpool", "WorkerPool.submit")
        wait_label = self.label(*POOL_WAIT)
        local, spans, ids = self.local, self.spans, self.ids

        def submit(pool: Any, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            ctx = getattr(local, "ctx", None)
            if ctx is None:
                return original(pool, func, *args, **kwargs)
            sid = next(ids)
            op, parent = ctx.op, ctx.stack[-1]
            submitted = _now()

            def job(*a: Any, **k: Any) -> Any:
                spans.append((next(ids), sid, op, wait_label, submitted, _now()))
                local.ctx = _Context(op, sid)
                try:
                    return func(*a, **k)
                finally:
                    local.ctx = None

            try:
                return original(pool, job, *args, **kwargs)
            finally:
                spans.append((sid, parent, op, submit_label, submitted, _now()))

        submit.__wrapped__ = original  # type: ignore[attr-defined]
        self._set(WorkerPool, "submit", submit)

    def _patch_window(self) -> None:
        """The in-flight window: a CALL that found the window full is
        submitted later, by whichever worker frees a slot.  Remember
        where each CALL arrived so that submission is charged to its own
        op, and record the time it sat in the window queue."""
        from repro.rpc.server import RPCServer
        from repro.rpc.transport import ASYNC_REPLY

        dispatch = RPCServer.dispatch  # the span-recording wrapper
        submit_job = RPCServer._submit_job
        wait_label = self.label(*WINDOW_WAIT)
        local, spans, ids, arrivals = self.local, self.spans, self.ids, self.arrivals

        def traced_dispatch(server: Any, conn: Any, data: Any) -> Any:
            ctx = getattr(local, "ctx", None)
            if ctx is None:
                return dispatch(server, conn, data)
            key = (id(conn), int.from_bytes(bytes(data[20:24]), "big"))
            entry = arrivals[key] = [ctx.op, ctx.stack[-1], 0]
            try:
                reply = dispatch(server, conn, data)
            except BaseException:
                arrivals.pop(key, None)
                raise
            if reply is ASYNC_REPLY:
                entry[2] = _now()  # if it is still queued, its wait starts here
            else:
                arrivals.pop(key, None)  # answered inline: never reaches the pool
            return reply

        def traced_submit_job(server: Any, conn: Any, window: Any, job: Any) -> Any:
            entry = arrivals.pop((id(conn), job.message.serial), None)
            if entry is None or entry[2] == 0:  # untraced, or still inside its own dispatch
                return submit_job(server, conn, window, job)
            op, parent, queued = entry
            sid = next(ids)
            spans.append((sid, parent, op, wait_label, queued, _now()))
            previous = getattr(local, "ctx", None)
            local.ctx = _Context(op, sid)
            try:
                return submit_job(server, conn, window, job)
            finally:
                local.ctx = previous

        traced_dispatch.__wrapped__ = dispatch  # type: ignore[attr-defined]
        traced_submit_job.__wrapped__ = submit_job  # type: ignore[attr-defined]
        self._set(RPCServer, "dispatch", traced_dispatch)
        self._set(RPCServer, "_submit_job", traced_submit_job)

    def _patch_register(self) -> None:
        """Handlers, as they are passed to ``RPCServer.register``."""
        from repro.rpc.server import RPCServer

        original = RPCServer.register

        def register(server: Any, name: str, handler: Any, priority: bool = False) -> None:
            wrapped = self.wrap(handler, "daemon.libvirtd", f"handler:{name}")
            # ``Libvirtd._wrap`` handlers read their procedure name off
            # themselves; the closure still looks at the inner function
            original(server, name, wrapped, priority=priority)

        register.__wrapped__ = original  # type: ignore[attr-defined]
        self._set(RPCServer, "register", register)

    def _patch_credit_stalls(self) -> None:
        """Count grants that found the sending side out of credits."""
        from repro.stream.core import ServerStream

        inner = ServerStream.handle_frame  # the span-recording wrapper

        def handle_frame(stream: Any, message: Any) -> Any:
            if stream.credits == 0 and stream.state == "open" and isinstance(message.body, dict):
                self.credit_stalls += 1
            return inner(stream, message)

        handle_frame.__wrapped__ = inner  # type: ignore[attr-defined]
        self._set(ServerStream, "handle_frame", handle_frame)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, names in TARGETS:
            holder = _holder(module_name, class_name)
            if class_name is None:
                for name in names or ():
                    self._patch_function(layer, holder, name)
            else:
                self._patch_class(layer, holder, names)
        self._patch_pool()
        self._patch_window()
        self._patch_register()
        self._patch_credit_stalls()

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def installed_wrappers() -> List[str]:
    """Wrapped names still in place (empty outside a traced run)."""
    found = []
    for _layer, module_name, class_name, names in TARGETS + HAND_WRAPPED:
        holder = _holder(module_name, class_name)
        for name in names if names is not None else _public_functions(holder):
            value = vars(holder)[name]
            if hasattr(getattr(value, "__func__", value), "__wrapped__"):
                found.append(f"{module_name}:{class_name or ''}.{name}")
    return found


# -- analysis ---------------------------------------------------------------


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def analyse(recorder: Recorder, factor_of_op: Dict[int, float]) -> Dict[str, Any]:
    """Per-layer self time and call counts per op, normalised.

    ``factor_of_op`` maps an op (root span id) to the normalisation
    factor of the slice it ran in; spans of other ops are left out.
    """
    spans = [s for s in recorder.spans if s[2] in factor_of_op]
    by_id = {s[0]: s for s in spans}
    # A wait is recorded from the moment of submission, but the worker
    # cannot start while the submitting thread is still returning through
    # its own spans: begin the wait where the last of those returned.
    wait_labels = {recorder.label(*POOL_WAIT), recorder.label(*WINDOW_WAIT)}
    for index, (sid, parent, op, label, start, end) in enumerate(spans):
        if label not in wait_labels:
            continue
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[5] <= end:
            start = max(start, ancestor[5])
            ancestor = by_id.get(ancestor[1])
        spans[index] = by_id[sid] = (sid, parent, op, label, min(start, end), end)
    children: Dict[int, List[Tuple[int, int]]] = {}
    unresolved = 0
    for _sid, parent, _op, _label, start, end in spans:
        if parent == 0:
            continue
        holder = by_id.get(parent)
        if holder is None:
            unresolved += 1
            continue
        # climb to the nearest ancestor that was still open at ``start``
        while holder[1] != 0 and not holder[4] <= start < holder[5]:
            holder = by_id[holder[1]]
        children.setdefault(holder[0], []).append((start, end))
    self_ns: Dict[Tuple[str, str], float] = {}
    calls: Dict[Tuple[str, str], int] = {}
    negative = 0
    op_ns = 0.0
    ops = 0
    for sid, parent, op, label, start, end in spans:
        own = (end - start) - _covered(children.get(sid, []), start, end)
        if own < 0:
            negative += 1
        key = recorder.labels[label]
        self_ns[key] = self_ns.get(key, 0.0) + own * factor_of_op[op]
        calls[key] = calls.get(key, 0) + 1
        if parent == 0:
            ops += 1
            op_ns += (end - start) * factor_of_op[op]
    layers = {layer: {"self_us_per_op": 0.0, "calls_per_op": 0.0} for layer in LAYERS}
    waits = {POOL_WAIT: 0.0, WINDOW_WAIT: 0.0}
    accounted = 0.0
    for key, total in self_ns.items():
        if key[0] == ROOT_LAYER:
            continue
        accounted += total
        if key in waits:
            waits[key] = total
            continue
        layers[key[0]]["self_us_per_op"] += total / ops / 1e3
        layers[key[0]]["calls_per_op"] += calls[key] / ops
    for figures in layers.values():
        figures["share"] = figures["self_us_per_op"] * 1e3 * ops / op_ns
    entries = sorted(
        ({"layer": k[0], "name": k[1], "self_us_per_op": v / ops / 1e3, "calls_per_op": calls[k] / ops}
         for k, v in self_ns.items()),
        key=lambda e: -e["self_us_per_op"],
    )
    return {
        "ops": ops,
        "spans": len(spans),
        "op_us": op_ns / ops / 1e3,
        "layers": layers,
        "pool_wait_us_per_op": waits[POOL_WAIT] / ops / 1e3,
        "window_wait_us_per_op": waits[WINDOW_WAIT] / ops / 1e3,
        "coverage": accounted / op_ns,
        "unresolved_parents": unresolved,
        "negative_self_times": negative,
        "entries": entries,
    }


def dump(recorder: Recorder, path: str, summary: Dict[str, Any]) -> None:
    """Write the first ``MAX_DUMP_OPS`` ops' spans plus the summary as JSON."""
    keep = set(itertools.islice((s[2] for s in recorder.spans if s[1] == 0), MAX_DUMP_OPS))
    rows = [
        {"id": s[0], "parent": s[1], "op": s[2], "layer": recorder.labels[s[3]][0],
         "name": recorder.labels[s[3]][1], "start_ns": s[4], "end_ns": s[5]}
        for s in recorder.spans if s[2] in keep
    ]
    with open(path, "w") as handle:
        json.dump({"summary": summary, "spans": rows}, handle)
