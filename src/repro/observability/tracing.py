"""Distributed span tracing for the management layer's hot paths.

A :class:`Span` measures one named interval of (modelled) time with
attributes.  Parentage is resolved in three steps: an explicit
:class:`SpanContext` passed by the caller (how a dispatcher adopts the
context a CALL frame carried across the wire), else the calling
thread's innermost open span, else the context :meth:`Tracer.attach`\\ ed
to the thread (how a workerpool job inherits the read-loop's context).
That explicit-context model is what lets one remote API call produce
**one** trace even though it hops threads on both sides of the RPC
boundary: client ``call_async`` → correlation table → reply delivery,
and server read-loop → in-flight window queue → workerpool job.

Spans started with :meth:`Tracer.span` nest on the thread stack (a
context manager); spans started with :meth:`Tracer.start_span` are
*detached* — never pushed on any stack, finished explicitly with
:meth:`Tracer.finish_span` from whichever thread collects the result.
The RPC client uses detached spans so pipelined calls on one thread
cannot accidentally nest under each other.

Finished spans land in a bounded ring buffer — tracing is a debugging
and measurement aid, never an unbounded memory leak.  Open spans are
tracked too, so an in-flight trace is queryable (``trace-get``) before
it completes and survives ``reset-stats`` uncorrupted.

Span and trace ids are allocated from one process-global counter, so
ids stay unique across every tracer in the simulation (client- and
daemon-side spans of one trace land in a shared buffer without
colliding), while remaining deterministic for a given run.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

#: one id space for every tracer in the process — span ids must not
#: collide when client and daemon spans join the same trace.  Taken with
#: a bare ``next(_IDS)``: ``itertools.count.__next__`` runs in C without
#: releasing the interpreter lock, so two threads cannot draw one id
_IDS = itertools.count(1)


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``.

    This is what crosses thread handoffs (:meth:`Tracer.attach` /
    :meth:`Tracer.detach`) and the RPC wire (the optional trace-context
    frame field, see ``docs/PROTOCOL.md``).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"

    def to_wire(self) -> Dict[str, int]:
        """The plain-data form carried in the RPC frame."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(obj: Any) -> "Optional[SpanContext]":
        """Rebuild a context from wire data; None for anything malformed
        (an old or foreign frame must degrade to 'no context', never
        fail dispatch)."""
        if not isinstance(obj, dict):
            return None
        trace_id = obj.get("trace_id")
        span_id = obj.get("span_id")
        if (
            isinstance(trace_id, int)
            and isinstance(span_id, int)
            and not isinstance(trace_id, bool)
            and not isinstance(span_id, bool)
            and trace_id > 0
            and span_id > 0
        ):
            return SpanContext(trace_id, span_id)
        return None


class Span:
    """One timed interval; finished when ``end`` is set."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id",
        "start", "end", "attributes", "error",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: int,
        start: float,
        parent_id: "Optional[int]" = None,
        attributes: "Optional[Dict[str, Any]]" = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        #: adopted, not copied: the tracer hands over the ``**attributes``
        #: dict its caller's call just built, which nobody else holds
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        #: set to the exception repr when the spanned block raised
        self.error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} has not finished")
        return self.end - self.start

    @property
    def context(self) -> SpanContext:
        """This span's propagatable identity."""
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration if self.finished else None,
            "attributes": dict(self.attributes),
            "error": self.error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, {state})"


class _SpanContextManager:
    """The context-manager half of ``Tracer.span``."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc is not None and self.span.error is None:
            self.span.error = repr(exc)
        self._tracer._finish(self.span)


#: backward-compatible alias (the manager used to be ``_SpanContext``)
_SpanContext = _SpanContextManager


class _ThreadState(threading.local):
    """Per-thread tracing state: the nesting stack + attached context
    (``__init__`` runs once in each thread that touches it)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.context: Optional[SpanContext] = None


class Tracer:
    """Span factory with a bounded finished-span buffer and an
    open-span table for querying in-flight traces.

    ``metrics`` is optional (non-intrusiveness rule): with a registry,
    every finished span observes ``span_seconds{name}`` and every span
    adopted from a wire-propagated context increments
    ``spans_propagated_total``; without one, nothing is emitted.
    """

    def __init__(
        self,
        now: Callable[[], float],
        max_finished: int = 2048,
        metrics: "Optional[Any]" = None,
    ) -> None:
        self._now = now
        self._local = _ThreadState()
        self._finished: "Deque[Span]" = deque(maxlen=max_finished)
        self._open: Dict[int, Span] = {}
        self._lock = threading.Lock()
        self.spans_started = 0
        self.spans_failed = 0
        #: spans force-finished because an enclosing span exited first
        self.spans_orphaned = 0
        #: spans whose parent context arrived over the wire
        self.spans_propagated = 0
        self.metrics = metrics
        if metrics is not None:
            self._m_span_seconds = metrics.histogram(
                "span_seconds",
                "Modelled span durations by span name",
                ("name",),
            ).by("name")
            self._m_propagated = metrics.counter(
                "spans_propagated_total",
                "Spans created under a wire-propagated parent context",
            )

    # -- span lifecycle ----------------------------------------------------

    def span(
        self,
        name: str,
        parent: "Optional[SpanContext]" = None,
        **attributes: Any,
    ) -> _SpanContextManager:
        """Open a span on the calling thread's stack::

            with tracer.span("rpc.dispatch", procedure="domain.create"):
                ...

        ``parent`` overrides the ambient parent — pass the
        :class:`SpanContext` a frame carried to adopt a remote trace
        (counted in ``spans_propagated_total``).  Without it the parent
        is the thread's innermost open span, else the attached context.
        """
        return _SpanContextManager(self, self._make_span(name, parent, attributes, True))

    def start_span(
        self,
        name: str,
        parent: "Optional[SpanContext]" = None,
        **attributes: Any,
    ) -> Span:
        """Open a *detached* span: parented like :meth:`span` but never
        pushed on the thread stack, so it survives thread handoffs and
        pipelined siblings stay siblings.  Finish it explicitly with
        :meth:`finish_span` from any thread."""
        return self._make_span(name, parent, attributes, False)

    def finish_span(self, span: Span, error: "Optional[str]" = None) -> None:
        """Finish a span started with :meth:`start_span` (idempotent)."""
        if span.end is not None:
            return
        if error is not None and span.error is None:
            span.error = error
        self._finish(span)

    def _make_span(
        self,
        name: str,
        parent: "Optional[SpanContext]",
        attributes: Dict[str, Any],
        stacked: bool,
    ) -> Span:
        """One thread-state look-up, one id, one clock read, one ``Span``,
        one lock; the ambient parent's ids are read where they are."""
        state = self._local
        stack = state.stack
        propagated = parent is not None
        if parent is None:
            parent = stack[-1] if stack else state.context  # a Span or a SpanContext
        span_id = next(_IDS)
        if parent is None:
            span = Span(name, span_id, span_id, self._now(), None, attributes)
        else:
            span = Span(name, span_id, parent.trace_id, self._now(), parent.span_id, attributes)
        if stacked:
            stack.append(span)
        with self._lock:
            self.spans_started += 1
            if propagated:
                self.spans_propagated += 1
            self._open[span_id] = span
        if propagated and self.metrics is not None:
            self._m_propagated.inc()
        return span

    def _finish(self, span: Span, orphaned: int = 0) -> None:
        if span.end is not None:
            return
        stack = self._local.stack
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                # out-of-order exit: spans opened after ``span`` on this
                # thread can never pop cleanly — finish them as orphans
                # (marked, counted, buffered) instead of silently dropping
                # them with spans_started forever exceeding finished
                while stack[-1] is not span:
                    orphan = stack[-1]
                    if orphan.error is None:
                        orphan.error = f"orphaned: enclosing span {span.name!r} exited first"
                    self._finish(orphan, orphaned=1)
                stack.pop()
        end = span.end = self._now()
        with self._lock:
            self._open.pop(span.span_id, None)
            if span.error is not None:
                self.spans_failed += 1
            self.spans_orphaned += orphaned
            self._finished.append(span)
        if self.metrics is not None:
            self._m_span_seconds[span.name].observe(end - span.start)

    def record_interrupted(
        self,
        name: str,
        span_id: int,
        trace_id: int,
        start: float,
        parent_id: "Optional[int]" = None,
        **attributes: Any,
    ) -> Span:
        """Materialize a span another incarnation opened but never
        finished — a dispatch the daemon died inside, reconstructed
        from the flight-recorder tail on restart recovery.

        The span keeps its original identity (ids minted by the dead
        process stay valid: the id space is process-global and the
        counter only moves forward), ends *now*, and is marked
        ``status=interrupted`` so the stitched trace shows where the
        crash cut it short instead of dangling forever.
        """
        span = Span(
            name,
            span_id,
            trace_id=trace_id,
            start=start,
            parent_id=parent_id,
            attributes=attributes,
        )
        span.attributes["status"] = "interrupted"
        span.error = "interrupted: daemon died before the dispatch finished"
        span.end = self._now()
        with self._lock:
            self.spans_started += 1
            self.spans_failed += 1
            self._finished.append(span)
        if self.metrics is not None:
            self._m_span_seconds[span.name].observe(span.end - span.start)
        return span

    # -- context propagation -----------------------------------------------

    def current_context(self) -> "Optional[SpanContext]":
        """The context a child span started *now* on this thread would
        inherit: innermost open span, else the attached context."""
        state = self._local
        if state.stack:
            return state.stack[-1].context
        return state.context

    def attach(self, context: "Optional[SpanContext]") -> "Optional[SpanContext]":
        """Install ``context`` as this thread's ambient parent (a
        cross-thread handoff: the submitting side captures
        :meth:`current_context`, the executing side attaches it).
        Returns the previously attached context — pass it back to
        :meth:`detach` to restore."""
        state = self._local
        previous = state.context
        state.context = context
        return previous

    def detach(self, token: "Optional[SpanContext]") -> None:
        """Restore the context that :meth:`attach` displaced."""
        self._local.context = token

    # -- inspection --------------------------------------------------------

    @property
    def current(self) -> "Optional[Span]":
        stack = self._local.stack
        return stack[-1] if stack else None

    def finished_spans(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def open_spans(self) -> List[Span]:
        """Spans started but not yet finished (in-flight work)."""
        with self._lock:
            return list(self._open.values())

    @property
    def spans_finished(self) -> int:
        with self._lock:
            return len(self._finished)

    @property
    def spans_open(self) -> int:
        with self._lock:
            return len(self._open)

    def find(self, name: str) -> List[Span]:
        return [s for s in self.finished_spans() if s.name == name]

    def spans(
        self, trace_id: "Optional[int]" = None, include_open: bool = True
    ) -> List[Span]:
        """Finished (and, by default, in-flight) spans, optionally
        narrowed to one trace, in (start, span_id) order."""
        with self._lock:
            out = list(self._finished)
            if include_open:
                out.extend(self._open.values())
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        out.sort(key=lambda s: (s.start, s.span_id))
        return out

    def trace_summaries(self, limit: "Optional[int]" = None) -> List[Dict[str, Any]]:
        """One row per known trace (``trace-list``), oldest first:
        root span name, span/open/error counts, start, and duration so
        far (up to *now* while any span is still open)."""
        now = self._now()
        groups: Dict[int, List[Span]] = {}
        for span in self.spans(include_open=True):
            groups.setdefault(span.trace_id, []).append(span)
        rows = []
        for trace_id, spans in groups.items():
            span_ids = {s.span_id for s in spans}
            roots = [
                s for s in spans
                if s.parent_id is None or s.parent_id not in span_ids
            ]
            root = roots[0] if roots else spans[0]
            start = min(s.start for s in spans)
            open_count = sum(1 for s in spans if not s.finished)
            end = now if open_count else max(s.end for s in spans)
            rows.append({
                "trace_id": trace_id,
                "root": root.name,
                "spans": len(spans),
                "open": open_count,
                "errors": sum(1 for s in spans if s.error is not None),
                "start": start,
                "duration": end - start,
            })
        rows.sort(key=lambda r: (r["start"], r["trace_id"]))
        if limit is not None and limit >= 0:
            rows = rows[-limit:] if limit else []
        return rows

    def export(
        self, trace_id: "Optional[int]" = None, include_open: bool = False
    ) -> List[Dict[str, Any]]:
        """Plain-data span dump (JSON-exportable); in-flight spans have
        ``end``/``duration`` of None when included."""
        return [
            span.to_dict()
            for span in self.spans(trace_id=trace_id, include_open=include_open)
        ]

    def reset(self) -> None:
        """Drop finished spans and zero the counters.  Open spans are
        deliberately *kept*: an in-flight trace keeps accumulating and
        finishes intact after a ``reset-stats``."""
        with self._lock:
            self._finished.clear()
            self.spans_started = 0
            self.spans_failed = 0
            self.spans_orphaned = 0
            self.spans_propagated = 0
