"""Domain lifecycle event delivery.

Management applications register callbacks on a connection and receive
``(domain_name, event, detail)`` notifications for every lifecycle
transition — the mechanism monitoring tools build on instead of
polling every domain (the non-intrusive monitoring story).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.states import DomainEvent
from repro.errors import InvalidArgumentError

EventCallback = Callable[[str, DomainEvent, str], None]

#: a bus subscriber receives the full event record
BusCallback = Callable[[Dict[str, Any]], None]


class ConnectionResetEvent:
    """A remote connection died and the driver handled it.

    Surfaced by the remote driver's auto-reconnect machinery: one
    instance per disconnect, whether the re-dial succeeded
    (``reconnected=True``, events re-subscribed) or gave up after
    exhausting its backoff budget.
    """

    __slots__ = ("reason", "attempts", "downtime", "reconnected", "timestamp")

    def __init__(
        self,
        reason: str,
        attempts: int,
        downtime: float,
        reconnected: bool,
        timestamp: float,
    ) -> None:
        self.reason = reason
        #: dial attempts made (including the successful one, if any)
        self.attempts = attempts
        #: modelled seconds between failure detection and recovery/giving up
        self.downtime = downtime
        self.reconnected = reconnected
        self.timestamp = timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        outcome = "reconnected" if self.reconnected else "gave up"
        return (
            f"ConnectionResetEvent({outcome} after {self.attempts} attempts, "
            f"downtime={self.downtime:.3f}s: {self.reason})"
        )


class EventBroker:
    """Callback registry with stable registration ids.

    ``logger`` and ``metrics`` are zero-arg suppliers (late-attach: the
    daemon wires observability after the driver — and its broker — are
    built).  Either may return ``None``; the broker then stays silent
    about callback failures beyond its own ``callback_errors`` counter.
    """

    def __init__(
        self,
        logger: "Optional[Callable[[], Any]]" = None,
        metrics: "Optional[Callable[[], Any]]" = None,
    ) -> None:
        self._callbacks: Dict[int, EventCallback] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._logger = logger or (lambda: None)
        self._metrics = metrics or (lambda: None)
        #: counters this broker has emitted into, by name (see ``_counter``)
        self._counters: Dict[str, Any] = {}
        self.delivered = 0
        #: callbacks that raised during delivery (the broken-subscriber count)
        self.callback_errors = 0
        #: log of every event ever emitted (bounded), for introspection
        self.history: List[Tuple[str, DomainEvent, str]] = []
        self._history_limit = 1000

    def attach_observability(
        self,
        logger: "Optional[Callable[[], Any]]" = None,
        metrics: "Optional[Callable[[], Any]]" = None,
    ) -> None:
        """Late-bind the logger/metrics suppliers (daemon start-up order)."""
        if logger is not None:
            self._logger = logger
        if metrics is not None:
            self._metrics = metrics

    def _counter(self, name: str, help_text: str, label: "Optional[str]" = None) -> Any:
        """The registry's counter ``name`` — keyed by its ``label``'s
        values if it has one — or None without a registry.  Registered by
        the first emission (the family must not exist before it) and held."""
        counter = self._counters.get(name)
        if counter is None:
            metrics = self._metrics()
            if metrics is None:
                return None
            if label is None:
                counter = metrics.counter(name, help_text)
            else:
                counter = metrics.counter(name, help_text, (label,)).by(label)
            self._counters[name] = counter
        return counter

    def _count_callback_error(self, callback_id: Any, exc: Exception) -> None:
        """A subscriber raised: make it visible instead of swallowing it."""
        with self._lock:
            self.callback_errors += 1
        log = self._logger()
        if log is not None:
            log.error(
                "events",
                f"event callback {callback_id} raised "
                f"{type(exc).__name__}: {exc}",
            )
        errors = self._counter(
            "event_callback_errors_total", "Event callbacks that raised during delivery"
        )
        if errors is not None:
            errors.inc()

    def register(self, callback: EventCallback) -> int:
        """Register a callback; returns the id used for deregistration."""
        if not callable(callback):
            raise InvalidArgumentError("event callback must be callable")
        with self._lock:
            callback_id = next(self._ids)
            self._callbacks[callback_id] = callback
            return callback_id

    def deregister(self, callback_id: int) -> None:
        with self._lock:
            if callback_id not in self._callbacks:
                raise InvalidArgumentError(f"no event callback with id {callback_id}")
            del self._callbacks[callback_id]

    def emit(self, domain: str, event: DomainEvent, detail: str = "") -> int:
        """Deliver an event to every registered callback.

        Returns the number of callbacks invoked.  A callback raising
        must not prevent delivery to the others.
        """
        with self._lock:
            callbacks = list(self._callbacks.items())
            self.history.append((domain, event, detail))
            if len(self.history) > self._history_limit:
                del self.history[: -self._history_limit]
        count = 0
        for callback_id, callback in callbacks:
            try:
                callback(domain, event, detail)
                count += 1
            except Exception as exc:  # noqa: BLE001 - one bad consumer must not break others
                self._count_callback_error(callback_id, exc)
        with self._lock:
            self.delivered += count
        return count

    @property
    def callback_count(self) -> int:
        with self._lock:
            return len(self._callbacks)


class _BusSubscription:
    """One bus subscriber: a handler plus its bounded pending queue."""

    __slots__ = ("id", "handler", "kinds", "queue", "max_queue", "delivered", "dropped", "paused")

    def __init__(
        self,
        sub_id: int,
        handler: BusCallback,
        kinds: "Optional[frozenset]",
        max_queue: int,
    ) -> None:
        self.id = sub_id
        self.handler = handler
        #: event kinds this subscriber wants; None means everything
        self.kinds = kinds
        self.queue: "Deque[Dict[str, Any]]" = deque()
        self.max_queue = max_queue
        self.delivered = 0
        self.dropped = 0
        #: a paused subscriber models a slow consumer: records queue up
        #: (bounded, drop-oldest) until ``resume`` drains them
        self.paused = False

    def wants(self, kind: str) -> bool:
        return self.kinds is None or kind in self.kinds


class EventBus(EventBroker):
    """The daemon-wide event fabric behind the push-based control plane.

    Extends :class:`EventBroker` (which keeps the legacy per-connection
    lifecycle callbacks working untouched) with typed, sequenced event
    *records* fanned out to bus subscribers:

    - every record carries a global monotonically increasing ``seq``
      plus ``kind`` (lifecycle/config/device/snapshot/checkpoint/job/
      migration/network/storage), so consumers can dedupe and order;
    - each subscriber owns a bounded pending queue — a slow consumer
      (``pause``/``resume``) accumulates records up to ``max_queue`` and
      then drops the oldest, with per-subscriber drop accounting;
    - ``emit`` (the legacy lifecycle entry point) also publishes a
      ``kind="lifecycle"`` record, so bus subscribers see everything the
      old broker callbacks see.
    """

    DEFAULT_MAX_QUEUE = 256

    def __init__(
        self,
        logger: "Optional[Callable[[], Any]]" = None,
        metrics: "Optional[Callable[[], Any]]" = None,
        tracer: "Optional[Callable[[], Any]]" = None,
    ) -> None:
        super().__init__(logger=logger, metrics=metrics)
        self._tracer = tracer or (lambda: None)
        self._subs: Dict[int, _BusSubscription] = {}
        self._sub_ids = itertools.count(1)
        self._seq = itertools.count(1)
        self.published = 0
        self.bus_delivered = 0
        self.dropped = 0
        #: bounded log of published records, for introspection and tests
        self.record_history: List[Dict[str, Any]] = []
        #: synchronous observer fed every published record.  Unlike a
        #: subscription it has no queue, can't pause, never drops, and
        #: does not count in ``subscription_count`` — the slot the
        #: daemon's flight recorder rides without perturbing the
        #: per-client subscription bookkeeping it is meant to observe
        self.tap: "Optional[Callable[[Dict[str, Any]], None]]" = None

    def attach_observability(
        self,
        logger: "Optional[Callable[[], Any]]" = None,
        metrics: "Optional[Callable[[], Any]]" = None,
        tracer: "Optional[Callable[[], Any]]" = None,
    ) -> None:
        super().attach_observability(logger=logger, metrics=metrics)
        if tracer is not None:
            self._tracer = tracer

    # -- subscription management ------------------------------------------

    def subscribe(
        self,
        handler: BusCallback,
        kinds: "Optional[Any]" = None,
        max_queue: "Optional[int]" = None,
    ) -> int:
        """Register a bus subscriber; returns its subscription id."""
        if not callable(handler):
            raise InvalidArgumentError("bus handler must be callable")
        if max_queue is None:
            max_queue = self.DEFAULT_MAX_QUEUE
        if max_queue < 1:
            raise InvalidArgumentError("max_queue must be >= 1")
        kindset = None if kinds is None else frozenset(kinds)
        with self._lock:
            sub_id = next(self._sub_ids)
            self._subs[sub_id] = _BusSubscription(sub_id, handler, kindset, max_queue)
            return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        with self._lock:
            if sub_id not in self._subs:
                raise InvalidArgumentError(f"no bus subscription with id {sub_id}")
            del self._subs[sub_id]

    def pause(self, sub_id: int) -> None:
        """Mark a subscriber slow: records queue instead of delivering."""
        self._sub(sub_id).paused = True

    def resume(self, sub_id: int) -> int:
        """Un-pause a subscriber and drain its pending queue."""
        sub = self._sub(sub_id)
        sub.paused = False
        return self._drain(sub)

    def _sub(self, sub_id: int) -> _BusSubscription:
        with self._lock:
            sub = self._subs.get(sub_id)
        if sub is None:
            raise InvalidArgumentError(f"no bus subscription with id {sub_id}")
        return sub

    @property
    def subscription_count(self) -> int:
        with self._lock:
            return len(self._subs)

    def subscription_stats(self) -> "List[Dict[str, Any]]":
        """Per-subscriber delivery/drop accounting (admin surface)."""
        with self._lock:
            subs = list(self._subs.values())
        return [
            {
                "id": sub.id,
                "delivered": sub.delivered,
                "dropped": sub.dropped,
                "queued": len(sub.queue),
                "max_queue": sub.max_queue,
                "paused": sub.paused,
                "kinds": sorted(sub.kinds) if sub.kinds is not None else None,
            }
            for sub in subs
        ]

    # -- publishing --------------------------------------------------------

    def publish(
        self,
        kind: str,
        domain: str = "",
        event: str = "",
        detail: str = "",
        **extra: Any,
    ) -> Dict[str, Any]:
        """Publish one typed record to every matching subscriber."""
        with self._lock:
            record: Dict[str, Any] = {
                "seq": next(self._seq),
                "kind": kind,
                "domain": domain,
                "event": event,
                "detail": detail,
            }
            record.update(extra)
            self.published += 1
            self.record_history.append(record)
            if len(self.record_history) > self._history_limit:
                del self.record_history[: -self._history_limit]
            subs = [s for s in self._subs.values() if s.wants(kind)]
        if self.tap is not None:
            self.tap(dict(record))
        published = self._counter(
            "events_published_total", "Event records published on the daemon bus", "kind"
        )
        if published is not None:
            published[kind].inc()
        tracer = self._tracer() if subs else None
        if tracer is not None:
            # no span without subscribers: an unobserved publish should
            # not add noise to every mutating procedure's trace
            with tracer.span(
                "event.deliver", kind=kind, domain=domain, subscribers=len(subs)
            ):
                self._fan_out(record, subs)
        else:
            self._fan_out(record, subs)
        return dict(record)

    def _fan_out(self, record: Dict[str, Any], subs: "List[_BusSubscription]") -> None:
        for sub in subs:
            sub.queue.append(record)
            if len(sub.queue) > sub.max_queue:
                # slow consumer: shed the oldest pending record
                sub.queue.popleft()
                sub.dropped += 1
                with self._lock:
                    self.dropped += 1
                dropped = self._counter(
                    "events_dropped_total", "Event records dropped on slow-subscriber overflow"
                )
                if dropped is not None:
                    dropped.inc()
            if not sub.paused:
                self._drain(sub)

    def _drain(self, sub: _BusSubscription) -> int:
        """Deliver a subscriber's queued records in order."""
        count = 0
        while sub.queue:
            record = sub.queue.popleft()
            try:
                sub.handler(dict(record))
            except Exception as exc:  # noqa: BLE001 - one bad consumer must not break others
                self._count_callback_error(f"bus:{sub.id}", exc)
                continue
            sub.delivered += 1
            count += 1
        if count:
            with self._lock:
                self.bus_delivered += count
            delivered = self._counter(
                "events_delivered_total", "Event records delivered to bus subscribers"
            )
            if delivered is not None:
                delivered.inc(count)
        return count

    def drain_all(self) -> int:
        """Flush every subscriber's pending queue (graceful shutdown)."""
        with self._lock:
            subs = list(self._subs.values())
        return sum(self._drain(sub) for sub in subs)

    # -- the legacy lifecycle entry point ---------------------------------

    def emit(self, domain: str, event: DomainEvent, detail: str = "") -> int:
        """Lifecycle emit: broker callbacks first, then a bus record."""
        count = super().emit(domain, event, detail)
        self.publish(
            "lifecycle", domain=domain, event=event.name.lower(), detail=detail
        )
        return count
