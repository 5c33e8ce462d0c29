"""Domain event delivery: one sequenced bus, and lifecycle views over it.

Management applications subscribe to a driver's typed event records, or
register a callback receiving ``(domain_name, event, detail)`` for every
lifecycle transition — the mechanism monitoring tools build on instead
of polling every domain (the non-intrusive monitoring story).  Such a
callback is a bus subscription to ``kinds=LIFECYCLE`` whose handler is
its :func:`lifecycle_view`, on both ends of the wire.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.states import DomainEvent
from repro.errors import InvalidArgumentError

EventCallback = Callable[[str, DomainEvent, str], None]

#: a bus subscriber receives the full event record
BusCallback = Callable[[Dict[str, Any]], None]

#: the record kinds a legacy lifecycle callback subscribes to
LIFECYCLE = frozenset({"lifecycle"})

#: a lifecycle record's ``event`` string for each DomainEvent, and back:
#: the one place the two spellings of a lifecycle event are translated
_EVENT_NAMES = {event: event.name.lower() for event in DomainEvent}
_EVENTS_BY_NAME = {name: event for event, name in _EVENT_NAMES.items()}


def lifecycle_fields(domain: str, event: DomainEvent, detail: str = "") -> Dict[str, Any]:
    """The lifecycle record announcing ``event``, but its ``seq`` and ``kind``."""
    return {"domain": domain, "event": _EVENT_NAMES[event], "detail": detail}


def lifecycle_view(callback: EventCallback) -> BusCallback:
    """A bus handler that hands each lifecycle record to a legacy
    callback as ``(domain, DomainEvent, detail)``; subscribe it with
    ``kinds=LIFECYCLE``."""
    if not callable(callback):
        raise InvalidArgumentError("event callback must be callable")

    def view(record: Dict[str, Any]) -> None:
        callback(record["domain"], _EVENTS_BY_NAME[record["event"]], record["detail"])

    return view


def check_kinds(kinds: Any) -> "Optional[frozenset]":
    """A subscriber's ``kinds`` filter, checked: None means every kind, an
    empty collection none.  ``kinds`` is outside input (it arrives over
    the wire), so a bare string — which would name its characters — a
    non-iterable and a non-string element raise InvalidArgumentError."""
    if kinds is None:
        return None
    try:
        kindset = None if isinstance(kinds, (str, bytes)) else frozenset(kinds)
    except TypeError:  # not iterable, or an unhashable element
        kindset = None
    if kindset is None or not all(isinstance(kind, str) for kind in kindset):
        raise InvalidArgumentError(f"kinds must be a collection of record kind names, got {kinds!r}")
    return kindset


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


class EventBus:
    """The daemon-wide event fabric behind the push-based control plane.

    Typed, sequenced event *records* fanned out to subscribers:

    - every record carries a global monotonically increasing ``seq``
      plus ``kind`` (lifecycle/config/device/snapshot/checkpoint/job/
      migration/network/storage), so consumers can dedupe and order;
      ``seq`` is assigned under the lock but fan-out runs after it, so
      concurrent publishers may deliver out of ``seq`` order;
    - subscribers are served in registration order, and a legacy
      lifecycle callback is one of them (:func:`lifecycle_view`);
    - each subscriber owns a bounded pending queue — a slow consumer
      (``pause``/``resume``) accumulates records up to ``max_queue`` and
      then drops the oldest, with per-subscriber drop accounting.

    ``logger``, ``metrics`` and ``tracer`` are zero-arg suppliers, so the
    daemon can wire observability after the driver is built; any may
    return ``None``, leaving only ``callback_errors`` to count failures.
    """

    DEFAULT_MAX_QUEUE = 256

    def __init__(
        self,
        logger: "Optional[Callable[[], Any]]" = None,
        metrics: "Optional[Callable[[], Any]]" = None,
        tracer: "Optional[Callable[[], Any]]" = None,
    ) -> None:
        self._lock = threading.Lock()
        self._logger = logger or (lambda: None)
        self._metrics = metrics or (lambda: None)
        self._tracer = tracer or (lambda: None)
        #: counters this bus has emitted into, by name (see ``_counter``)
        self._counters: Dict[str, Any] = {}
        self._subs: Dict[int, _BusSubscription] = {}
        self._sub_ids = itertools.count(1)
        self._seq = itertools.count(1)
        self.published = 0
        self.bus_delivered = 0
        self.dropped = 0
        #: handlers that raised during delivery (the broken-subscriber count)
        self.callback_errors = 0
        #: bounded log of published records, for introspection and tests
        self.record_history: List[Dict[str, Any]] = []
        self._history_limit = 1000

    def attach_observability(
        self,
        logger: "Optional[Callable[[], Any]]" = None,
        metrics: "Optional[Callable[[], Any]]" = None,
        tracer: "Optional[Callable[[], Any]]" = None,
    ) -> None:
        """Late-bind the observability suppliers (daemon start-up order)."""
        if logger is not None:
            self._logger = logger
        if metrics is not None:
            self._metrics = metrics
        if tracer is not None:
            self._tracer = tracer

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

    def _count_callback_error(self, sub_id: int, exc: Exception) -> None:
        """A subscriber raised: make it visible instead of swallowing it."""
        with self._lock:
            self.callback_errors += 1
        log = self._logger()
        if log is not None:
            log.error(
                "events",
                f"event callback {sub_id} raised {type(exc).__name__}: {exc}",
            )
        errors = self._counter(
            "event_callback_errors_total", "Event callbacks that raised during delivery"
        )
        if errors is not None:
            errors.inc()

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
        kindset = check_kinds(kinds)
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
            subs = [s for s in self._subs.values() if s.kinds is None or kind in s.kinds]
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
                self._count_callback_error(sub.id, exc)
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

    def emit(self, domain: str, event: DomainEvent, detail: str = "") -> Dict[str, Any]:
        """Publish the lifecycle record announcing ``event``: ``publish``
        with a typed event, as a driver mutation queues it."""
        return self.publish("lifecycle", **lifecycle_fields(domain, event, detail))
