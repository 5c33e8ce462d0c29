"""Metrics primitives: counters, gauges, histograms, and the registry.

The daemon's inner life — workerpool depth, per-procedure dispatch
latency, bytes on the wire — is invisible from the outside unless the
management layer measures itself.  This module provides the measuring
instruments; :mod:`repro.observability.export` turns them into the
Prometheus text format and structured log lines, and the admin API
(``virt-admin server-stats``) serves them over the wire.

Design notes:

* every instrument is thread-safe (workerpool workers, the dispatcher,
  and admin scrapes all touch them concurrently);
* the registry is *clock-aware*: it stamps snapshots with the daemon's
  own clock (usually a :class:`~repro.util.clock.VirtualClock`), so
  metrics collected in a simulation carry modelled-time timestamps and
  stay deterministic;
* labelled metrics follow the Prometheus family/child model: a family
  (``rpc_server_calls_total``) fans out into children per label value
  (``{procedure="domain.create"}``), created lazily on first touch;
* the daemon's components (RPC server, workerpool, listener, tracer)
  always own a registry — a private one when built without — and their
  aggregate counts (``calls_served``, ``jobs_completed``, …) are reads
  of its series, never a second tally; client-side code guards each
  emission with ``if metrics is not None`` and pays one attribute test
  without a registry.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidArgumentError

#: latency-oriented default bucket boundaries (seconds); +Inf is implicit
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise InvalidArgumentError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing value (calls made, bytes sent)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidArgumentError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that goes both ways (queue depth, free workers).

    ``set_function`` installs a callback evaluated at read time, so a
    gauge can mirror live state (e.g. the workerpool's queue length)
    without the pool pushing an update on every transition.
    """

    __slots__ = ("_value", "_fn", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())

    def reset(self) -> None:
        with self._lock:
            if self._fn is None:
                self._value = 0.0
            # callback gauges mirror live state; reset cannot zero them


class Histogram:
    """Cumulative-bucket distribution (Prometheus semantics).

    Tracks per-bucket counts (``le`` upper bounds), total count, sum,
    and the observed min/max for cheap summary display.  A NaN moves the
    count and the sum but no bucket, and never the min or the max.
    """

    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise InvalidArgumentError("histogram needs at least one bucket bound")
        if not all(math.isfinite(b) for b in bounds):
            raise InvalidArgumentError("bucket bounds must be finite")
        if len(set(bounds)) != len(bounds):
            raise InvalidArgumentError("bucket bounds must be distinct")
        self.buckets = bounds
        # observations per bucket (not cumulative); the extra last slot
        # takes what exceeds every bound, i.e. lands only in +Inf
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        # every comparison with a NaN is false, so one never lands here
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value == value:  # NaN moves count and sum but no bucket
                self._counts[bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> "List[Tuple[float, int]]":
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, count)``."""
        with self._lock:
            pairs = list(zip(self.buckets, accumulate(self._counts)))
            pairs.append((math.inf, self._count))
            return pairs

    def summary(self) -> Dict[str, float]:
        """Count, sum, mean, min and max; min and max read 0.0 until a
        value other than NaN has been observed."""
        with self._lock:
            seen = self._min <= self._max
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count if self._count else 0.0,
                "min": self._min if seen else 0.0,
                "max": self._max if seen else 0.0,
            }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


_INSTRUMENTS = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class _ChildrenBy(dict):
    """``MetricFamily.by``: ``labels()`` runs in ``__missing__`` only."""

    __slots__ = ("_family", "_label", "_fixed")

    def __init__(self, family: "MetricFamily", label: str, fixed: Dict[str, str]) -> None:
        self._family, self._label, self._fixed = family, label, fixed

    def __missing__(self, value: str) -> Any:
        child = self._family.labels(**{self._label: value}, **self._fixed)
        if type(value) is str:  # as ``labels()``: 1, 1.0 and True are one key
            self[value] = child
        return child


class MetricFamily:
    """One named metric, fanned out into children by label values."""

    def __init__(
        self,
        name: str,
        mtype: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = _validate_name(name)
        if mtype not in _INSTRUMENTS:
            raise InvalidArgumentError(f"unknown metric type {mtype!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise InvalidArgumentError(f"invalid label name {label!r}")
        self.type = mtype
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}
        #: exact kwargs of an earlier ``labels()`` call -> its child
        self._memo: Dict[Tuple[Tuple[str, str], ...], Any] = {}
        #: the one child of an unlabelled family, once it has a sample
        self._solo: Any = None
        self._lock = threading.Lock()

    def _make_child(self) -> Any:
        if self.type == HISTOGRAM and self._buckets is not None:
            return Histogram(self._buckets)
        return _INSTRUMENTS[self.type]()

    def labels(self, **labels: str) -> Any:
        """The child instrument for one label-value combination."""
        memo_key = tuple(labels.items())
        try:
            return self._memo[memo_key]
        except (KeyError, TypeError):  # first sight, or an unhashable value
            pass
        if set(labels) != set(self.labelnames):
            raise InvalidArgumentError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        # only all-``str`` sets are remembered: 1, 1.0 and True are equal
        # as dict keys but stringify to three different children
        if all(type(v) is str for v in labels.values()):
            self._memo[memo_key] = child
        return child

    def by(self, label: str, **fixed: str) -> "Dict[str, Any]":
        """A dict from values of ``label`` to the child carrying that value
        beside the ``fixed`` labels.  Instrumented code holds one per
        emission site: a child is looked up (and so first appears in the
        export) the first time its value is used, and never again."""
        return _ChildrenBy(self, label, fixed)

    def _unlabelled(self) -> Any:
        child = self._solo
        if child is None:
            if self.labelnames:
                raise InvalidArgumentError(
                    f"metric {self.name!r} is labelled; call .labels(...) first"
                )
            child = self._solo = self.labels()
        return child

    # -- unlabelled conveniences ------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabelled().dec(amount)

    def set(self, value: float) -> None:
        self._unlabelled().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._unlabelled().set_function(fn)

    def observe(self, value: float) -> None:
        self._unlabelled().observe(value)

    @property
    def value(self) -> float:
        return self._unlabelled().value

    # -- enumeration -------------------------------------------------------

    def children(self) -> "List[Tuple[Tuple[str, ...], Any]]":
        with self._lock:
            return sorted(self._children.items())

    def count(self, **match: str) -> int:
        """Events counted by the children whose labels include ``match``:
        a counter's value, a histogram's observations.  Reading creates
        no child, so it never adds a series to the export."""
        where = [(self.labelnames.index(name), value) for name, value in match.items()]
        with self._lock:
            children = [
                child for key, child in self._children.items()
                if all(key[i] == value for i, value in where)
            ]
        if self.type == HISTOGRAM:
            return sum(child.count for child in children)
        return int(sum(child.value for child in children))

    def samples(self) -> "List[Tuple[Dict[str, str], Any]]":
        """``(labels_dict, instrument)`` pairs for every child."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in self.children()
        ]

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()


class MetricsRegistry:
    """The per-daemon (or per-client) collection of metric families.

    ``now`` supplies timestamps for snapshots and exports — pass the
    owning component's clock so simulated time flows through, keeping
    exports deterministic under the virtual clock.
    """

    def __init__(self, now: "Optional[Callable[[], float]]" = None) -> None:
        self._now = now or (lambda: 0.0)
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now()

    def set_clock(self, now: Callable[[], float]) -> None:
        """Late-bind the time source (e.g. once a transport is dialled)."""
        self._now = now

    def _family(
        self,
        name: str,
        mtype: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, mtype, help_text, labelnames, buckets)
                self._families[name] = family
                return family
        if family.type != mtype:
            raise InvalidArgumentError(
                f"metric {name!r} already registered as {family.type}"
            )
        if family.labelnames != tuple(labelnames):
            raise InvalidArgumentError(
                f"metric {name!r} already registered with labels "
                f"{list(family.labelnames)}"
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, COUNTER, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, GAUGE, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, HISTOGRAM, help_text, labelnames, buckets)

    def get(self, name: str) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
        if family is None:
            raise InvalidArgumentError(f"no metric named {name!r}")
        return family

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def families(self) -> "List[MetricFamily]":
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump of every family (admin API payload)."""
        out: Dict[str, Any] = {"timestamp": self.now(), "metrics": {}}
        for family in self.families():
            samples = []
            for labels, child in family.samples():
                if family.type == HISTOGRAM:
                    samples.append({"labels": labels, **child.summary()})
                else:
                    samples.append({"labels": labels, "value": child.value})
            out["metrics"][family.name] = {
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        return out

    def reset(self) -> None:
        """Zero every counter and histogram; callback gauges are live
        views of component state and keep reporting it."""
        for family in self.families():
            family.reset()


class Timer:
    """Context manager observing an interval into a histogram child.

    Measures against the registry's clock (modelled seconds under a
    virtual clock)::

        with Timer(registry, histogram_child):
            do_work()
    """

    __slots__ = ("_now", "_instrument", "_start", "elapsed")

    def __init__(self, registry: MetricsRegistry, instrument: Histogram) -> None:
        self._now = registry.now
        self._instrument = instrument
        self._start = 0.0
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = self._now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = self._now() - self._start
        self._instrument.observe(self.elapsed)
