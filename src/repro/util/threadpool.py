"""Workerpool: the daemon's concurrent task execution substrate.

Mirrors libvirt's ``virThreadPool``:

* a dynamic set of *ordinary workers*, grown on demand between a
  minimum and a maximum, that execute any queued job;
* a constant set of *priority workers* that only execute jobs flagged
  high-priority — the guaranteed-finish lane, so a critical operation
  (e.g. destroying a hung domain) can always run even when every
  ordinary worker is blocked on an unresponsive hypervisor;
* runtime-adjustable limits: lowering the maximum terminates surplus
  workers cooperatively — each worker re-checks the limit after waking
  and after finishing a job (libvirt's ``virThreadPoolWorkerQuitHelper``
  design, which avoids the deadlock of queueing "poison" jobs while
  holding the pool lock).

Wake-up rule: ordinary and priority workers park on separate conditions
of the one pool lock, and a submitted job wakes exactly **one** worker
that may run it — a parked ordinary worker if there is one, otherwise
(priority jobs only) a parked priority worker — so a hand-off costs one
wake-up however many workers are parked.  Only what every worker must
re-check is broadcast: a limit change, shutdown, and a worker's exit.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.errors import InvalidArgumentError, InvalidOperationError, OperationAbortedError
from repro.observability.metrics import MetricsRegistry


class _Job:
    __slots__ = ("func", "args", "kwargs", "priority", "future", "enqueued_at")

    def __init__(self, func: Callable[..., Any], args: tuple, kwargs: dict, priority: bool) -> None:
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.priority = priority
        self.future: "Future[Any]" = Future()
        #: modelled enqueue time, stamped by the pool
        self.enqueued_at = 0.0


class WorkerPool:
    """A bounded, dynamically sized pool with a priority lane.

    Its counts live in ``metrics`` — a private registry on ``now`` when
    none is given; ``jobs_completed`` reads the service histogram.
    """

    def __init__(
        self,
        min_workers: int = 1,
        max_workers: int = 5,
        prio_workers: int = 0,
        name: str = "pool",
        metrics: "Optional[MetricsRegistry]" = None,
        now: "Optional[Callable[[], float]]" = None,
    ) -> None:
        _validate_limits(min_workers, max_workers, prio_workers)
        self.name = name
        self.metrics = metrics = metrics or MetricsRegistry(now)
        self._now = now or metrics.now
        self._m_jobs = metrics.counter(
            "workerpool_jobs_total",
            "Jobs submitted, by pool and lane",
            ("pool", "lane"),
        ).by("lane", pool=name)
        self._m_wait = metrics.histogram(
            "workerpool_job_wait_seconds",
            "Modelled time a job spent queued before a worker took it",
            ("pool",),
        ).by("pool")
        self._m_service = metrics.histogram(
            "workerpool_job_service_seconds",
            "Modelled time a worker spent executing a job",
            ("pool",),
        ).by("pool")
        # live-view gauges: evaluated at scrape time, never pushed
        depth = metrics.gauge(
            "workerpool_queue_depth", "Jobs waiting for a worker", ("pool",)
        )
        depth.labels(pool=name).set_function(
            lambda: len(self._queue) + len(self._prio_queue)
        )
        workers = metrics.gauge(
            "workerpool_workers", "Worker threads by kind", ("pool", "kind")
        )
        workers.labels(pool=name, kind="total").set_function(
            lambda: self._n_workers
        )
        workers.labels(pool=name, kind="free").set_function(
            lambda: self._free_workers
        )
        workers.labels(pool=name, kind="priority").set_function(
            lambda: self._n_prio_workers
        )
        self._lock = threading.Lock()
        #: where idle ordinary / priority workers park (one lock, two queues)
        self._cond = threading.Condition(self._lock)
        self._prio_cond = threading.Condition(self._lock)
        #: workers waiting on each condition and not yet signalled.  Exact:
        #: the notifier decrements, so a second submit never aims at a
        #: worker an earlier one already woke
        self._parked = 0
        self._prio_parked = 0
        self._queue: "Deque[_Job]" = deque()
        self._prio_queue: "Deque[_Job]" = deque()
        self._min_workers = min_workers
        self._max_workers = max_workers
        self._want_prio_workers = prio_workers
        self._n_workers = 0
        self._n_prio_workers = 0
        self._free_workers = 0
        self._quit = False
        self._threads: List[threading.Thread] = []
        self._jobs_cancelled = 0
        with self._lock:
            for _ in range(min_workers):
                self._spawn_locked(priority=False)
            for _ in range(prio_workers):
                self._spawn_locked(priority=True)

    # -- public API ---------------------------------------------------

    def submit(
        self, func: Callable[..., Any], *args: Any, priority: bool = False, **kwargs: Any
    ) -> "Future[Any]":
        """Queue a job; returns a Future resolved by a worker.

        ``priority=True`` routes the job to the guaranteed lane: both
        ordinary and priority workers may execute it.  Ordinary jobs are
        only ever executed by ordinary workers.
        """
        job = _Job(func, args, kwargs, priority)
        job.enqueued_at = self._now()
        with self._lock:
            if self._quit:
                raise InvalidOperationError(f"workerpool {self.name!r} is shut down")
            if priority:
                self._prio_queue.append(job)
            else:
                self._queue.append(job)
            # grow on demand: pending work exceeds idle ordinary capacity
            pending = len(self._queue) + len(self._prio_queue)
            if pending > self._free_workers and self._n_workers < self._max_workers:
                self._spawn_locked(priority=False)
            # wake one worker that may run the job; with nobody parked the
            # next worker to finish finds it before parking
            if self._parked:
                self._parked -= 1
                self._cond.notify()
            elif priority and self._prio_parked:
                self._prio_parked -= 1
                self._prio_cond.notify()
        self._m_jobs["priority" if priority else "normal"].inc()
        return job.future

    def set_parameters(
        self,
        min_workers: "Optional[int]" = None,
        max_workers: "Optional[int]" = None,
        prio_workers: "Optional[int]" = None,
    ) -> None:
        """Adjust pool limits at runtime (the admin-API entry point)."""
        with self._lock:
            if self._quit:
                raise InvalidOperationError(f"workerpool {self.name!r} is shut down")
            new_min = self._min_workers if min_workers is None else min_workers
            new_max = self._max_workers if max_workers is None else max_workers
            new_prio = self._want_prio_workers if prio_workers is None else prio_workers
            _validate_limits(new_min, new_max, new_prio)
            self._min_workers = new_min
            self._max_workers = new_max
            self._want_prio_workers = new_prio
            while self._n_workers < self._min_workers:
                self._spawn_locked(priority=False)
            while self._n_prio_workers < self._want_prio_workers:
                self._spawn_locked(priority=True)
            # surplus workers notice the new limits via the quit helper
            self._wake_all_locked()

    def stats(self) -> Dict[str, int]:
        """Snapshot of the pool counters, keyed like ``srv-threadpool-info``."""
        with self._lock:
            return {
                "minWorkers": self._min_workers,
                "maxWorkers": self._max_workers,
                "nWorkers": self._n_workers,
                "freeWorkers": self._free_workers,
                "prioWorkers": self._n_prio_workers,
                "jobQueueDepth": len(self._queue) + len(self._prio_queue),
            }

    @property
    def jobs_completed(self) -> int:
        """Jobs a worker ran: the count of ``workerpool_job_service_seconds``
        (zeroed by ``reset-stats`` with the rest of the registry)."""
        return self.metrics.get("workerpool_job_service_seconds").count(pool=self.name)

    @property
    def jobs_cancelled(self) -> int:
        """Futures cancelled while queued.  No series counts them, so this
        is a plain counter of the pool's own and ``reset-stats`` leaves it."""
        with self._lock:
            return self._jobs_cancelled

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.

        With ``wait=True`` queued jobs drain first; otherwise pending
        futures fail with :class:`OperationAbortedError`.
        """
        with self._lock:
            if self._quit:
                return
            self._quit = True
            if not wait:
                cancelled = list(self._queue) + list(self._prio_queue)
                self._queue.clear()
                self._prio_queue.clear()
            else:
                cancelled = []
            threads = list(self._threads)
            self._wake_all_locked()
        for job in cancelled:
            _deliver(
                job.future.set_exception,
                OperationAbortedError("workerpool shut down before job ran"),
            )
        # a worker may itself trigger shutdown (e.g. an admin handler
        # tearing the daemon down) — never join the current thread
        me = threading.current_thread()
        for thread in threads:
            if thread is not me:
                thread.join(timeout=10.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- worker machinery ----------------------------------------------

    def _spawn_locked(self, priority: bool) -> None:
        if priority:
            self._n_prio_workers += 1
        else:
            self._n_workers += 1
        thread = threading.Thread(
            target=self._worker_loop,
            args=(priority,),
            name=f"{self.name}-{'prio-' if priority else ''}worker",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _should_quit_locked(self, priority: bool) -> bool:
        """The quit helper: has this worker become surplus?"""
        if priority:
            return self._n_prio_workers > self._want_prio_workers
        return self._n_workers > self._max_workers

    def _wake_all_locked(self) -> None:
        """Broadcast: every parked worker re-checks limits and queues."""
        self._parked = self._prio_parked = 0
        self._cond.notify_all()
        self._prio_cond.notify_all()

    def _worker_loop(self, priority: bool) -> None:
        while True:
            with self._lock:
                job = self._take_job_locked(priority)
                if job is None:
                    # either surplus or pool quitting with drained queues
                    if priority:
                        self._n_prio_workers -= 1
                    else:
                        self._n_workers -= 1
                    self._threads.remove(threading.current_thread())
                    self._wake_all_locked()
                    break
            # a Future cancelled while queued must not execute — and must
            # not kill this worker with InvalidStateError on delivery
            if not job.future.set_running_or_notify_cancel():
                with self._lock:
                    self._jobs_cancelled += 1
                continue
            started = self._now()
            self._m_wait[self.name].observe(max(0.0, started - job.enqueued_at))
            try:
                result = job.func(*job.args, **job.kwargs)
            except BaseException as exc:  # noqa: BLE001 - forwarded via the future
                _deliver(job.future.set_exception, exc)
            else:
                _deliver(job.future.set_result, result)
            self._m_service[self.name].observe(max(0.0, self._now() - started))

    def _take_job_locked(self, priority: bool) -> "Optional[_Job]":
        """Wait for and dequeue a job; None means the worker must exit."""
        while True:
            if self._should_quit_locked(priority):
                return None
            if self._prio_queue:
                return self._prio_queue.popleft()
            if not priority and self._queue:
                return self._queue.popleft()
            if self._quit:
                return None
            # whoever signals this worker takes it off the parked count
            if priority:
                self._prio_parked += 1
                self._prio_cond.wait()
            else:
                self._parked += 1
                self._free_workers += 1
                try:
                    self._cond.wait()
                finally:
                    self._free_workers -= 1


def _deliver(setter: Callable[[Any], None], payload: Any) -> None:
    """Resolve a Future, tolerating one already cancelled/resolved —
    an InvalidStateError here used to kill the worker thread and leak
    its ``_n_workers`` slot."""
    try:
        setter(payload)
    except InvalidStateError:
        pass


def _validate_limits(min_workers: int, max_workers: int, prio_workers: int) -> None:
    for label, value in (
        ("min_workers", min_workers),
        ("max_workers", max_workers),
        ("prio_workers", prio_workers),
    ):
        if not isinstance(value, int) or value < 0:
            raise InvalidArgumentError(f"{label} must be a non-negative integer, got {value!r}")
    if max_workers < 1:
        raise InvalidArgumentError("max_workers must be at least 1")
    if min_workers > max_workers:
        raise InvalidArgumentError(
            f"min_workers ({min_workers}) must not exceed max_workers ({max_workers})"
        )
