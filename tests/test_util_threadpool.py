"""Tests for the workerpool (repro.util.threadpool)."""

import sys
import threading
import time

import pytest

from repro.errors import InvalidArgumentError, InvalidOperationError, OperationAbortedError
from repro.observability.metrics import MetricsRegistry
from repro.util.threadpool import WorkerPool


def wait_for(predicate, timeout=5.0, interval=0.005):
    """Poll until predicate() is true or the timeout expires."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestConstruction:
    def test_initial_stats(self):
        with WorkerPool(min_workers=2, max_workers=8, prio_workers=3) as pool:
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 2)
            stats = pool.stats()
            assert stats["minWorkers"] == 2
            assert stats["maxWorkers"] == 8
            assert stats["nWorkers"] == 2
            assert stats["prioWorkers"] == 3
            assert stats["jobQueueDepth"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_workers": -1},
            {"max_workers": 0},
            {"min_workers": 5, "max_workers": 2},
            {"prio_workers": -1},
            {"min_workers": "two"},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            WorkerPool(**kwargs)


class TestExecution:
    def test_job_runs_and_returns_result(self):
        with WorkerPool(min_workers=1, max_workers=2) as pool:
            future = pool.submit(lambda a, b: a + b, 2, 3)
            assert future.result(timeout=5) == 5

    def test_kwargs_forwarded(self):
        with WorkerPool() as pool:
            future = pool.submit(lambda x=0: x * 2, x=21)
            assert future.result(timeout=5) == 42

    def test_exception_propagates_through_future(self):
        with WorkerPool() as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=5)

    def test_many_jobs_all_complete(self):
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            futures = [pool.submit(lambda i=i: i * i) for i in range(100)]
            assert sorted(f.result(timeout=10) for f in futures) == sorted(
                i * i for i in range(100)
            )
            # a worker counts the job after it delivers the result
            assert wait_for(lambda: pool.jobs_completed == 100)

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool()
        pool.shutdown()
        with pytest.raises(InvalidOperationError):
            pool.submit(lambda: None)


class TestDynamicGrowth:
    def test_pool_grows_under_load_up_to_max(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=3) as pool:
            futures = [pool.submit(gate.wait) for _ in range(5)]
            assert wait_for(lambda: pool.stats()["nWorkers"] == 3)
            assert pool.stats()["nWorkers"] == 3  # capped at max
            gate.set()
            for f in futures:
                f.result(timeout=5)

    def test_queue_depth_reports_waiting_jobs(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1) as pool:
            futures = [pool.submit(gate.wait) for _ in range(4)]
            assert wait_for(lambda: pool.stats()["jobQueueDepth"] == 3)
            gate.set()
            for f in futures:
                f.result(timeout=5)

    def test_free_workers_counts_idle(self):
        with WorkerPool(min_workers=3, max_workers=3) as pool:
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 3)
            gate = threading.Event()
            f = pool.submit(gate.wait)
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 2)
            gate.set()
            f.result(timeout=5)
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 3)


class TestPriorityLane:
    def test_priority_workers_execute_priority_jobs(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=2) as pool:
            blockers = [pool.submit(gate.wait)]  # occupy the ordinary worker
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            done = pool.submit(lambda: "critical", priority=True)
            # the priority lane finishes the critical job while ordinary is stuck
            assert done.result(timeout=5) == "critical"
            gate.set()
            for f in blockers:
                f.result(timeout=5)

    def test_priority_workers_ignore_ordinary_jobs(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=2) as pool:
            blocker = pool.submit(gate.wait)  # ordinary worker busy
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            queued = pool.submit(lambda: "ordinary")
            # priority workers are idle but must not pick the ordinary job up
            time.sleep(0.1)
            assert not queued.done()
            gate.set()
            assert queued.result(timeout=5) == "ordinary"
            blocker.result(timeout=5)

    def test_ordinary_worker_can_take_priority_job(self):
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=0) as pool:
            future = pool.submit(lambda: "prio", priority=True)
            assert future.result(timeout=5) == "prio"


class TestRuntimeReconfiguration:
    def test_raising_min_spawns_workers(self):
        with WorkerPool(min_workers=1, max_workers=10) as pool:
            pool.set_parameters(min_workers=5)
            assert wait_for(lambda: pool.stats()["nWorkers"] >= 5)

    def test_lowering_max_terminates_surplus_idle_workers(self):
        with WorkerPool(min_workers=4, max_workers=4) as pool:
            assert wait_for(lambda: pool.stats()["nWorkers"] == 4)
            pool.set_parameters(min_workers=1, max_workers=1)
            assert wait_for(lambda: pool.stats()["nWorkers"] == 1)

    def test_lowering_max_takes_effect_after_busy_workers_finish(self):
        gate = threading.Event()
        with WorkerPool(min_workers=3, max_workers=3) as pool:
            futures = [pool.submit(gate.wait) for _ in range(3)]
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            pool.set_parameters(min_workers=1, max_workers=1)
            assert pool.stats()["nWorkers"] == 3  # still busy, not killed mid-job
            gate.set()
            for f in futures:
                f.result(timeout=5)
            assert wait_for(lambda: pool.stats()["nWorkers"] == 1)

    def test_prio_worker_count_adjustable(self):
        with WorkerPool(prio_workers=1) as pool:
            pool.set_parameters(prio_workers=3)
            assert wait_for(lambda: pool.stats()["prioWorkers"] == 3)
            pool.set_parameters(prio_workers=0)
            assert wait_for(lambda: pool.stats()["prioWorkers"] == 0)

    def test_invalid_runtime_limits_rejected(self):
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            with pytest.raises(InvalidArgumentError):
                pool.set_parameters(min_workers=10)  # above current max
            with pytest.raises(InvalidArgumentError):
                pool.set_parameters(max_workers=0)
            # pool still functional
            assert pool.submit(lambda: 1).result(timeout=5) == 1

    def test_set_parameters_after_shutdown_rejected(self):
        pool = WorkerPool()
        pool.shutdown()
        with pytest.raises(InvalidOperationError):
            pool.set_parameters(max_workers=2)


class TestShutdown:
    def test_graceful_shutdown_drains_queue(self):
        pool = WorkerPool(min_workers=1, max_workers=1)
        results = []
        futures = [pool.submit(lambda i=i: results.append(i)) for i in range(10)]
        pool.shutdown(wait=True)
        for f in futures:
            f.result(timeout=1)
        assert sorted(results) == list(range(10))
        assert pool.stats()["nWorkers"] == 0

    def test_abrupt_shutdown_cancels_pending(self):
        gate = threading.Event()
        pool = WorkerPool(min_workers=1, max_workers=1)
        running = pool.submit(gate.wait)
        pending = pool.submit(lambda: "never")
        assert wait_for(lambda: pool.stats()["jobQueueDepth"] == 1)
        gate.set()
        pool.shutdown(wait=False)
        with pytest.raises(OperationAbortedError):
            pending.result(timeout=5)
        running.result(timeout=5)

    def test_double_shutdown_is_idempotent(self):
        pool = WorkerPool()
        pool.shutdown()
        pool.shutdown()


class TestCancelledFutures:
    def test_cancelled_queued_job_does_not_run_or_kill_worker(self):
        """Regression: a Future cancelled while queued used to raise
        InvalidStateError inside the worker loop, silently killing the
        thread and leaking its _n_workers slot."""
        gate = threading.Event()
        ran = []
        with WorkerPool(min_workers=1, max_workers=1) as pool:
            blocker = pool.submit(gate.wait)
            doomed = pool.submit(lambda: ran.append("doomed"))
            assert doomed.cancel()
            gate.set()
            blocker.result(timeout=5)
            assert wait_for(lambda: pool.jobs_cancelled == 1)
            # the worker survived: it still executes new jobs and the
            # pool's accounting never leaked the slot
            assert pool.submit(lambda: "alive").result(timeout=5) == "alive"
            assert pool.stats()["nWorkers"] == 1
            assert ran == []

    def test_abrupt_shutdown_tolerates_cancelled_pending_futures(self):
        """shutdown(wait=False) delivers failures into queued futures;
        one already cancelled by the caller must not blow up delivery."""
        gate = threading.Event()
        pool = WorkerPool(min_workers=1, max_workers=1)
        running = pool.submit(gate.wait)
        pending = pool.submit(lambda: "never")
        assert wait_for(lambda: pool.stats()["jobQueueDepth"] == 1)
        assert pending.cancel()
        gate.set()
        pool.shutdown(wait=False)  # used to raise InvalidStateError
        running.result(timeout=5)
        assert pending.cancelled()


# -- one wake-up per job ------------------------------------------------------

#: the pool shape ``Libvirtd`` builds by default
DAEMON_SHAPE = dict(min_workers=5, max_workers=20, prio_workers=5)


def count_wakeups(pool):
    """Count returns from the wait of each condition workers park on.

    Every parked worker is woken once first, so that the sleep it was
    already in when the wrapper went on does not escape the count."""
    woken = {"ordinary": 0, "priority": 0}

    def counted(kind, wait):
        def wrapper(timeout=None):
            try:
                return wait(timeout)
            finally:
                woken[kind] += 1  # under the pool lock, re-taken by wait()

        return wrapper

    pool._cond.wait = counted("ordinary", pool._cond.wait)
    pool._prio_cond.wait = counted("priority", pool._prio_cond.wait)
    pool.set_parameters()  # broadcast: everyone re-parks through the wrappers
    assert wait_for(lambda: all_parked(pool))
    woken["ordinary"] = woken["priority"] = 0
    return woken


def all_parked(pool):
    with pool._lock:
        return (
            pool._parked == pool._n_workers
            and pool._prio_parked == pool._n_prio_workers
            and pool._free_workers == pool._n_workers
        )


class TestTargetedWakeups:
    @pytest.mark.parametrize("priority", [False, True])
    def test_one_wakeup_per_sequential_job(self, priority):
        """The parent woke all ten workers per submit (≈ 7 000 wake-ups
        for 1 000 jobs); a job wakes the one worker that runs it."""
        with WorkerPool(**DAEMON_SHAPE) as pool:
            woken = count_wakeups(pool)
            for _ in range(1000):
                pool.submit(lambda: None, priority=priority).result(timeout=5)
            assert wait_for(lambda: all_parked(pool))
            assert 1000 <= woken["ordinary"] + woken["priority"] <= 1010
            # a priority job prefers a parked ordinary worker
            assert woken["priority"] == 0
            assert pool.stats()["nWorkers"] == 5  # nothing grew

    def test_priority_job_wakes_one_priority_worker_when_ordinary_all_busy(self):
        gate = threading.Event()
        with WorkerPool(min_workers=3, max_workers=3, prio_workers=5) as pool:
            woken = count_wakeups(pool)
            blockers = [pool.submit(gate.wait) for _ in range(3)]
            assert wait_for(lambda: pool.stats()["freeWorkers"] == 0)
            assert pool.submit(lambda: "critical", priority=True).result(timeout=5) == "critical"
            assert wait_for(lambda: pool._prio_parked == 5)
            assert woken["priority"] == 1  # one, not five
            gate.set()
            for f in blockers:
                f.result(timeout=5)

    def test_priority_job_not_aimed_at_an_already_signalled_worker(self):
        """One parked ordinary worker: the ordinary job takes its signal,
        so the priority job right behind must go to the priority lane —
        a parked count still including the signalled worker would aim
        the second signal at nobody."""
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=2) as pool:
            woken = count_wakeups(pool)
            slow = pool.submit(gate.wait)
            fast = pool.submit(lambda: "critical", priority=True)
            assert fast.result(timeout=5) == "critical"
            assert not slow.done()  # the lane finished while slow still runs
            assert wait_for(lambda: pool._prio_parked == 2 and woken["ordinary"] == 1)
            assert woken == {"ordinary": 1, "priority": 1}
            gate.set()
            slow.result(timeout=5)

    def test_ordinary_job_never_wakes_the_priority_lane(self):
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1, prio_workers=2) as pool:
            woken = count_wakeups(pool)
            jobs = [pool.submit(gate.wait) for _ in range(3)]
            gate.set()
            for f in jobs:
                f.result(timeout=5)
            assert woken["priority"] == 0

    def test_free_workers_gauge_and_growth_rule_unchanged(self):
        """Two parked workers, two jobs back to back: the second submit
        still sees the signalled worker as free, so nothing grows."""
        metrics = MetricsRegistry()
        with WorkerPool(min_workers=2, max_workers=8, name="g", metrics=metrics) as pool:
            assert wait_for(lambda: all_parked(pool))
            free = metrics.get("workerpool_workers").labels(pool="g", kind="free")
            assert free.value == 2
            for _ in range(200):
                a, b = pool.submit(lambda: None), pool.submit(lambda: None)
                a.result(timeout=5), b.result(timeout=5)
            assert pool.stats()["nWorkers"] == 2
            assert wait_for(lambda: free.value == 2)
            jobs = metrics.get("workerpool_jobs_total")
            assert jobs.labels(pool="g", lane="normal").value == 400
            assert jobs.labels(pool="g", lane="priority").value == 0
            assert metrics.get("workerpool_job_wait_seconds").labels(pool="g").count == 400


class TestWorkerBookkeeping:
    def test_tracked_threads_do_not_outlive_their_workers(self):
        """``_threads`` only ever grew: five grow/shrink cycles left 97
        entries for 7 live workers and shutdown joined 90 dead threads."""
        with WorkerPool(**DAEMON_SHAPE) as pool:
            assert wait_for(lambda: all_parked(pool))
            before = pool.stats()
            for _ in range(5):
                pool.set_parameters(min_workers=20, max_workers=20)
                assert wait_for(lambda: pool.stats()["nWorkers"] == 20)
                pool.set_parameters(min_workers=2, max_workers=2)
                assert wait_for(lambda: pool.stats()["nWorkers"] == 2)
            pool.set_parameters(max_workers=20, min_workers=5)
            assert wait_for(lambda: all_parked(pool))
            assert pool.stats() == before
            with pool._lock:
                tracked = list(pool._threads)
            assert len(tracked) == before["nWorkers"] + before["prioWorkers"]
            assert all(thread.is_alive() for thread in tracked)

    def test_lowering_limits_while_everyone_is_parked_terminates_the_surplus(self):
        with WorkerPool(min_workers=6, max_workers=6, prio_workers=4) as pool:
            assert wait_for(lambda: all_parked(pool))
            pool.set_parameters(min_workers=1, max_workers=2, prio_workers=1)
            assert wait_for(lambda: pool.stats()["nWorkers"] == 2)
            assert wait_for(lambda: pool.stats()["prioWorkers"] == 1)
            assert wait_for(lambda: all_parked(pool))
            assert pool.submit(lambda: "ok").result(timeout=5) == "ok"
            assert pool.submit(lambda: "ok", priority=True).result(timeout=5) == "ok"

    @pytest.mark.parametrize("wait", [True, False])
    def test_shutdown_joins_every_worker(self, wait):
        pool = WorkerPool(**DAEMON_SHAPE)
        assert wait_for(lambda: all_parked(pool))
        with pool._lock:
            threads = list(pool._threads)
        assert len(threads) == 10
        pool.shutdown(wait=wait)
        assert not any(thread.is_alive() for thread in threads)
        assert pool._threads == []
        assert pool.stats()["nWorkers"] == 0 and pool.stats()["prioWorkers"] == 0


@pytest.mark.stress
@pytest.mark.parametrize("round_", range(20))
def test_no_lost_wakeup_under_mixed_lane_producers(round_):
    """8 producers x 2 000 jobs on both lanes, more threads than cores
    and a short switch interval: a lost wake-up leaves a job queued with
    its workers parked, and its future never resolves."""
    producers, per_producer = 8, 2000
    futures = [[] for _ in range(producers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(**DAEMON_SHAPE) as pool:

            def produce(slot):
                for k in range(per_producer):
                    futures[slot].append(
                        pool.submit(lambda v=k: v, priority=(k + slot) % 3 == 0)
                    )

            threads = [threading.Thread(target=produce, args=(i,)) for i in range(producers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for made in futures:
                assert [f.result(timeout=30) for f in made] == list(range(per_producer))
            assert wait_for(lambda: all_parked(pool))
            assert pool.stats()["jobQueueDepth"] == 0
            assert wait_for(lambda: pool.jobs_completed == producers * per_producer)
    finally:
        sys.setswitchinterval(interval)
