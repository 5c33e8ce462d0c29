"""The closed-loop runner and the end-to-end statistics.

Management clients wait for each reply before sending the next request,
so every workload is a closed loop: ``workload.clients`` threads (at
most 2), one connection each.  A phase is cut into slices; the main
thread times the calibration loop between slices while every client is
parked on a barrier, so calibration never competes with the workload
for the interpreter lock.
"""

from __future__ import annotations

import statistics
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

import calibrate

#: length of one slice; calibration brackets it on both sides
SLICE_SECONDS = 0.5
#: latency quantiles are the median over this many equal parts of a run
SUBRUNS = 5
BARRIER_TIMEOUT = 120.0

_now = time.perf_counter_ns


class Phase:
    """What one measured phase produced."""

    def __init__(self, clients: int) -> None:
        self.clients = clients
        #: machine slowness before each slice, plus one after the last
        self.calibrations: List[float] = []
        #: per slice, per client: raw op durations in ns (correct ops only)
        self.samples: List[List[array]] = []
        #: perf_counter_ns at which each slice was released
        self.slice_starts: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def slice_calibrations(self) -> List[float]:
        """One figure per slice: the mean of its two bracketing passes."""
        cal = self.calibrations
        return [(cal[i] + cal[i + 1]) / 2.0 for i in range(len(self.samples))]


class Runner:
    """Drives one workload's clients through any number of phases."""

    def __init__(self, workload: Any, call: "Optional[Callable[[int, int], Any]]" = None) -> None:
        self.workload = workload
        #: how an op is invoked (read at each slice start); the traced run
        #: and the allocation count substitute recording wrappers
        self.call = call or workload.op
        self.next_k = [0] * workload.clients
        self._barrier = threading.Barrier(workload.clients + 1, timeout=BARRIER_TIMEOUT)
        self._deadline = 0
        self._stop = False
        self._phase: Optional[Phase] = None
        self._slot: List[Any] = [None] * workload.clients
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._client_loop, args=(ci,), name=f"perf-client-{ci}", daemon=True)
            for ci in range(workload.clients)
        ]
        for thread in self._threads:
            thread.start()

    def _client_loop(self, ci: int) -> None:
        workload = self.workload
        while True:
            self._barrier.wait()
            if self._stop:
                return
            phase, deadline, call = self._phase, self._deadline, self.call
            samples = array("q")
            k = self.next_k[ci]
            while True:
                failure = ""
                t0 = _now()
                try:
                    result = call(ci, k)
                    t1 = _now()
                    # a malformed reply makes the check itself raise: counted too
                    if not workload.check(ci, k, result):
                        failure = f"op {k} failed its output check"
                except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                    failure = f"op {k} raised {exc!r}"
                k += 1
                if not failure:
                    samples.append(t1 - t0)
                else:
                    with self._lock:
                        phase.failed += 1
                        if len(phase.failures) < 5:
                            phase.failures.append(f"client {ci}: {failure}")
                if _now() >= deadline:
                    break
            with self._lock:
                phase.attempted += k - self.next_k[ci]
            self.next_k[ci] = k
            self._slot[ci] = samples
            self._barrier.wait()

    def run(self, seconds: float, until: "Optional[Callable[[], bool]]" = None) -> Phase:
        """Measure for ``seconds`` (calibration included), or until
        ``until()`` turns true at a slice boundary."""
        phase = Phase(self.workload.clients)
        self._phase = phase
        end = _now() + int(seconds * 1e9)
        phase.calibrations.append(calibrate.calibrate())
        while True:
            self._deadline = min(_now() + int(SLICE_SECONDS * 1e9), end)
            phase.slice_starts.append(_now())
            self._barrier.wait()  # release the clients into the slice
            self._barrier.wait()  # every client finished the slice
            phase.samples.append(list(self._slot))
            phase.calibrations.append(calibrate.calibrate())
            if _now() >= end or (until is not None and until()):
                return phase

    def close(self) -> None:
        self._stop = True
        self._barrier.wait()
        for thread in self._threads:
            thread.join(timeout=BARRIER_TIMEOUT)


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def latency_summary(phase: Phase) -> Dict[str, Any]:
    """Normalised and raw latency/throughput figures of one phase."""
    per_slice = phase.slice_calibrations()
    usable = calibrate.usable_slices(per_slice)
    slices: List[List[float]] = []
    for ok, cal, by_client in zip(usable, per_slice, phase.samples):
        scale = calibrate.factor(cal)
        normalised = [s * scale for samples in by_client for s in samples]
        if ok and normalised:
            slices.append(normalised)
    # A quantile is taken in each fifth of the run and the median fifth
    # reported: a disturbed stretch (a busy neighbour, a slow fsync) then
    # moves one of five values, where it would move a pooled p99 outright.
    parts = min(SUBRUNS, len(slices))
    p50s, p99s, beyond = [], [], []
    for i in range(parts):
        part = slices[i * len(slices) // parts:(i + 1) * len(slices) // parts]
        pooled = sorted(s for sl in part for s in sl)
        p50s.append(quantile(pooled, 0.50))
        p99s.append(quantile(pooled, 0.99))
        beyond.append(len(pooled) - 1 - min(len(pooled) - 1, int(0.99 * len(pooled))))
    count = sum(len(sl) for sl in slices)
    raw = sorted(s for by_client in phase.samples for samples in by_client for s in samples)
    return {
        "samples": count,
        "slices": len(phase.samples),
        "slices_discarded": usable.count(False),
        # closed loop: every client is busy all the time, so the system
        # completes clients/mean-latency ops per second; the mean is taken
        # per slice and the median slice reported, for the same reason
        "throughput_norm": phase.clients * 1e9 / statistics.median(sum(sl) / len(sl) for sl in slices),
        "latency_p50_us_norm": statistics.median(p50s) / 1e3,
        "latency_p99_us_norm": statistics.median(p99s) / 1e3,
        "p99_samples_beyond": sum(beyond),
        "raw_throughput": len(raw) * phase.clients / (sum(raw) / 1e9),
        "raw_latency_p50_us": quantile(raw, 0.50) / 1e3,
        "raw_latency_p99_us": quantile(raw, 0.99) / 1e3,
    }
