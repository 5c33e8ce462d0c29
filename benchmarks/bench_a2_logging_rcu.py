"""Ablation A2 — read-copy-update logging reconfiguration.

Design choice under test: the logger publishes new filter sets as
complete immutable snapshots (RCU), so concurrent writers always see
either the full old or the full new configuration.  The ablation is
a lock-everything logger that mutates the filter list in place under
the emission lock, one filter at a time.

Two quantities: writer throughput while reconfiguration churns, and
whether any *torn* configuration is ever observed (a moment when only
part of a multi-filter set is applied).

Expected shape: RCU never exposes a torn set and sustains higher
writer throughput; the naive design exposes torn sets.
"""

import threading
import time

from repro.bench.tables import emit, format_table
from repro.util.virtlog import Logger, parse_filters

#: each configuration is a pair of filters that must be seen together
CONFIG_A = "1:alpha 1:beta"
CONFIG_B = "4:alpha 4:beta"
RUN_S = 0.25


class NaiveLogger(Logger):
    """The ablation: in-place, per-filter mutation under the emit lock."""

    def set_filters(self, text: str) -> None:
        new_filters = parse_filters(text)
        with self._emit_lock:
            snap = self._settings
            # tear window: drop the old set, then install one at a time
            snap_filters = []
            self._settings = type(snap)(snap.level, tuple(snap_filters), snap.outputs)
            for filt in new_filters:
                snap_filters.append(filt)
                self._settings = type(snap)(
                    snap.level, tuple(snap_filters), snap.outputs
                )
                # widen the race window the in-place mutation creates
                time.sleep(0)


def run_workload(logger_cls):
    """Returns (messages logged, torn observations) under churn."""
    logger = logger_cls(level=4)
    logger.set_filters(CONFIG_A)
    stop = threading.Event()
    logged = [0]
    torn = [0]

    def writer():
        while not stop.is_set():
            # one snapshot must always hold the complete two-filter set
            # at a single priority — anything else is a torn config
            snap = logger._settings
            priorities = {f.priority for f in snap.filters}
            matches = {f.match for f in snap.filters}
            if len(snap.filters) != 2 or len(priorities) != 1 or matches != {"alpha", "beta"}:
                torn[0] += 1
            logger.debug("alpha", "tick")
            logged[0] += 1

    def reconfigurer():
        flip = False
        while not stop.is_set():
            logger.set_filters(CONFIG_B if flip else CONFIG_A)
            flip = not flip

    writers = [threading.Thread(target=writer) for _ in range(3)]
    churn = threading.Thread(target=reconfigurer)
    for thread in writers:
        thread.start()
    churn.start()
    time.sleep(RUN_S)
    stop.set()
    for thread in writers + [churn]:
        thread.join()
    return logged[0], torn[0]


def collect():
    rcu_logged, rcu_torn = run_workload(Logger)
    # the tear is a race: accumulate runs until observed (bounded retries)
    naive_logged, naive_torn = 0, 0
    for _ in range(10):
        logged, torn = run_workload(NaiveLogger)
        naive_logged += logged
        naive_torn += torn
        if naive_torn:
            break
    return (rcu_logged, rcu_torn), (naive_logged, naive_torn)


def render(rcu, naive):
    return format_table(
        "Ablation A2: logging reconfiguration under concurrent writers "
        f"({RUN_S * 1e3:.0f} ms run, 3 writers)",
        ["configuration", "messages", "torn configs observed"],
        [
            ["RCU snapshot swap (libvirt fix)", rcu[0], rcu[1]],
            ["in-place mutation (ablation)", naive[0], naive[1]],
        ],
    )


def test_a2_logging_rcu(benchmark):
    rcu, naive = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit("a2_logging_rcu", render(rcu, naive))

    rcu_logged, rcu_torn = rcu
    naive_logged, naive_torn = naive
    # RCU never exposes a half-applied filter set
    assert rcu_torn == 0
    # the naive design does (that is exactly the bug RCU fixed)
    assert naive_torn > 0
    # and both actually did work
    assert rcu_logged > 100
    assert naive_logged > 100
