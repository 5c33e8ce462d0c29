"""E5 / Fig. 5 — daemon scalability: concurrent boot throughput.

Reproduces the paper's scalability measurement: a management station
asks one node to boot a fleet, and the daemon's workerpool determines
how much of the work overlaps.  Real threads execute the jobs against
a scaled wall clock, so modelled hypervisor latencies genuinely
overlap (or serialize) exactly as the worker count dictates.

Expected shape: makespan for N boots drops ~linearly with the worker
count while workers < N, then flattens — adding workers beyond the
offered load buys nothing.  For a fixed pool, total time grows
linearly in N.

The second half measures *RPC dispatch* concurrency on a single
connection: N slow calls pipelined through one channel must complete
in about one slow-call of modelled time when the server dispatches
through its workerpool (out-of-order replies), N× when dispatch is
synchronous, and ceil(N/window)× when the ``max_client_requests``
window throttles the connection.
"""

import time

import pytest

from repro.bench.tables import emit, format_series
from repro.bench.workloads import build_local_connection, guest_config
from repro.daemon.libvirtd import Libvirtd
from repro.rpc.client import RPCClient
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.util.clock import ScaledWallClock, VirtualClock
from repro.util.threadpool import WorkerPool

N_GUESTS = 32
WORKER_SWEEP = (1, 2, 4, 8, 16, 32, 64)
FLEET_SWEEP = (4, 8, 16, 32, 64)
SCALE = 2e-3  # one modelled second = 2 ms of real sleeping


def boot_fleet(worker_count, n_guests):
    """Makespan (modelled seconds) to boot ``n_guests`` with ``worker_count`` workers."""
    clock = ScaledWallClock(scale=SCALE)
    conn, _ = build_local_connection("kvm", clock=clock, cpus=64, memory_gib=256)
    domains = []
    for index in range(n_guests):
        config = guest_config("kvm", f"fleet{index:03d}", memory_gib=0.5)
        domains.append(conn.define_domain(config))
    pool = WorkerPool(min_workers=worker_count, max_workers=worker_count, name="bench")
    start = clock.now()
    futures = [pool.submit(domain.start) for domain in domains]
    for future in futures:
        future.result(timeout=120)
    makespan = clock.now() - start
    pool.shutdown()
    conn.close()
    return makespan


def collect():
    # best-of-2 per point: min is the standard noise-robust estimator
    # for wall-clock measurements on a shared machine
    by_workers = [
        min(boot_fleet(w, N_GUESTS) for _ in range(2)) for w in WORKER_SWEEP
    ]
    by_fleet = [min(boot_fleet(8, n) for _ in range(2)) for n in FLEET_SWEEP]
    return by_workers, by_fleet


def render(by_workers, by_fleet):
    text_a = format_series(
        f"Fig. 5a (reconstructed): makespan to boot {N_GUESTS} guests vs worker count",
        "workers",
        list(WORKER_SWEEP),
        {"makespan": [f"{v:.1f} s" for v in by_workers]},
    )
    text_b = format_series(
        "Fig. 5b (reconstructed): makespan vs fleet size (8 workers)",
        "guests",
        list(FLEET_SWEEP),
        {"makespan": [f"{v:.1f} s" for v in by_fleet]},
    )
    return text_a + "\n\n" + text_b


def test_e5_scalability(benchmark):
    by_workers, by_fleet = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit("e5_scalability", render(by_workers, by_fleet))

    # -- shape: near-linear speedup while workers < N ---------------------
    # (compare well-separated points; adjacent ones are wall-clock noisy)
    assert by_workers[0] > 1.25 * by_workers[1]  # 1 -> 2 workers
    assert by_workers[1] > 1.25 * by_workers[2]  # 2 -> 4 workers
    speedup_4 = by_workers[0] / by_workers[2]
    assert speedup_4 > 2.0  # 4 workers at least halve a serial run
    assert min(by_workers[3:]) < by_workers[2]  # more workers still help somewhere
    # -- shape: flattens once workers >= offered load ----------------------
    flat_ratio = by_workers[-2] / by_workers[-1]  # 32 vs 64 workers
    assert flat_ratio < 1.5
    # -- shape: linear in fleet size at fixed pool -------------------------
    assert by_fleet[-1] > 3.0 * by_fleet[1]  # 64 guests vs 8 guests, 8 workers
    # monotone growth, with 20% slack for wall-clock jitter at small sizes
    for earlier, later in zip(by_fleet, by_fleet[1:]):
        assert later > 0.8 * earlier


# -- concurrent RPC dispatch on one connection -----------------------------

N_SLOW_CALLS = 8
SLOW_CALL_SECONDS = 40.0
RPC_SCALE = 5e-3  # one modelled second = 5 ms of real sleeping


def _dispatch_pair(clock, pool, window=None):
    """One client channel against a slow-procedure server."""
    kwargs = {} if window is None else {"max_client_requests": window}
    server = RPCServer(pool=pool, **kwargs)
    server.register(
        "domain.save", lambda conn, body: clock.sleep(SLOW_CALL_SECONDS)
    )
    channel = Listener("unix", clock=clock).connect()
    server.attach(channel._server_conn)
    return RPCClient(channel)


def serial_dispatch_makespan(n_calls=N_SLOW_CALLS):
    """Synchronous dispatch: each slow call head-of-line-blocks the next.

    Virtual clock — the result is an exact function of the model."""
    clock = VirtualClock()
    client = _dispatch_pair(clock, pool=None)
    start = clock.now()
    for _ in range(n_calls):
        client.call("domain.save", timeout=3600.0)
    return clock.now() - start


def concurrent_dispatch_makespan(n_calls=N_SLOW_CALLS, window=None):
    """Pooled dispatch: n slow calls pipelined on ONE connection.

    Scaled wall clock — the handlers genuinely sleep in worker threads,
    so the makespan shows how much of the work truly overlapped."""
    clock = ScaledWallClock(scale=RPC_SCALE)
    pool = WorkerPool(min_workers=n_calls, max_workers=n_calls, name="rpcbench")
    # the default max_client_requests window would throttle the fully
    # concurrent measurement; open it to the offered load unless the
    # caller is measuring the window itself
    client = _dispatch_pair(clock, pool, window=window or n_calls)
    start = clock.now()
    handles = [
        client.call_async("domain.save", timeout=3600.0) for _ in range(n_calls)
    ]
    for handle in handles:
        handle.result()
    makespan = clock.now() - start
    pool.shutdown()
    return makespan


#: ``pool_handoff()`` on commit 0bd623f (one ``Condition``, ``notify_all()``
#: per submit): median of five runs on the box the committed report is from
PARENT_HANDOFF = (7.06, 53.5)


def pool_handoff(n_jobs=2000):
    """(worker wake-ups per job, wall us per ``submit().result()``) on a
    default ``Libvirtd``'s pool, one job at a time.

    Real time, informational: the frozen ``util.threadpool.handoff_us``
    probe runs a one-worker pool and cannot see a cost that scales with
    the number of parked workers."""
    daemon = Libvirtd(hostname="handoff", register=False)
    pool = daemon.pool
    wakeups = [0]

    def counted(wait):
        def wrapper(timeout=None):
            try:
                return wait(timeout)
            finally:
                wakeups[0] += 1

        return wrapper

    for cond in (pool._cond, pool._prio_cond):
        cond.wait = counted(cond.wait)
    pool.set_parameters()  # broadcast once: every worker re-parks in the counted wait
    time.sleep(0.05)
    for _ in range(n_jobs // 10):
        pool.submit(int).result()
    wakeups[0] = 0
    begin = time.perf_counter()
    for _ in range(n_jobs):
        pool.submit(int).result()
    elapsed = time.perf_counter() - begin
    time.sleep(0.05)  # let the herd (if any) finish waking before reading the count
    woken = wakeups[0]
    daemon.shutdown()
    return woken / n_jobs, elapsed / n_jobs * 1e6


def collect_dispatch():
    serial = serial_dispatch_makespan()
    concurrent = min(concurrent_dispatch_makespan() for _ in range(2))
    windowed = min(
        concurrent_dispatch_makespan(window=N_SLOW_CALLS // 4) for _ in range(2)
    )
    return serial, concurrent, windowed


def test_e5_concurrent_rpc_dispatch(benchmark):
    """N slow calls on one connection: ~1 slow-call of time with pooled
    dispatch, N× with synchronous dispatch — the tentpole measurement."""
    serial, concurrent, windowed = benchmark.pedantic(
        collect_dispatch, rounds=1, iterations=1
    )
    wakeups, handoff_us = pool_handoff()
    emit(
        "e5_concurrent_dispatch",
        format_series(
            f"RPC dispatch: {N_SLOW_CALLS} x {SLOW_CALL_SECONDS:.0f}s calls on one connection",
            "dispatch",
            ["serial", f"window={N_SLOW_CALLS // 4}", "concurrent"],
            {"makespan": [f"{v:.1f} s" for v in (serial, windowed, concurrent)]},
        )
        + "\n\npool hand-off, default libvirtd pool (5 ordinary + 5 priority workers parked),"
        + "\nreal time, informational: parent 0bd623f -> this code"
        + f"\nworker wake-ups per job     {PARENT_HANDOFF[0]:6.2f} -> {wakeups:6.2f}"
        + f"\nus per submit().result()    {PARENT_HANDOFF[1]:6.1f} -> {handoff_us:6.1f}",
    )
    # synchronous dispatch serializes: N slow calls cost ~N slow-calls
    assert serial > (N_SLOW_CALLS - 0.5) * SLOW_CALL_SECONDS
    # pooled dispatch overlaps them: ~1 slow-call of modelled time, not N x
    assert concurrent < 1.5 * SLOW_CALL_SECONDS
    assert serial / concurrent > N_SLOW_CALLS / 2
    # the in-flight window bounds concurrency: ceil(N/window) batches
    batches = N_SLOW_CALLS / (N_SLOW_CALLS // 4)
    assert windowed > (batches - 0.5) * SLOW_CALL_SECONDS
    assert windowed < (batches + 1.5) * SLOW_CALL_SECONDS


def test_e5_pool_grows_under_offered_load(benchmark):
    """The dynamic pool expands to its maximum under a burst of jobs."""

    def run():
        clock = ScaledWallClock(scale=SCALE)
        conn, _ = build_local_connection("kvm", clock=clock, cpus=64, memory_gib=256)
        domains = [
            conn.define_domain(guest_config("kvm", f"b{idx:02d}", memory_gib=0.5))
            for idx in range(12)
        ]
        pool = WorkerPool(min_workers=1, max_workers=8, name="burst")
        futures = [pool.submit(d.start) for d in domains]
        for future in futures:
            future.result(timeout=60)
        grown_to = pool.stats()["nWorkers"]
        pool.shutdown()
        conn.close()
        return grown_to

    grown_to = benchmark.pedantic(run, rounds=1, iterations=1)
    assert grown_to == 8
