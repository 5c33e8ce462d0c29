"""E3 / Fig. 3 — lifecycle operation latency: uniform API vs native.

The paper's central overhead measurement: the same lifecycle operation
issued (a) directly through the hypervisor's native control interface
and (b) through the uniform management API, on every hypervisor.

Two quantities are reported per (backend, operation):

* the *modelled* operation latency — identical on both paths by
  construction, proving the layer does not change what the hypervisor
  does (non-intrusiveness);
* the *management-layer CPU cost* — real wall-clock microseconds of
  Python the uniform path adds per operation, measured against the
  native path.

Expected shape: per-op latencies keep the backend ordering
(lxc ≪ kvm < xen < qemu-tcg for boot); the layer's added CPU cost is
microseconds against operations that take milliseconds to seconds —
the paper's "negligible overhead" claim.
"""

import time

import pytest

from repro.bench.tables import emit, format_table
from repro.bench.workloads import build_local_connection, guest_config
from repro.util.units import format_duration

OPS = ("start", "suspend", "resume", "shutdown", "destroy")
KINDS = ("kvm", "qemu", "xen", "lxc")
REPS = 40


def modelled_latencies_uniform(kind):
    """Per-op modelled latency through the uniform API."""
    conn, backend = build_local_connection(kind)
    clock = backend.clock
    dom = conn.define_domain(guest_config(kind))
    times = {}

    def timed(op, fn):
        t0 = clock.now()
        fn()
        times[op] = clock.now() - t0

    timed("start", dom.start)
    timed("suspend", dom.suspend)
    timed("resume", dom.resume)
    timed("shutdown", dom.shutdown)
    dom.start()
    timed("destroy", dom.destroy)
    conn.close()
    return times


def modelled_latencies_native(kind):
    """Per-op modelled latency via the native interface, no uniform layer."""
    _, backend = build_local_connection(kind)
    clock = backend.clock
    config = guest_config(kind)
    times = {}

    def timed(op, fn):
        t0 = clock.now()
        fn()
        times[op] = clock.now() - t0

    if kind in ("kvm", "qemu"):
        timed("start", lambda: backend.launch(config))
        monitor = backend.monitor(config.name)
        timed("suspend", lambda: monitor.execute("stop"))
        timed("resume", lambda: monitor.execute("cont"))
        timed("shutdown", lambda: monitor.execute("system_powerdown"))
        backend.launch(config)
        timed("destroy", lambda: backend.kill(config.name))
    elif kind == "xen":
        state = {}
        timed("start", lambda: state.update(
            backend.hypercall("domctl.createdomain", config=config)))
        domid = state["domid"]
        timed("suspend", lambda: backend.hypercall("domctl.pausedomain", domid=domid))
        timed("resume", lambda: backend.hypercall("domctl.unpausedomain", domid=domid))
        timed("shutdown", lambda: backend.hypercall(
            "domctl.shutdown", domid=domid, reason="poweroff"))
        domid = backend.hypercall("domctl.createdomain", config=config)["domid"]
        timed("destroy", lambda: backend.hypercall("domctl.destroydomain", domid=domid))
    else:  # lxc
        timed("start", lambda: backend.start_container(config))
        timed("suspend", lambda: backend.write_cgroup(config.name, "freezer.state", "FROZEN"))
        timed("resume", lambda: backend.write_cgroup(config.name, "freezer.state", "THAWED"))
        timed("shutdown", lambda: backend.stop_container(config.name))
        backend.start_container(config)
        timed("destroy", lambda: backend.kill_container(config.name))
    return times


def wall_cost_per_cycle_uniform(kind, reps=REPS):
    """Real CPU seconds per start/suspend/resume/destroy cycle, uniform path."""
    conn, _ = build_local_connection(kind)
    dom = conn.define_domain(guest_config(kind))
    t0 = time.perf_counter()
    for _ in range(reps):
        dom.start()
        dom.suspend()
        dom.resume()
        dom.destroy()
    elapsed = time.perf_counter() - t0
    conn.close()
    return elapsed / reps


def wall_cost_per_cycle_native(kind, reps=REPS):
    """Real CPU seconds per equivalent cycle via the native interface."""
    _, backend = build_local_connection(kind)
    config = guest_config(kind)
    t0 = time.perf_counter()
    for _ in range(reps):
        if kind in ("kvm", "qemu"):
            backend.launch(config)
            monitor = backend.monitor(config.name)
            monitor.execute("stop")
            monitor.execute("cont")
            backend.kill(config.name)
        elif kind == "xen":
            domid = backend.hypercall("domctl.createdomain", config=config)["domid"]
            backend.hypercall("domctl.pausedomain", domid=domid)
            backend.hypercall("domctl.unpausedomain", domid=domid)
            backend.hypercall("domctl.destroydomain", domid=domid)
        else:
            backend.start_container(config)
            backend.write_cgroup(config.name, "freezer.state", "FROZEN")
            backend.write_cgroup(config.name, "freezer.state", "THAWED")
            backend.kill_container(config.name)
    return (time.perf_counter() - t0) / reps


def collect():
    results = {}
    for kind in KINDS:
        results[kind] = {
            "uniform": modelled_latencies_uniform(kind),
            "native": modelled_latencies_native(kind),
            "wall_uniform": wall_cost_per_cycle_uniform(kind),
            "wall_native": wall_cost_per_cycle_native(kind),
        }
    return results


def render(results):
    rows = []
    for op in OPS:
        row = [op]
        for kind in KINDS:
            native = results[kind]["native"][op]
            uniform = results[kind]["uniform"][op]
            row.append(f"{format_duration(native)} / {format_duration(uniform)}")
        rows.append(row)
    overhead_row = ["layer CPU/cycle"]
    for kind in KINDS:
        added = results[kind]["wall_uniform"] - results[kind]["wall_native"]
        overhead_row.append(f"+{added * 1e6:.0f} us wall")
    rows.append(overhead_row)
    return format_table(
        "Fig. 3 (reconstructed): lifecycle latency, native / uniform API",
        ["operation"] + list(KINDS),
        rows,
    )


def test_e3_lifecycle_overhead(benchmark):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit("e3_lifecycle_overhead", render(results))

    for kind in KINDS:
        for op in OPS:
            native = results[kind]["native"][op]
            uniform = results[kind]["uniform"][op]
            # non-intrusiveness: the uniform layer adds no modelled time
            # beyond the native interface's own charges (define-time costs
            # are excluded from both paths)
            assert uniform == pytest.approx(native, rel=0.05), (kind, op)

    # backend ordering preserved through the uniform layer
    start = {kind: results[kind]["uniform"]["start"] for kind in KINDS}
    assert start["lxc"] < start["kvm"] < start["qemu"]
    assert start["kvm"] < start["xen"]

    # the layer's CPU cost is microseconds per whole cycle — "negligible"
    for kind in KINDS:
        added = results[kind]["wall_uniform"] - results[kind]["wall_native"]
        modelled_cycle = sum(
            results[kind]["uniform"][op] for op in ("start", "suspend", "resume", "destroy")
        )
        assert added < 0.01  # < 10 ms of real CPU per cycle
        # relative to what the hypervisor itself takes, well under 5%
        if kind != "lxc":
            assert added / modelled_cycle < 0.05


def test_e3_single_op_wall_cost(benchmark):
    """Micro-benchmark: one uniform suspend/resume pair on the mock driver
    (zero modelled latency → pure management-layer cost)."""
    conn, _ = build_local_connection("test")
    dom = conn.define_domain(guest_config("test")).start()

    def cycle():
        dom.suspend()
        dom.resume()

    benchmark(cycle)
    conn.close()
