"""Ablation A4 — placement strategy comparison.

The management layer's value includes *deciding* where guests run.
This bench places the same 24-guest workload with each strategy and
reports (a) how many hosts end up used (packing density) and (b) how
evenly load spreads (max/min utilization ratio).

Expected shape: best-fit uses the fewest hosts; balanced yields the
most even spread; first-fit sits in between on both axes.
"""

from repro.bench.tables import emit, format_table
from repro.core.connection import Connection
from repro.core.uri import ConnectionURI
from repro.drivers.qemu import QemuDriver
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.placement.strategies import STRATEGIES
from repro.util.clock import VirtualClock
from repro.xmlconfig.domain import DomainConfig

GiB_KIB = 1024 * 1024
N_HOSTS = 8
HOST_GIB = 16
#: a mixed workload: a few large guests, many small ones (24 total)
WORKLOAD_GIB = [4, 4, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 4, 1, 1, 2, 1, 1]


def build_hosts():
    clock = VirtualClock()
    connections = []
    for index in range(N_HOSTS):
        host = SimHost(
            hostname=f"p{index}", cpus=32, memory_kib=HOST_GIB * GiB_KIB, clock=clock
        )
        driver = QemuDriver(QemuBackend(host=host, clock=clock))
        connections.append(
            Connection(driver, ConnectionURI.parse(f"qemu://p{index}/system"))
        )
    return connections


def run_strategy(name):
    connections = build_hosts()
    strategy = STRATEGIES[name]
    placements = strategy.place_all(
        connections, [gib * GiB_KIB for gib in WORKLOAD_GIB]
    )
    for index, (conn, gib) in enumerate(zip(placements, WORKLOAD_GIB)):
        config = DomainConfig(
            name=f"w{index:02d}",
            domain_type="kvm",
            memory_kib=gib * GiB_KIB,
            vcpus=max(1, gib // 2),
        )
        conn.define_domain(config).start()
    import statistics

    utilizations = []
    used_hosts = 0
    for conn in connections:
        host = conn._driver.backend.host
        if host.guest_count:
            used_hosts += 1
        utilizations.append(host.used_memory_kib / host.allocatable_kib)
    return {
        "hosts_used": used_hosts,
        "stddev": statistics.pstdev(utilizations),
    }


def collect():
    return {name: run_strategy(name) for name in ("first-fit", "best-fit", "balanced")}


def render(results):
    rows = [
        [name, data["hosts_used"], f"{data['stddev']:.3f}"]
        for name, data in results.items()
    ]
    return format_table(
        f"Ablation A4: placing {len(WORKLOAD_GIB)} guests "
        f"({sum(WORKLOAD_GIB)} GiB) on {N_HOSTS} x {HOST_GIB} GiB hosts",
        ["strategy", "hosts used", "load stddev (all hosts)"],
        rows,
    )


def test_a4_placement_strategies(benchmark):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit("a4_placement", render(results))

    # packing strategies use far fewer hosts than spreading
    assert results["best-fit"]["hosts_used"] <= results["first-fit"]["hosts_used"]
    assert results["best-fit"]["hosts_used"] < results["balanced"]["hosts_used"]
    # balanced yields the most even load across the whole pool
    assert results["balanced"]["stddev"] < results["best-fit"]["stddev"]
    assert results["balanced"]["stddev"] < results["first-fit"]["stddev"]
    # everything fits with every strategy (no PlacementError escaped)
    for data in results.values():
        assert data["hosts_used"] <= N_HOSTS
