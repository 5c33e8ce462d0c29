#!/usr/bin/env python3
"""Non-intrusive monitoring: stats, events, leases, daemon health.

The paper's monitoring story: everything below is observed through the
hypervisor-facing management interfaces — no agent inside any guest.
A small fleet runs on a remote daemon; the monitor samples per-guest
statistics (virt-top style), watches lifecycle events arrive as they
happen, reads the DHCP lease table, and checks daemon health through
the administration interface.

Run:  python examples/monitoring.py
"""

import repro
from repro.admin import admin_open
from repro.core import state_name
from repro.daemon import Libvirtd
from repro.util.clock import VirtualClock
from repro.util.units import format_size
from repro.xmlconfig.network import DHCPRange, IPConfig, NetworkConfig

GiB_KIB = 1024 * 1024


def main() -> None:
    clock = VirtualClock()
    daemon = Libvirtd(hostname="monnode", clock=clock)
    daemon.listen("tcp")
    daemon.enable_admin()
    conn = repro.open_connection("qemu+tcp://monnode/system")

    # a NATed network with DHCP, then three guests on it
    network = conn.define_network(
        NetworkConfig(
            name="default",
            ip=IPConfig("192.168.122.1", "255.255.255.0",
                        DHCPRange("192.168.122.2", "192.168.122.254")),
        )
    ).start()
    events = []
    conn.register_domain_event(
        lambda name, event, detail: events.append((clock.now(), name, event.name))
    )
    for name, mem_gib, vcpus in (("db1", 4, 4), ("web1", 1, 2), ("web2", 1, 2)):
        config = repro.DomainConfig(
            name=name,
            domain_type="kvm",
            memory_kib=mem_gib * GiB_KIB,
            vcpus=vcpus,
            interfaces=[repro.InterfaceDevice("network", "default")],
        )
        conn.define_domain(config).start()

    # let the fleet "run" for a modelled minute
    clock.advance(60.0)

    # -- virt-top style sample -------------------------------------------
    print(f"{'guest':<8}{'state':<10}{'cpu s':>8}{'mem':>10}{'disk r/w':>20}{'net rx/tx':>20}")
    print("-" * 76)
    for stats in conn.get_all_domain_stats():  # one call, the state is in the row
        print(
            f"{stats['name']:<8}{state_name(repro.DomainState(stats['state'])):<10}"
            f"{stats['cpu_seconds']:>8.1f}"
            f"{stats['memory_kib'] // 1024:>8} M"
            f"{format_size(stats['disk_read_bytes']):>11}/{format_size(stats['disk_write_bytes'])}"
            f"{format_size(stats['net_rx_bytes']):>11}/{format_size(stats['net_tx_bytes'])}"
        )

    # -- the DHCP lease table ----------------------------------------------
    print("\nDHCP leases on 'default':")
    for lease in network.dhcp_leases():
        print(f"  {lease['mac']}  {lease['ip']:<16} {lease['hostname']}")

    # -- lifecycle events seen so far ----------------------------------------
    print(f"\n{len(events)} lifecycle events, latest:")
    for stamp, name, kind in events[-3:]:
        print(f"  t={stamp:7.2f}s  {name}: {kind.lower()}")

    # -- daemon health via the administration interface ------------------------
    admin = admin_open("monnode")
    server = admin.lookup_server("libvirtd")
    pool = server.threadpool_info()
    clients = server.clients_info()
    print(
        f"\ndaemon health: {clients['nclients']}/{clients['nclients_max']} clients, "
        f"workerpool {pool['nWorkers']}/{pool['maxWorkers']} workers "
        f"({pool['jobQueueDepth']} queued)"
    )
    # a busy spell ahead: widen the pool at runtime, no restart
    server.set_threadpool(max_workers=40)
    print(f"raised maxWorkers to {server.threadpool_info()['maxWorkers']} at runtime")

    admin.close()
    conn.close()
    daemon.shutdown()


if __name__ == "__main__":
    main()
