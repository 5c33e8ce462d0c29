"""``pyvirsh`` — the virsh-like command-line client.

A thin, scriptable shell over the public API: the same commands work
against any connection URI, which is the uniform-management story in
its most visible form::

    pyvirsh -c test:///default list --all
    pyvirsh -c qemu:///system define guest.xml
    pyvirsh -c qemu+tcp://node7/system start web1
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence, TextIO

import repro
from repro.core.states import state_name
from repro.errors import VirtError
from repro.util.units import format_size
from repro.xmlconfig.storage import VolumeConfig

DEFAULT_URI = "test:///default"


def _print_table(out: TextIO, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(header_line, file=out)
    print("-" * len(header_line), file=out)
    for row in rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)), file=out)


def _read_xml(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


# -- command implementations ------------------------------------------------


def cmd_list(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    if args.all:
        active: "Optional[bool]" = None
    elif args.inactive:
        active = False
    else:
        active = True
    rows = []
    for domain in conn.list_domains(active=active):
        dom_id = domain.id
        rows.append((dom_id if dom_id is not None else "-", domain.name, domain.state_text()))
    _print_table(out, ("Id", "Name", "State"), rows)
    return 0


def cmd_define(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.define_domain(_read_xml(args.file))
    print(f"Domain {domain.name} defined", file=out)
    return 0


def cmd_create(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.create_domain(_read_xml(args.file))
    print(f"Domain {domain.name} created (transient)", file=out)
    return 0


def _simple_domain_op(verb: str, method: str, message: str):
    def run(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
        domain = conn.lookup_domain(args.domain)
        getattr(domain, method)()
        print(message.format(name=args.domain), file=out)
        return 0

    run.__name__ = f"cmd_{verb}"
    return run


cmd_start = _simple_domain_op("start", "start", "Domain {name} started")
cmd_shutdown = _simple_domain_op("shutdown", "shutdown", "Domain {name} is being shutdown")
cmd_destroy = _simple_domain_op("destroy", "destroy", "Domain {name} destroyed")
cmd_suspend = _simple_domain_op("suspend", "suspend", "Domain {name} suspended")
cmd_resume = _simple_domain_op("resume", "resume", "Domain {name} resumed")
cmd_reboot = _simple_domain_op("reboot", "reboot", "Domain {name} is being rebooted")
cmd_undefine = _simple_domain_op("undefine", "undefine", "Domain {name} has been undefined")


def cmd_dominfo(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.lookup_domain(args.domain)
    info = domain.info()
    fields = [
        ("Name", domain.name),
        ("UUID", domain.uuid),
        ("Id", domain.id if domain.id is not None else "-"),
        ("State", state_name(info.state)),
        ("CPU(s)", info.vcpus),
        ("CPU time", f"{info.cpu_seconds:.1f}s"),
        ("Max memory", f"{info.max_memory_kib} KiB"),
        ("Used memory", f"{info.memory_kib} KiB"),
        ("Persistent", "yes" if domain.persistent else "no"),
        ("Autostart", "enable" if domain.autostart else "disable"),
    ]
    for label, value in fields:
        print(f"{label + ':':<16}{value}", file=out)
    return 0


def cmd_domstate(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.lookup_domain(args.domain).state_text(), file=out)
    return 0


def cmd_dumpxml(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.lookup_domain(args.domain).xml_desc(), file=out)
    return 0


def cmd_schedinfo(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.lookup_domain(args.domain)
    updates = {}
    for field in ("cpu_shares", "vcpu_period", "vcpu_quota"):
        value = getattr(args, field)
        if value is not None:
            updates[field] = value
    if updates:
        domain.set_scheduler_params(**updates)
    for field, value in domain.scheduler_params().items():
        print(f"{field + ':':<15}{value}", file=out)
    return 0


def cmd_domjobinfo(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    info = conn.lookup_domain(args.domain).job_info()
    if info.get("type") == "none":
        print("No job", file=out)
        return 0
    for key, value in info.items():
        print(f"{key + ':':<20}{value}", file=out)
    return 0


def cmd_setmem(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).set_memory(args.kib)
    print(f"Domain {args.domain} memory set to {args.kib} KiB", file=out)
    return 0


def cmd_setvcpus(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).set_vcpus(args.count)
    print(f"Domain {args.domain} vcpus set to {args.count}", file=out)
    return 0


def cmd_save(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).save(args.file)
    print(f"Domain {args.domain} saved to {args.file}", file=out)
    return 0


def cmd_restore(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.restore_domain(args.file)
    print(f"Domain {domain.name} restored from {args.file}", file=out)
    return 0


def cmd_autostart(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.lookup_domain(args.domain)
    domain.autostart = not args.disable
    verb = "unmarked as" if args.disable else "marked as"
    print(f"Domain {args.domain} {verb} autostarted", file=out)
    return 0


def cmd_migrate(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.lookup_domain(args.domain)
    if args.p2p:
        result = domain.migrate_to_uri(args.desturi, live=not args.offline)
        stats = result["stats"]
    else:
        dest = repro.open_connection(args.desturi)
        try:
            moved = domain.migrate(
                dest,
                live=not args.offline,
                auto_converge=args.auto_converge,
                post_copy=args.postcopy,
            )
            stats = moved.last_migration_stats
        finally:
            dest.close()
    mode = " via post-copy" if stats.get("post_copy") else ""
    print(
        f"Domain {args.domain} migrated to {args.desturi}{mode} "
        f"(total {stats['total_time_s']:.3f}s, "
        f"downtime {stats['downtime_s'] * 1000:.1f}ms, "
        f"{stats['rounds']} rounds)",
        file=out,
    )
    return 0


# -- fleet commands ----------------------------------------------------------


def _open_fleet(args: argparse.Namespace):
    from repro.fleet import FleetManager

    return FleetManager(args.hosts)


def cmd_fleet_status(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    with _open_fleet(args) as fleet:
        fleet.health_check()
        rows = []
        for row in fleet.fleet_status():
            if row["healthy"]:
                rows.append((
                    row["hostname"], "yes", row["domains"],
                    format_size(row["memory_kib"] * 1024),
                    format_size(row["free_memory_kib"] * 1024), row["uri"],
                ))
            else:
                rows.append((row["hostname"], "no", "-", "-", "-", row["uri"]))
        _print_table(
            out, ("Host", "Healthy", "Domains", "Memory", "Free", "URI"), rows
        )
    return 0


def cmd_fleet_drain(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    from repro.fleet import FleetOrchestrator

    with _open_fleet(args) as fleet:
        orchestrator = FleetOrchestrator(
            fleet,
            strategy=args.strategy,
            max_parallel=args.max_parallel,
            link_bandwidth_mib_s=args.bandwidth,
        )
        report = orchestrator.drain_host(args.host)
        rows = [
            (
                o.name,
                o.dest if o.ok else "-",
                "ok" if o.ok else f"FAILED: {o.error}",
                f"{o.total_time_s:.3f}s",
                o.rounds,
                "post-copy" if o.post_copy else "pre-copy",
            )
            for o in report.outcomes
        ]
        _print_table(out, ("Domain", "Destination", "Result", "Time", "Rounds", "Mode"), rows)
        for name in report.unplaced:
            print(f"unplaced: {name} (no destination has room)", file=out)
        print(
            f"Drained {report.migrated}/{len(report.outcomes)} domains off "
            f"{args.host} in {report.waves} waves "
            f"(makespan {report.makespan_s:.1f}s modelled, "
            f"{report.postcopy_count} via post-copy)",
            file=out,
        )
    return 0 if not report.failed else 1


def cmd_fleet_stats(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    """Fleet-wide observability rollup: health scores, federated metric
    aggregates, and per-procedure latency SLO compliance."""
    from repro.observability.fleet import FleetScraper

    with _open_fleet(args) as fleet:
        scraper = FleetScraper(fleet)
        scores = scraper.health_scores(rescrape=True)
        rollup = scraper.rollups(rescrape=False)
        _print_table(
            out,
            ("Host", "Score", "Healthy", "Freshness", "Connectivity", "Saturation"),
            [
                (
                    hostname,
                    f"{score.score:.2f}",
                    "yes" if score.healthy else "NO",
                    f"{score.components.get('freshness', 0.0):.2f}",
                    f"{score.components.get('connectivity', 0.0):.2f}",
                    f"{score.components.get('saturation', 0.0):.2f}",
                )
                for hostname, score in sorted(scores.items())
            ],
        )
        print(
            f"Fleet: {rollup['scraped']}/{rollup['hosts']} hosts scraped, "
            f"memory utilization {rollup['utilization'] * 100:.1f}%",
            file=out,
        )
        if args.slo:
            rows = scraper.slo_report(rescrape=False)
            _print_table(
                out,
                ("Procedure", "Calls", "Target", "Compliance", "Burn", "p99", "Met"),
                [
                    (
                        r["procedure"],
                        f"{r['calls']:.0f}",
                        f"{r['target_s'] * 1000:.0f}ms",
                        f"{r['compliance'] * 100:.2f}%",
                        f"{r['burn_rate']:.2f}",
                        f"{r['p99_s'] * 1000:.2f}ms",
                        "yes" if r["met"] else "NO",
                    )
                    for r in rows
                ],
            )
        if args.metric:
            for name in args.metric:
                agg = rollup["metrics"].get(name)
                if agg is None:
                    print(f"{name}: no samples fleet-wide", file=out)
                    continue
                parts = ", ".join(f"{k}={v:.6g}" for k, v in sorted(agg.items()))
                print(f"{name}: {parts}", file=out)
    return 0


def cmd_fleet_rebalance(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    from repro.fleet import FleetOrchestrator

    with _open_fleet(args) as fleet:
        orchestrator = FleetOrchestrator(fleet, strategy=args.strategy)
        report = orchestrator.rebalance(
            max_moves=args.max_moves, threshold=args.threshold
        )
        for move in report.moves:
            status = "ok" if move.ok else f"FAILED: {move.error}"
            print(f"{move.name}: {move.source} -> {move.dest} ({status})", file=out)
        print(
            f"Rebalanced with {len(report.moves)} moves "
            f"(spread {report.imbalance_before:.2f} -> {report.imbalance_after:.2f})",
            file=out,
        )
    return 0


_DOMSTATS_KEYS = (
    "name",
    "state",
    "cpu_seconds",
    "vcpus",
    "memory_kib",
    "max_memory_kib",
    "disk_read_bytes",
    "disk_write_bytes",
    "net_rx_bytes",
    "net_tx_bytes",
)


def cmd_domstats(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    if args.domain is not None:
        blocks = [conn.lookup_domain(args.domain).get_stats()]
    else:
        # no domain named: report every active domain (virsh domstats)
        blocks = conn.get_all_domain_stats()
    for index, stats in enumerate(blocks):
        if index:
            print(file=out)
        for key in _DOMSTATS_KEYS:
            print(f"{key + ':':<18}{stats[key]}", file=out)
    return 0


def cmd_snapshot_create(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).create_snapshot(args.name)
    print(f"Domain snapshot {args.name} created", file=out)
    return 0


def cmd_snapshot_list(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    names = conn.lookup_domain(args.domain).list_snapshots()
    _print_table(out, ("Name",), [(n,) for n in names])
    return 0


def cmd_snapshot_revert(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).revert_to_snapshot(args.name)
    print(f"Domain {args.domain} reverted to snapshot {args.name}", file=out)
    return 0


def cmd_snapshot_delete(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).delete_snapshot(args.name)
    print(f"Domain snapshot {args.name} deleted", file=out)
    return 0


def cmd_checkpoint_create(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).create_checkpoint(args.name)
    print(f"Domain checkpoint {args.name} created", file=out)
    return 0


def cmd_checkpoint_list(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    names = conn.lookup_domain(args.domain).list_checkpoints()
    _print_table(out, ("Name",), [(n,) for n in names])
    return 0


def cmd_checkpoint_delete(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).delete_checkpoint(args.name)
    print(f"Domain checkpoint {args.name} deleted", file=out)
    return 0


def cmd_checkpoint_dumpxml(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.lookup_domain(args.domain).checkpoint_xml_desc(args.name), file=out)
    return 0


def cmd_backup_begin(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    domain = conn.lookup_domain(args.domain)
    if args.pull:
        # pull mode: the dirty blocks come to us over a stream instead
        # of being pushed into a pool volume by the daemon
        result = domain.backup_pull(incremental=args.incremental)
        blocks = sum(len(b) for b in result["disks"].values())
        mode = "incremental" if result.get("incremental") else "full"
        print(
            f"Backup pulled ({mode}): {blocks} blocks, "
            f"{result['total_bytes']} bytes from {len(result['disks'])} disk(s)",
            file=out,
        )
        if args.file:
            with open(args.file, "wb") as handle:
                handle.write(result["data"])
            print(f"Payload written to {args.file}", file=out)
        return 0
    if not args.pool:
        print("error: backup-begin requires --pool (or --pull)", file=sys.stderr)
        return 1
    job = domain.backup_begin(
        args.pool,
        incremental=args.incremental,
        checkpoint=args.checkpoint,
        volume=args.volume,
        bandwidth_mib_s=args.bandwidth,
    )
    print(f"Backup started (job {job['job_id']}, {job['operation']})", file=out)
    return 0


def cmd_domjobabort(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).abort_job()
    print(f"Domain {args.domain} job aborted", file=out)
    return 0


def cmd_managedsave(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).managed_save()
    print(f"Domain {args.domain} state saved by libvirt", file=out)
    return 0


def cmd_managedsave_remove(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_domain(args.domain).managed_save_remove()
    print(f"Removed managedsave image for domain {args.domain}", file=out)
    return 0


def cmd_event(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    """Stream pushed event records (``virsh event --loop``)."""
    import threading

    target = None if args.loop and args.count is None else (args.count or 1)
    state = {"seen": 0}
    done = threading.Event()

    def on_record(record: dict) -> None:
        if args.domain and record.get("domain") != args.domain:
            return
        state["seen"] += 1
        subject = record.get("domain") or record.get("detail") or "-"
        line = f"event '{record['kind']}/{record['event']}' for {subject}"
        detail = record.get("detail", "")
        if record.get("domain") and detail:
            line += f": {detail}"
        print(line, file=out)
        if target is not None and state["seen"] >= target:
            done.set()

    sub_id = conn.subscribe_events(on_record, kinds=args.kind or None)
    try:
        done.wait(args.timeout)
    finally:
        conn.unsubscribe_events(sub_id)
    print(f"events received: {state['seen']}", file=out)
    return 0


def cmd_hostname(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.hostname(), file=out)
    return 0


def cmd_uri(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.uri, file=out)
    return 0


def cmd_version(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print("pyvirsh %s (library %s)" % (repro.__version__, ".".join(map(str, conn.version()))), file=out)
    return 0


def cmd_nodeinfo(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    info = conn.node_info()
    print(f"{'CPU(s):':<20}{info['cpus']}", file=out)
    print(f"{'CPU MHz:':<20}{info['mhz']}", file=out)
    print(f"{'Memory size:':<20}{info['memory_kib']} KiB", file=out)
    print(f"{'Free memory:':<20}{info['free_memory_kib']} KiB", file=out)
    print(f"{'Guests:':<20}{info['guests']}", file=out)
    return 0


def cmd_capabilities(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.capabilities().to_xml(), file=out)
    return 0


def cmd_net_list(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    rows = [
        (n.name, "active" if n.is_active else "inactive", n.bridge)
        for n in conn.list_networks()
    ]
    _print_table(out, ("Name", "State", "Bridge"), rows)
    return 0


def cmd_net_define(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    net = conn.define_network(_read_xml(args.file))
    print(f"Network {net.name} defined", file=out)
    return 0


def _simple_net_op(verb: str, method: str, message: str):
    def run(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
        getattr(conn.lookup_network(args.network), method)()
        print(message.format(name=args.network), file=out)
        return 0

    run.__name__ = f"cmd_net_{verb}"
    return run


cmd_net_start = _simple_net_op("start", "start", "Network {name} started")
cmd_net_destroy = _simple_net_op("destroy", "destroy", "Network {name} destroyed")
cmd_net_undefine = _simple_net_op("undefine", "undefine", "Network {name} has been undefined")


def cmd_net_dumpxml(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    print(conn.lookup_network(args.network).xml_desc(), file=out)
    return 0


def cmd_net_dhcp_leases(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    leases = conn.lookup_network(args.network).dhcp_leases()
    rows = [(l["mac"], l["ip"], l["hostname"]) for l in leases]
    _print_table(out, ("MAC address", "IP address", "Hostname"), rows)
    return 0


def cmd_pool_list(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    rows = [
        (p.name, "active" if p.is_active else "inactive")
        for p in conn.list_storage_pools()
    ]
    _print_table(out, ("Name", "State"), rows)
    return 0


def cmd_pool_define(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    pool = conn.define_storage_pool(_read_xml(args.file))
    print(f"Pool {pool.name} defined", file=out)
    return 0


def _simple_pool_op(verb: str, method: str, message: str):
    def run(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
        getattr(conn.lookup_storage_pool(args.pool), method)()
        print(message.format(name=args.pool), file=out)
        return 0

    run.__name__ = f"cmd_pool_{verb}"
    return run


cmd_pool_start = _simple_pool_op("start", "start", "Pool {name} started")
cmd_pool_destroy = _simple_pool_op("destroy", "destroy", "Pool {name} destroyed")
cmd_pool_undefine = _simple_pool_op("undefine", "undefine", "Pool {name} has been undefined")


def cmd_pool_info(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    info = conn.lookup_storage_pool(args.pool).info()
    print(f"{'State:':<14}{'running' if info.active else 'inactive'}", file=out)
    print(f"{'Capacity:':<14}{format_size(info.capacity_bytes)}", file=out)
    print(f"{'Allocation:':<14}{format_size(info.allocation_bytes)}", file=out)
    print(f"{'Available:':<14}{format_size(info.available_bytes)}", file=out)
    return 0


def cmd_vol_list(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    pool = conn.lookup_storage_pool(args.pool)
    rows = [(v.name, v.info().path) for v in pool.list_volumes()]
    _print_table(out, ("Name", "Path"), rows)
    return 0


def cmd_vol_create_as(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    pool = conn.lookup_storage_pool(args.pool)
    from repro.util.units import parse_size

    config = VolumeConfig(args.name, parse_size(args.capacity), volume_format=args.format)
    pool.create_volume(config)
    print(f"Vol {args.name} created", file=out)
    return 0


def cmd_vol_delete(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    conn.lookup_storage_pool(args.pool).lookup_volume(args.name).delete()
    print(f"Vol {args.name} deleted", file=out)
    return 0


def cmd_vol_upload(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    """``virsh vol-upload``: stream a local file into a volume."""
    if args.file == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.file, "rb") as handle:
            data = handle.read()
    volume = conn.lookup_storage_pool(args.pool).lookup_volume(args.name)
    info = volume.upload(data, offset=args.offset)
    print(
        f"Vol {args.name}: uploaded {len(data)} bytes at offset {args.offset} "
        f"(allocation now {format_size(info.allocation_bytes)})",
        file=out,
    )
    return 0


def cmd_vol_download(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    """``virsh vol-download``: stream a volume into a local file."""
    volume = conn.lookup_storage_pool(args.pool).lookup_volume(args.name)
    data = volume.download(offset=args.offset, length=args.length)
    if args.file == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(args.file, "wb") as handle:
            handle.write(data)
    print(f"Vol {args.name}: downloaded {len(data)} bytes to {args.file}", file=out)
    return 0


def cmd_console(conn: repro.Connection, args: argparse.Namespace, out: TextIO) -> int:
    """``virsh console`` (non-interactive): print the banner, optionally
    send one line and print what the guest echoes back."""
    console = conn.lookup_domain(args.domain).open_console()
    try:
        banner = console.recv()
        if banner:
            out.write(banner.decode("utf-8", "replace"))
        if args.send is not None:
            console.send(args.send.encode("utf-8") + b"\n")
            while True:
                chunk = console.recv()
                if not chunk:
                    break
                out.write(chunk.decode("utf-8", "replace"))
    finally:
        console.close()
    return 0


# -- argument parsing ----------------------------------------------------------

CommandFn = Callable[[repro.Connection, argparse.Namespace, TextIO], int]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyvirsh", description="virsh-like client for the pyvirt library"
    )
    parser.add_argument(
        "-c",
        "--connect",
        default=DEFAULT_URI,
        metavar="URI",
        help=f"connection URI (default {DEFAULT_URI})",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, fn: CommandFn, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("list", cmd_list, "list domains")
    p.add_argument("--all", action="store_true")
    p.add_argument("--inactive", action="store_true")
    add("define", cmd_define, "define a domain from XML").add_argument("file")
    add("create", cmd_create, "create a transient domain from XML").add_argument("file")
    for name, fn in (
        ("start", cmd_start),
        ("shutdown", cmd_shutdown),
        ("destroy", cmd_destroy),
        ("suspend", cmd_suspend),
        ("resume", cmd_resume),
        ("reboot", cmd_reboot),
        ("undefine", cmd_undefine),
        ("dominfo", cmd_dominfo),
        ("domstate", cmd_domstate),
        ("dumpxml", cmd_dumpxml),
    ):
        add(name, fn, f"{name} a domain").add_argument("domain")
    p = add("domstats", cmd_domstats, "domain stats (all active domains by default)")
    p.add_argument("domain", nargs="?", default=None)
    p = add("schedinfo", cmd_schedinfo, "show/set scheduler parameters")
    p.add_argument("domain")
    p.add_argument("--cpu-shares", dest="cpu_shares", type=int)
    p.add_argument("--vcpu-period", dest="vcpu_period", type=int)
    p.add_argument("--vcpu-quota", dest="vcpu_quota", type=int)
    add("domjobinfo", cmd_domjobinfo, "show the domain's last job").add_argument("domain")
    p = add("setmem", cmd_setmem, "change domain memory")
    p.add_argument("domain")
    p.add_argument("kib", type=int)
    p = add("setvcpus", cmd_setvcpus, "change domain vcpu count")
    p.add_argument("domain")
    p.add_argument("count", type=int)
    p = add("save", cmd_save, "save domain state to a file")
    p.add_argument("domain")
    p.add_argument("file")
    add("restore", cmd_restore, "restore a domain from a state file").add_argument("file")
    p = add("autostart", cmd_autostart, "toggle domain autostart")
    p.add_argument("domain")
    p.add_argument("--disable", action="store_true")
    p = add("migrate", cmd_migrate, "migrate a domain to another host")
    p.add_argument("domain")
    p.add_argument("desturi")
    p.add_argument("--offline", action="store_true")
    p.add_argument("--p2p", action="store_true", help="peer-to-peer mode")
    p.add_argument("--auto-converge", action="store_true",
                   help="throttle the guest when copy rounds stall")
    p.add_argument("--postcopy", action="store_true",
                   help="switch to post-copy instead of blowing the downtime budget")

    def add_fleet(name: str, fn: CommandFn, help_text: str) -> argparse.ArgumentParser:
        p = add(name, fn, help_text)
        p.add_argument("--hosts", nargs="+", required=True, metavar="URI",
                       help="daemon URIs making up the fleet")
        return p

    add_fleet("fleet-status", cmd_fleet_status, "health and capacity of every fleet host")
    p = add_fleet("fleet-drain", cmd_fleet_drain, "live-migrate every guest off a host")
    p.add_argument("host")
    p.add_argument("--strategy", default="balanced")
    p.add_argument("--max-parallel", type=int, default=4)
    p.add_argument("--bandwidth", type=float, default=1024.0,
                   metavar="MIB_S", help="maintenance link bandwidth shared per wave")
    p = add_fleet("fleet-stats", cmd_fleet_stats,
                  "fleet-wide health scores, metric rollups and SLO compliance")
    p.add_argument("--slo", action="store_true",
                   help="show per-procedure latency SLO compliance")
    p.add_argument("--metric", action="append", metavar="NAME",
                   help="print the fleet-wide rollup of one metric family")
    p = add_fleet("fleet-rebalance", cmd_fleet_rebalance,
                  "migrate guests off overloaded hosts toward the fleet mean")
    p.add_argument("--strategy", default="balanced")
    p.add_argument("--max-moves", type=int, default=8)
    p.add_argument("--threshold", type=float, default=0.10)
    p = add("snapshot-create-as", cmd_snapshot_create, "create a named snapshot")
    p.add_argument("domain")
    p.add_argument("name")
    add("snapshot-list", cmd_snapshot_list, "list snapshots").add_argument("domain")
    p = add("snapshot-revert", cmd_snapshot_revert, "revert to a snapshot")
    p.add_argument("domain")
    p.add_argument("name")
    p = add("snapshot-delete", cmd_snapshot_delete, "delete a snapshot")
    p.add_argument("domain")
    p.add_argument("name")
    p = add("checkpoint-create", cmd_checkpoint_create, "create a domain checkpoint")
    p.add_argument("domain")
    p.add_argument("name")
    add("checkpoint-list", cmd_checkpoint_list, "list checkpoints").add_argument("domain")
    p = add("checkpoint-delete", cmd_checkpoint_delete, "delete a checkpoint")
    p.add_argument("domain")
    p.add_argument("name")
    p = add("checkpoint-dumpxml", cmd_checkpoint_dumpxml, "checkpoint XML description")
    p.add_argument("domain")
    p.add_argument("name")
    p = add("backup-begin", cmd_backup_begin, "start a domain backup job")
    p.add_argument("domain")
    p.add_argument("--pool", help="storage pool receiving the backup volume (push mode)")
    p.add_argument("--incremental", metavar="CHECKPOINT", help="copy only blocks dirtied since this checkpoint")
    p.add_argument("--checkpoint", metavar="NAME", help="also create a checkpoint as the backup starts")
    p.add_argument("--volume", help="name for the backup volume")
    p.add_argument("--bandwidth", type=float, help="transfer bandwidth cap in MiB/s")
    p.add_argument("--pull", action="store_true",
                   help="pull the dirty blocks over a stream instead of pushing to a pool")
    p.add_argument("--file", help="with --pull, write the block payload to this file")
    add("domjobabort", cmd_domjobabort, "abort the active domain job").add_argument("domain")
    p = add("event", cmd_event, "wait for and print pushed event records")
    p.add_argument("--domain", default=None, help="only events for this domain")
    p.add_argument("--kind", action="append", default=None, help="filter by record kind (repeatable)")
    p.add_argument("--loop", action="store_true", help="keep printing events instead of exiting after the first")
    p.add_argument("--count", type=int, default=None, help="exit after this many events")
    p.add_argument("--timeout", type=float, default=10.0, help="give up after SECONDS of wall-clock time")
    add("managedsave", cmd_managedsave, "save domain state to a managed location").add_argument("domain")
    add("managedsave-remove", cmd_managedsave_remove, "drop the managed save image").add_argument("domain")
    add("hostname", cmd_hostname, "print the node hostname")
    add("uri", cmd_uri, "print the connection URI")
    add("version", cmd_version, "print versions")
    add("nodeinfo", cmd_nodeinfo, "print node hardware info")
    add("capabilities", cmd_capabilities, "print the capabilities XML")
    add("net-list", cmd_net_list, "list networks")
    add("net-define", cmd_net_define, "define a network from XML").add_argument("file")
    for name, fn in (
        ("net-start", cmd_net_start),
        ("net-destroy", cmd_net_destroy),
        ("net-undefine", cmd_net_undefine),
        ("net-dumpxml", cmd_net_dumpxml),
        ("net-dhcp-leases", cmd_net_dhcp_leases),
    ):
        add(name, fn, f"{name}").add_argument("network")
    add("pool-list", cmd_pool_list, "list storage pools")
    add("pool-define", cmd_pool_define, "define a pool from XML").add_argument("file")
    for name, fn in (
        ("pool-start", cmd_pool_start),
        ("pool-destroy", cmd_pool_destroy),
        ("pool-undefine", cmd_pool_undefine),
        ("pool-info", cmd_pool_info),
    ):
        add(name, fn, f"{name}").add_argument("pool")
    add("vol-list", cmd_vol_list, "list volumes in a pool").add_argument("pool")
    p = add("vol-create-as", cmd_vol_create_as, "create a volume")
    p.add_argument("pool")
    p.add_argument("name")
    p.add_argument("capacity")
    p.add_argument("--format", default="qcow2")
    p = add("vol-delete", cmd_vol_delete, "delete a volume")
    p.add_argument("pool")
    p.add_argument("name")
    p = add("vol-upload", cmd_vol_upload, "stream a local file into a volume")
    p.add_argument("pool")
    p.add_argument("name")
    p.add_argument("file", help="local file to read ('-' for stdin)")
    p.add_argument("--offset", type=int, default=0, help="write offset in bytes")
    p = add("vol-download", cmd_vol_download, "stream a volume into a local file")
    p.add_argument("pool")
    p.add_argument("name")
    p.add_argument("file", help="local file to write ('-' for stdout)")
    p.add_argument("--offset", type=int, default=0, help="read offset in bytes")
    p.add_argument("--length", type=int, default=None, help="bytes to read (default: to end)")
    p = add("console", cmd_console, "connect to the domain console (non-interactive)")
    p.add_argument("domain")
    p.add_argument("--send", metavar="TEXT", default=None,
                   help="send one line and print the guest's echo")
    return parser


def main(argv: "Optional[List[str]]" = None, out: "Optional[TextIO]" = None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        conn = repro.open_connection(args.connect)
    except VirtError as exc:
        print(f"error: failed to connect to {args.connect}: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(conn, args, out)
    except VirtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        conn.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
