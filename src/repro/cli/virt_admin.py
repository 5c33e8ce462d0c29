"""``pyvirt-admin`` — the virt-admin-like administration shell.

Runtime management of a daemon: server workerpools, client limits and
connections, and the logging subsystem::

    pyvirt-admin -c nodeA srv-list
    pyvirt-admin -c nodeA srv-threadpool-set libvirtd --max-workers 40
    pyvirt-admin -c nodeA dmn-log-define --filters "3:util 4:rpc"
    pyvirt-admin -c nodeA client-disconnect 2
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, TextIO

from repro.admin import admin_open
from repro.errors import VirtError
from repro.observability.export import render_trace_tree


def cmd_srv_list(conn, args, out: TextIO) -> int:
    print(" Id   Name", file=out)
    print("-----------------", file=out)
    for index, server in enumerate(conn.list_servers()):
        print(f" {index:<4} {server.name}", file=out)
    return 0


def cmd_threadpool_info(conn, args, out: TextIO) -> int:
    info = conn.lookup_server(args.server).threadpool_info()
    for key in ("minWorkers", "maxWorkers", "nWorkers", "freeWorkers", "prioWorkers", "jobQueueDepth"):
        print(f"{key:<15}: {info[key]}", file=out)
    return 0


def cmd_threadpool_set(conn, args, out: TextIO) -> int:
    conn.lookup_server(args.server).set_threadpool(
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        prio_workers=args.prio_workers,
    )
    print(f"threadpool on {args.server} updated", file=out)
    return 0


def cmd_clients_info(conn, args, out: TextIO) -> int:
    info = conn.lookup_server(args.server).clients_info()
    print(f"{'nclients_max':<15}: {info['nclients_max']}", file=out)
    print(f"{'nclients':<15}: {info['nclients']}", file=out)
    return 0


def cmd_clients_set(conn, args, out: TextIO) -> int:
    conn.lookup_server(args.server).set_client_limits(max_clients=args.max_clients)
    print(f"client limits on {args.server} updated", file=out)
    return 0


def cmd_client_list(conn, args, out: TextIO) -> int:
    print(f" {'Id':<5} {'Transport':<12} Connected since", file=out)
    print("-" * 42, file=out)
    for client in conn.lookup_server(args.server).list_clients():
        print(
            f" {client.id:<5} {client.transport:<12} {client.connected_since:.3f}",
            file=out,
        )
    return 0


def cmd_client_info(conn, args, out: TextIO) -> int:
    client = conn.lookup_server(args.server).lookup_client(args.id)
    for key, value in sorted(client.info().items()):
        print(f"{key:<18}: {value}", file=out)
    return 0


def cmd_client_disconnect(conn, args, out: TextIO) -> int:
    conn.lookup_server(args.server).lookup_client(args.id).disconnect()
    print(f"client {args.id} disconnected from {args.server}", file=out)
    return 0


def cmd_log_info(conn, args, out: TextIO) -> int:
    info = conn.get_logging()
    print(f"Logging level: {info['level_name']}", file=out)
    print(f"Logging filters: {info['filters'] or '(none)'}", file=out)
    print(f"Logging outputs: {info['outputs']}", file=out)
    return 0


def cmd_log_define(conn, args, out: TextIO) -> int:
    if args.level is None and args.filters is None and args.outputs is None:
        print("error: nothing to define", file=sys.stderr)
        return 1
    if args.level is not None:
        conn.set_logging_level(args.level)
    if args.filters is not None:
        conn.set_logging_filters(args.filters)
    if args.outputs is not None:
        conn.set_logging_outputs(args.outputs)
    print("logging settings updated", file=out)
    return 0


def cmd_server_stats(conn, args, out: TextIO) -> int:
    stats = conn.server_stats(args.server)
    print(f"Server: {stats['server']} on {stats['hostname']}", file=out)
    print(f"Timestamp: {stats['timestamp']:.6f}", file=out)
    clients = stats["clients"]
    print(f"Clients: {clients['connected']}/{clients['max']}", file=out)
    pool = stats["workerpool"]
    print("Workerpool:", file=out)
    for key in ("minWorkers", "maxWorkers", "nWorkers", "freeWorkers",
                "prioWorkers", "jobQueueDepth"):
        print(f"  {key:<15}: {pool[key]}", file=out)
    print(f"  {'jobsCompleted':<15}: {stats['jobs_completed']}  (pooled jobs, not calls)", file=out)
    rpc = stats["rpc"]
    print("RPC:", file=out)
    print(f"  {'callsServed':<15}: {rpc['calls_served']}  (pooled + inline)", file=out)
    print(f"  {'callsFailed':<15}: {rpc['calls_failed']}", file=out)
    print(f"  {'pingsAnswered':<15}: {rpc['pings_answered']}", file=out)
    for procedure, row in sorted(rpc.get("procedures", {}).items()):
        print(
            f"    {procedure:<38} {row['count']:>6}  "
            f"mean {row['mean_seconds']:.6f}s  max {row['max_seconds']:.6f}s",
            file=out,
        )
    if stats["drivers"]:
        print("Drivers:", file=out)
        for driver, row in sorted(stats["drivers"].items()):
            print(
                f"  {driver:<10} ops={row['ops']} seconds={row['seconds']:.6f}",
                file=out,
            )
    tracing = stats["tracing"]
    line = (
        f"Tracing: started={tracing['spans_started']} "
        f"finished={tracing['spans_finished']} failed={tracing['spans_failed']}"
    )
    if "spans_propagated" in tracing:
        line += (
            f" propagated={tracing['spans_propagated']}"
            f" orphaned={tracing['spans_orphaned']}"
            f" open={tracing['spans_open']}"
        )
    print(line, file=out)
    return 0


def cmd_client_stats(conn, args, out: TextIO) -> int:
    rows = conn.client_stats(args.id)
    if args.id is not None:
        rows = [rows]
    print(
        f" {'Id':<5} {'Server':<10} {'Transport':<10} {'Calls':<7} "
        f"{'BytesIn':<9} {'BytesOut':<9} Last activity",
        file=out,
    )
    print("-" * 68, file=out)
    for row in rows:
        print(
            f" {row['id']:<5} {row['server']:<10} {row['transport']:<10} "
            f"{row['calls']:<7} {row['bytes_in']:<9} {row['bytes_out']:<9} "
            f"{row['last_activity']:.3f}",
            file=out,
        )
    return 0


def cmd_reset_stats(conn, args, out: TextIO) -> int:
    result = conn.reset_stats()
    print(
        f"stats reset: {result['families_reset']} metric families, "
        f"{result['spans_dropped']} spans dropped",
        file=out,
    )
    return 0


def cmd_metrics(conn, args, out: TextIO) -> int:
    out.write(conn.metrics_text())
    return 0


def cmd_trace_list(conn, args, out: TextIO) -> int:
    rows = conn.trace_list(args.limit)
    if args.json:
        json.dump(rows, out, indent=2)
        out.write("\n")
        return 0
    print(
        f" {'TraceId':<8} {'Root':<22} {'Spans':<6} {'Open':<5} "
        f"{'Errors':<7} {'Start':<12} Duration",
        file=out,
    )
    print("-" * 76, file=out)
    for row in rows:
        print(
            f" {row['trace_id']:<8} {row['root']:<22} {row['spans']:<6} "
            f"{row['open']:<5} {row['errors']:<7} {row['start']:<12.6f} "
            f"{row['duration']:.6f}s",
            file=out,
        )
    return 0


def cmd_daemon_shutdown(conn, args, out: TextIO) -> int:
    result = conn.daemon_shutdown(graceful=not args.crash)
    print(f"daemon shutdown initiated ({result['initiated']})", file=out)
    return 0


def cmd_trace_get(conn, args, out: TextIO) -> int:
    spans = conn.trace_get(args.trace_id)
    if args.json:
        json.dump(spans, out, indent=2)
        out.write("\n")
        return 0
    print(f"Trace {args.trace_id}: {len(spans)} spans", file=out)
    print(render_trace_tree(spans), file=out)
    return 0


def cmd_flight_dump(conn, args, out: TextIO) -> int:
    dump = conn.flight_dump()
    if args.json:
        json.dump(dump, out, indent=2)
        out.write("\n")
        return 0
    print(
        f"Flight recorder: {len(dump['records'])}/{dump['capacity']} records "
        f"(lifetime {dump['records_total']}, recovered {dump['recovered_records']}, "
        f"incarnation {dump['incarnation']}, "
        f"{'persistent' if dump['persistent'] else 'memory-only'})",
        file=out,
    )
    for record in dump["records"]:
        extra = " ".join(
            f"{k}={v}" for k, v in sorted(record.items())
            if k not in ("t", "kind", "life")
        )
        print(f" {record['t']:>12.6f} [{record['life']}] {record['kind']:<10} {extra}", file=out)
    return 0


def cmd_fleet_trace_get(conn, args, out: TextIO) -> int:
    """Stitch one trace together from every named daemon's span buffer.

    The primary connection (``-c``) contributes too, so the span the
    client opened and the dispatch spans the daemons adopted from it
    render as one tree.
    """
    from repro.observability.fleet import collect_fleet_spans

    spans = collect_fleet_spans(args.trace_id, hostnames=args.hosts or [])
    local = []
    try:
        local = conn.trace_get(args.trace_id)
    except VirtError:
        pass  # the -c daemon has no spans for this trace; fine
    if local:
        spans = collect_fleet_spans(
            args.trace_id, hostnames=args.hosts or [], extra_spans=local
        )
    if not spans:
        print(f"error: no spans found for trace {args.trace_id}", file=sys.stderr)
        return 1
    if args.json:
        json.dump(spans, out, indent=2)
        out.write("\n")
        return 0
    hosts = sorted(
        {s.get("attributes", {}).get("host") for s in spans} - {None}
    )
    print(
        f"Trace {args.trace_id}: {len(spans)} spans across "
        f"{len(hosts)} hosts ({', '.join(hosts)})",
        file=out,
    )
    print(render_trace_tree(spans), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyvirt-admin", description="daemon administration client"
    )
    parser.add_argument(
        "-c", "--connect", default="localhost", metavar="HOST",
        help="daemon hostname (default localhost)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    add("srv-list", cmd_srv_list, "list servers in the daemon")
    add("srv-threadpool-info", cmd_threadpool_info, "show a server's workerpool").add_argument("server")
    p = add("srv-threadpool-set", cmd_threadpool_set, "adjust a server's workerpool")
    p.add_argument("server")
    p.add_argument("--min-workers", type=int)
    p.add_argument("--max-workers", type=int)
    p.add_argument("--prio-workers", type=int)
    add("srv-clients-info", cmd_clients_info, "show client limits").add_argument("server")
    p = add("srv-clients-set", cmd_clients_set, "set client limits")
    p.add_argument("server")
    p.add_argument("--max-clients", type=int, required=True)
    add("client-list", cmd_client_list, "list connected clients").add_argument("server")
    p = add("client-info", cmd_client_info, "show one client's identity")
    p.add_argument("server")
    p.add_argument("id", type=int)
    p = add("client-disconnect", cmd_client_disconnect, "force-close a client")
    p.add_argument("server")
    p.add_argument("id", type=int)
    p = add("server-stats", cmd_server_stats, "live workerpool/RPC/driver metrics")
    p.add_argument("server", nargs="?", default="libvirtd")
    p = add("client-stats", cmd_client_stats, "per-client traffic counters")
    p.add_argument("id", type=int, nargs="?", default=None)
    add("reset-stats", cmd_reset_stats, "zero the daemon's metrics and spans")
    add("metrics", cmd_metrics, "dump the Prometheus exposition page")
    p = add("trace-list", cmd_trace_list, "list buffered traces")
    p.add_argument("--limit", type=int, default=None, help="show only the newest N traces")
    p.add_argument("--json", action="store_true", help="emit JSON rows")
    p = add("trace-get", cmd_trace_get, "show one trace as a span tree")
    p.add_argument("trace_id", type=int)
    p.add_argument("--json", action="store_true", help="emit raw span dicts as JSON")
    p = add("flight-dump", cmd_flight_dump, "dump the daemon's flight recorder")
    p.add_argument("--json", action="store_true", help="emit the raw dump as JSON")
    p = add("fleet-trace-get", cmd_fleet_trace_get,
            "stitch one trace from many daemons' span buffers")
    p.add_argument("trace_id", type=int)
    p.add_argument("--hosts", nargs="+", metavar="HOST", default=[],
                   help="daemon hostnames to collect spans from")
    p.add_argument("--json", action="store_true", help="emit raw span dicts as JSON")
    p = add("daemon-shutdown", cmd_daemon_shutdown, "ask the daemon to exit")
    p.add_argument(
        "--graceful", action="store_true", default=True,
        help="drain clients and flush state before exiting (default)",
    )
    p.add_argument(
        "--crash", action="store_true",
        help="simulate an abrupt kill -9 instead of draining",
    )
    add("dmn-log-info", cmd_log_info, "show daemon logging settings")
    p = add("dmn-log-define", cmd_log_define, "change daemon logging settings")
    p.add_argument("--level", type=int)
    p.add_argument("--filters")
    p.add_argument("--outputs")
    return parser


def main(argv: "Optional[List[str]]" = None, out: "Optional[TextIO]" = None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        conn = admin_open(args.connect)
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
