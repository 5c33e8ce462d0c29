"""Isolated probes: one layer's public function, called in a loop.

Each probe times a single layer on inputs of the shape the workloads
produce (a ``domain.get_info`` call and reply, a 128-guest list reply, a
256 KiB stream chunk, a guest's journal record ...), with nothing else
of the stack running.  Times are normalised like every other figure.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List

import calibrate
from workloads import guest_configs

from repro.core.cache import InvalidationCache
from repro.core.events import EventBus
from repro.drivers.qemu import QemuDriver
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.observability.flightrec import FlightRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.rpc.protocol import MessageType, ReplyStatus, RPCMessage, procedure_number, split_frames
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.rpc.xdr import decode_value, encode_value
from repro.state import StateDir, StateJournal
from repro.stream.core import DEFAULT_CHUNK, ClientStream, stream_frame
from repro.util.clock import VirtualClock
from repro.util.threadpool import WorkerPool
from repro.xmlconfig.domain import DomainConfig

_now = time.perf_counter_ns
#: one timed batch lasts about this long, so the clock read is negligible
BATCH_NS = 300_000


def timed(fn: Callable[[], Any], budget_s: float) -> float:
    """Median raw ns per call of ``fn`` over batches filling ``budget_s``."""
    calls = 1
    while True:
        t0 = _now()
        for _ in range(calls):
            fn()
        elapsed = _now() - t0
        if elapsed >= BATCH_NS or calls >= 1 << 16:
            break
        calls *= 4
    batches: List[float] = []
    end = _now() + int(budget_s * 1e9)
    while len(batches) < 3 or _now() < end:
        t0 = _now()
        for _ in range(calls):
            fn()
        batches.append((_now() - t0) / calls)
    return statistics.median(batches)


class _StubClient:
    """Receives a ``ClientStream``'s frames and decodes them in place."""

    def _send_stream_frame(self, frame: bytes) -> bool:
        RPCMessage.unpack(memoryview(frame))
        return True

    def _forget_stream(self, serial: int) -> None:
        pass


def run_probes(seed: int, workdir: str, budget_s: float) -> Dict[str, float]:
    """Every isolated-probe metric, in normalised µs (or its own unit)."""
    rng = random.Random(seed)
    clock = VirtualClock()
    configs = guest_configs(rng, 128, "p")
    names = [c.name for c in configs]
    probes: Dict[str, Callable[[], Any]] = {}
    cleanup: List[Callable[[], Any]] = []

    # -- rpc.xdr / rpc.protocol ------------------------------------------------
    call_body = {"name": names[0]}
    info_reply = {"state": 1, "max_memory_kib": 262144, "memory_kib": 262144, "vcpus": 1, "cpu_seconds": 1.5}
    info_bytes = encode_value(info_reply)
    list_bytes = encode_value(names)
    chunk = rng.randbytes(DEFAULT_CHUNK)
    probes["rpc.xdr.encode_small_us"] = lambda: encode_value(call_body)
    probes["rpc.xdr.decode_small_us"] = lambda: decode_value(info_bytes)
    probes["rpc.xdr.decode_list_us"] = lambda: decode_value(list_bytes)
    probes["rpc.xdr.opaque_256k_us"] = lambda: decode_value(memoryview(encode_value(memoryview(chunk))))
    number = procedure_number("domain.get_info")
    call = RPCMessage(number, MessageType.CALL, 7, body=call_body, trace={"trace_id": 11, "span_id": 12})
    frame = call.pack()
    probes["rpc.protocol.pack_us"] = call.pack
    probes["rpc.protocol.unpack_us"] = lambda: RPCMessage.unpack(frame)
    small_buffer = frame * 16
    big_frame = stream_frame(procedure_number("storage.vol_upload"), 9, ReplyStatus.CONTINUE, chunk)
    big_buffer = big_frame * 4
    probes["rpc.protocol.split_frames_us"] = lambda: split_frames(small_buffer)
    probes["rpc.protocol.split_frames_256k_us"] = lambda: split_frames(big_buffer)

    # -- rpc.transport / util.threadpool / rpc.server ---------------------------
    echo = Listener("unix", clock=clock, on_accept=lambda conn: conn.set_handler(lambda data: data))
    echo_channel = echo.connect()
    probes["rpc.transport.echo_roundtrip_us"] = lambda: echo_channel.call_bytes(frame)
    pool = WorkerPool(min_workers=1, max_workers=1, name="probe")
    cleanup.append(pool.shutdown)
    probes["util.threadpool.handoff_us"] = lambda: pool.submit(int).result()
    server = RPCServer(pool=None)
    server.register("connect.ping", lambda conn, body: None)
    accepted: List[Any] = []
    noop = Listener("unix", clock=clock, on_accept=lambda conn: (server.attach(conn), accepted.append(conn)))
    noop.connect()
    ping = RPCMessage(procedure_number("connect.ping"), MessageType.CALL, 3).pack()
    probes["rpc.server.dispatch_noop_us"] = lambda: server.dispatch(accepted[0], ping)

    # -- drivers.stateful (local driver, no RPC) -------------------------------
    driver = QemuDriver(QemuBackend(host=SimHost(hostname="probe", clock=clock), clock=clock))
    xml = [c.to_xml() for c in configs[:8]]
    driver.domain_define_xml(xml[0])
    driver.domain_create(names[0])
    probes["drivers.stateful.get_info_us"] = lambda: driver.domain_get_info(names[0])

    def lifecycle_cycle() -> None:
        driver.domain_define_xml(xml[1])
        driver.domain_create(names[1])
        driver.domain_suspend(names[1])
        driver.domain_resume(names[1])
        driver.domain_destroy(names[1])
        driver.domain_undefine(names[1])

    probes["drivers.stateful.lifecycle_cycle_us"] = lifecycle_cycle

    # -- state.journal / observability.flightrec (real files) ------------------
    root = os.path.join(workdir, "probes")
    shutil.rmtree(root, ignore_errors=True)
    cleanup.append(lambda: shutil.rmtree(root, ignore_errors=True))
    journal = StateJournal(StateDir(os.path.join(root, "journal")), checkpoint_every=1 << 30)
    # a running guest's journal record, captured from a journalled driver
    capture = StateJournal(StateDir(os.path.join(root, "capture")))
    journalled = QemuDriver(QemuBackend(host=SimHost(hostname="probe2", clock=clock), clock=clock))
    journalled.attach_state(capture)
    journalled.domain_define_xml(xml[0])
    journalled.domain_create(names[0])
    record = capture.get("domain", names[0])
    puts = [0]

    def journal_put() -> None:
        puts[0] += 1
        journal.put("domain", names[puts[0] % 64], record)

    probes["state.journal.put_us"] = journal_put
    probes["state.journal.checkpoint_us"] = journal.checkpoint

    # -- core.events / core.cache ------------------------------------------------
    quiet_bus, heard_bus = EventBus(), EventBus()
    heard_bus.subscribe(lambda record: None)
    probes["core.events.publish_0sub_us"] = lambda: quiet_bus.publish("lifecycle", names[0], "started")
    probes["core.events.publish_1sub_us"] = lambda: heard_bus.publish("lifecycle", names[0], "started")
    cache = InvalidationCache()
    cache.put("state", names[0], 1)
    probes["core.cache.hit_us"] = lambda: cache.get("state", names[0])

    # -- observability -------------------------------------------------------------
    registry = MetricsRegistry(now=clock.now)
    tracer = Tracer(clock.now, metrics=registry)

    def span() -> None:
        with tracer.span("driver.op", driver="qemu", procedure="domain.get_info"):
            pass

    probes["observability.tracing.span_us"] = span
    histogram = registry.histogram("probe_seconds", "probe", ("driver", "procedure"))
    probes["observability.metrics.observe_us"] = (
        lambda: histogram.labels(driver="qemu", procedure="domain.get_info").observe(0.001)
    )
    in_memory = FlightRecorder(clock.now)
    persisted = FlightRecorder(clock.now, statedir=StateDir(os.path.join(root, "flightrec")))
    fields = dict(server="libvirtd", procedure="domain.get_info", serial=7, start=0.5, span_id=3,
                  trace_id=2, parent_id=1)
    probes["observability.flightrec.record_mem_us"] = lambda: in_memory.record("rpc.begin", **fields)
    probes["observability.flightrec.record_persist_us"] = lambda: persisted.record("rpc.begin", **fields)

    # -- xmlconfig.domain / stream.core -----------------------------------------------
    probes["xmlconfig.domain.to_xml_us"] = configs[1].to_xml
    probes["xmlconfig.domain.from_xml_us"] = lambda: DomainConfig.from_xml(xml[1])
    stream = ClientStream(_StubClient(), "storage.vol_upload", procedure_number("storage.vol_upload"), 9)

    def send_chunk() -> None:
        stream.credits = stream.window
        stream.send(chunk)

    probes["stream.core.chunk_us"] = send_chunk

    results: Dict[str, float] = {}
    try:
        per_probe = budget_s / len(probes)
        for name, fn in probes.items():
            scale = calibrate.factor(calibrate.calibrate())
            results[name] = timed(fn, per_probe) * scale / 1e3
        journal_file = journal.statedir.path(StateJournal.JOURNAL_FILE)
        journal.checkpoint()
        before, appended = os.path.getsize(journal_file), puts[0]
        for _ in range(64):
            journal_put()
        grown = os.path.getsize(journal_file) - before
        results["state.journal.bytes_per_put"] = grown / (puts[0] - appended)
    finally:
        for undo in cleanup:
            undo()
    return results
