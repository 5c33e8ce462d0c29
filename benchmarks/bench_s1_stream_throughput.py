"""S1 — streamed bulk transfer vs chunked procedure calls.

The stream plane exists so bulk payloads stop paying per-call round
trips: one opening CALL attaches a credit-flow-controlled stream, and
the chunks then ride one-way STREAM frames.  This benchmark moves the
same payload both ways — as N chunked ``connect.ping`` procedure calls
and as one streamed volume upload — and gates the structural payoffs:

* ≥5× fewer client round trips for the streamed transfer;
* flat per-chunk overhead (doubling the payload doubles the modelled
  time, it does not curve upward);
* the zero-copy XDR path (a received chunk body is a sub-view of the
  receive buffer, never a copy);
* clean teardown under a seeded mid-stream sever (no dangling stream,
  no partial volume).

All figures are virtual-clock or counter quantities: exact functions
of the model, gated in ``check_regression.py``.
"""

import repro
from repro.bench.tables import emit, format_table
from repro.daemon import Libvirtd
from repro.errors import VirtError
from repro.faults import FaultPlan
from repro.rpc.protocol import MessageType, ReplyStatus, RPCMessage, peek_message_type
from repro.stream import DEFAULT_CHUNK, stream_frame
from repro.util.clock import VirtualClock
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

GiB = 1024**3
CHUNKS = 16
PAYLOAD = bytes(range(256)) * (CHUNKS * DEFAULT_CHUNK // 256)  # 4 MiB


def setup_env(clock, hostname="s1node"):
    daemon = Libvirtd(hostname=hostname, clock=clock)
    daemon.listen("tcp")
    conn = repro.open_connection(f"qemu+tcp://{hostname}/system")
    pool = conn.define_storage_pool(
        StoragePoolConfig(name="bench", capacity_bytes=10 * GiB)
    )
    pool.start()
    volume = pool.create_volume(VolumeConfig(name="s1.raw", capacity_bytes=GiB))
    return daemon, conn, volume


def measure_round_trips(clock, conn, volume):
    """Client calls + modelled seconds: procedure-chunked vs streamed."""
    client = conn._driver.client

    calls0, t0 = client.calls_made, clock.now()
    for i in range(CHUNKS):
        client.call("connect.ping", PAYLOAD[i * DEFAULT_CHUNK : (i + 1) * DEFAULT_CHUNK])
    proc_calls = client.calls_made - calls0
    proc_seconds = clock.now() - t0

    calls0, t0 = client.calls_made, clock.now()
    volume.upload(PAYLOAD)
    stream_calls = client.calls_made - calls0
    stream_seconds = clock.now() - t0

    return {
        "proc_round_trips": proc_calls,
        "stream_round_trips": stream_calls,
        "round_trip_ratio": proc_calls / stream_calls,
        "proc_seconds": proc_seconds,
        "stream_seconds": stream_seconds,
    }


def measure_per_chunk_overhead(clock, volume):
    """Per-chunk modelled cost at 2× payload sizes: flat means the ratio
    stays near 1 (no superlinear cost as streams grow)."""
    small, large = 8, 16
    t0 = clock.now()
    volume.upload(PAYLOAD[: small * DEFAULT_CHUNK])
    per_chunk_small = (clock.now() - t0) / small
    t0 = clock.now()
    volume.upload(PAYLOAD[: large * DEFAULT_CHUNK])
    per_chunk_large = (clock.now() - t0) / large
    return {
        "per_chunk_small_us": per_chunk_small * 1e6,
        "per_chunk_large_us": per_chunk_large * 1e6,
        "per_chunk_flatness": per_chunk_large / per_chunk_small,
    }


def verify_zero_copy():
    """1.0 iff a decoded STREAM chunk body aliases the frame buffer."""
    frame = stream_frame(82, 1, ReplyStatus.CONTINUE, b"\xab" * DEFAULT_CHUNK)
    message = RPCMessage.unpack(memoryview(frame))
    ok = (
        isinstance(message.body, memoryview)
        and message.body.obj is frame
        and peek_message_type(frame) == MessageType.STREAM
    )
    return {"zero_copy_ok": 1.0 if ok else 0.0}


def verify_sever_teardown(clock):
    """1.0 iff a link severed mid-upload leaves no dangling stream on
    either side and the volume untouched (all-or-nothing)."""
    daemon, conn, volume = setup_env(clock, hostname="s1sever")
    try:
        channel = conn._driver.client._channel
        channel.install_fault_plan(FaultPlan().sever(after=channel.frames_sent + 3))
        try:
            volume.upload(PAYLOAD)
            return {"sever_clean": 0.0}  # the sever must surface
        except VirtError:
            pass
        client_clean = conn._driver.client.streams_open == 0
        for summary in daemon.list_clients():
            daemon.disconnect_client(summary["id"])
        server_clean = daemon.rpc.active_streams() == 0
        check = repro.open_connection("qemu+tcp://s1sever/system")
        try:
            vol = check.lookup_storage_pool("bench").lookup_volume("s1.raw")
            untouched = vol.info().allocation_bytes == 0
        finally:
            check.close()
        ok = client_clean and server_clean and untouched
        return {"sever_clean": 1.0 if ok else 0.0}
    finally:
        conn.close()
        daemon.shutdown()


def collect():
    clock = VirtualClock()
    daemon, conn, volume = setup_env(clock)
    try:
        figures = measure_round_trips(clock, conn, volume)
        figures.update(measure_per_chunk_overhead(clock, volume))
    finally:
        conn.close()
        daemon.shutdown()
    figures.update(verify_zero_copy())
    figures.update(verify_sever_teardown(VirtualClock()))
    return figures


def render(figures):
    return format_table(
        "S1: streamed bulk transfer vs chunked procedure calls "
        f"({CHUNKS} x {DEFAULT_CHUNK // 1024} KiB)",
        ["figure", "value"],
        [
            ["procedure-call round trips", f"{figures['proc_round_trips']}"],
            ["streamed round trips", f"{figures['stream_round_trips']}"],
            ["round-trip ratio", f"{figures['round_trip_ratio']:.1f}x"],
            ["procedure path (modelled)", f"{figures['proc_seconds'] * 1e3:.2f} ms"],
            ["streamed path (modelled)", f"{figures['stream_seconds'] * 1e3:.2f} ms"],
            ["per-chunk cost, 8 chunks", f"{figures['per_chunk_small_us']:.1f} us"],
            ["per-chunk cost, 16 chunks", f"{figures['per_chunk_large_us']:.1f} us"],
            ["per-chunk flatness (1.0 = flat)", f"{figures['per_chunk_flatness']:.3f}"],
            ["zero-copy chunk decode", "yes" if figures["zero_copy_ok"] else "NO"],
            ["sever mid-stream teardown clean", "yes" if figures["sever_clean"] else "NO"],
        ],
    )


def test_s1_stream_throughput(benchmark):
    figures = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit("s1_stream_throughput", render(figures))

    # -- the tentpole claims -------------------------------------------------
    assert figures["round_trip_ratio"] >= 5.0
    assert 0.5 <= figures["per_chunk_flatness"] <= 1.5
    assert figures["zero_copy_ok"] == 1.0
    assert figures["sever_clean"] == 1.0
    # streaming must also beat the chunked procedure path on modelled time:
    # the chunks stop paying a full round trip each
    assert figures["stream_seconds"] < figures["proc_seconds"]
