"""E4 / Fig. 4 — remote management overhead by transport.

Reproduces the paper's remote-access measurement: the same query
round-trip issued in-process and over each supported transport
(unix socket, plain TCP, TLS, SSH), plus a payload-size sweep showing
how the transports' bandwidth differences emerge as messages grow.

Expected shape: in-process < unix < tcp < tls < ssh for small
messages; the *relative* gap shrinks as payloads grow (bandwidth,
not per-message latency, starts to dominate); connection setup is
dramatically more expensive for the encrypted transports.
"""

import repro
from repro.bench.tables import emit, format_series, format_table
from repro.daemon import Libvirtd
from repro.util.clock import VirtualClock

TRANSPORTS = ("unix", "tcp", "tls", "ssh")
PAYLOADS = (64, 1024, 16 * 1024, 64 * 1024)


def setup_daemon(clock):
    daemon = Libvirtd(hostname="e4node", clock=clock)
    for transport in TRANSPORTS:
        daemon.listen(transport)
    return daemon


def measure_round_trips(daemon, clock, reps=20):
    """Modelled seconds per ping round trip, per transport + in-process."""
    times = {}
    # in-process baseline: the dispatch pipeline without any wire
    local = daemon.drivers["test"]
    t0 = clock.now()
    for _ in range(reps):
        local.num_of_domains()
    times["in-process"] = (clock.now() - t0) / reps
    for transport in TRANSPORTS:
        conn = repro.open_connection(f"test+{transport}://e4node/default")
        t0 = clock.now()
        for _ in range(reps):
            conn._driver.ping()
        times[transport] = (clock.now() - t0) / reps
        conn.close()
    return times


def measure_payload_sweep(daemon, clock, reps=10):
    """Round-trip time vs payload size, per transport."""
    series = {t: [] for t in TRANSPORTS}
    for transport in TRANSPORTS:
        conn = repro.open_connection(f"test+{transport}://e4node/default")
        client = conn._driver.client
        for size in PAYLOADS:
            payload = "x" * size
            t0 = clock.now()
            for _ in range(reps):
                client.call("connect.ping", payload)
            series[transport].append((clock.now() - t0) / reps)
        conn.close()
    return series


def measure_connect_cost(daemon, clock):
    costs = {}
    for transport in TRANSPORTS:
        t0 = clock.now()
        conn = repro.open_connection(f"test+{transport}://e4node/default")
        costs[transport] = clock.now() - t0
        conn.close()
    return costs


def collect():
    clock = VirtualClock()
    daemon = setup_daemon(clock)
    try:
        round_trips = measure_round_trips(daemon, clock)
        sweep = measure_payload_sweep(daemon, clock)
        connects = measure_connect_cost(daemon, clock)
    finally:
        daemon.shutdown()
    return round_trips, sweep, connects


def render(round_trips, sweep, connects):
    order = ["in-process"] + list(TRANSPORTS)
    table = format_table(
        "Fig. 4a (reconstructed): query round trip by transport",
        ["transport", "round trip", "connect cost"],
        [
            [
                name,
                f"{round_trips[name] * 1e6:.1f} us",
                "-" if name == "in-process" else f"{connects[name] * 1e3:.2f} ms",
            ]
            for name in order
        ],
    )
    series_text = format_series(
        "Fig. 4b (reconstructed): round trip vs payload size",
        "payload (B)",
        list(PAYLOADS),
        {t: [f"{v * 1e6:.0f} us" for v in sweep[t]] for t in TRANSPORTS},
    )
    return table + "\n\n" + series_text


def test_e4_remote_transport(benchmark):
    round_trips, sweep, connects = benchmark.pedantic(collect, rounds=1, iterations=1)
    emit("e4_remote_transport", render(round_trips, sweep, connects))

    # -- shape: strict transport ordering --------------------------------
    order = ["in-process", "unix", "tcp", "tls", "ssh"]
    values = [round_trips[name] for name in order]
    assert values == sorted(values)
    assert round_trips["in-process"] < round_trips["unix"]
    assert connects["ssh"] > 10 * connects["tcp"]

    # -- shape: relative gap shrinks as payloads grow ---------------------
    small_ratio = sweep["tls"][0] / sweep["tcp"][0]
    big_ratio = sweep["tls"][-1] / sweep["tcp"][-1]
    assert small_ratio > 1.0
    # both still > 1, tls never beats tcp, but crypto bandwidth narrows
    # the *per-message-latency* driven gap
    for transport in TRANSPORTS:
        per_message = [v for v in sweep[transport]]
        assert per_message == sorted(per_message)  # bigger payload, slower


def test_e4_wire_bytes_accounted(benchmark):
    """Sanity micro-benchmark: one remote ping, real bytes both ways."""
    clock = VirtualClock()
    daemon = setup_daemon(clock)
    conn = repro.open_connection("test+tcp://e4node/default")
    client = conn._driver.client

    benchmark(lambda: client.call("connect.ping"))
    channel = client._channel
    assert channel.bytes_sent > 0
    assert channel.bytes_received > 0
    conn.close()
    daemon.shutdown()


def test_e4_batched_calls(benchmark):
    """call_many coalesces N small CALL frames into one transport write:
    the batch pays per-message latency once, not N times."""
    clock = VirtualClock()
    daemon = setup_daemon(clock)
    conn = repro.open_connection("test+tcp://e4node/default")
    client = conn._driver.client
    reps = 16

    channel = client._channel
    frames0 = channel.frames_sent
    t0 = clock.now()
    for _ in range(reps):
        client.call("connect.ping")
    serial_s = clock.now() - t0
    serial_frames = channel.frames_sent - frames0

    def batched():
        return client.call_many([("connect.ping", None)] * reps)

    results = benchmark.pedantic(batched, rounds=1, iterations=1)
    assert len(results) == reps
    frames0 = channel.frames_sent
    t0 = clock.now()
    client.call_many([("connect.ping", None)] * reps)
    batched_s = clock.now() - t0
    batched_frames = channel.frames_sent - frames0

    emit(
        "e4_batched_calls",
        format_table(
            f"Fig. 4c (extension): {reps} pings, serial vs batched (tcp, modelled)",
            ["path", "total", "per call"],
            [
                ["serial calls", f"{serial_s * 1e3:.2f} ms", f"{serial_s / reps * 1e6:.0f} us"],
                ["one call_many batch", f"{batched_s * 1e3:.2f} ms", f"{batched_s / reps * 1e6:.0f} us"],
            ],
        ),
    )
    # every frame still counts on the wire; the win is the coalesced
    # latency charge (one write), bounded below by dispatch cost since
    # the daemon still serves N calls
    assert serial_frames == batched_frames == reps
    assert batched_s < serial_s * 0.75
    conn.close()
    daemon.shutdown()
