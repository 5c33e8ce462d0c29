"""Resilient RPC client: deadlines, keepalive, desync handling.

All timing runs on the virtual clock; ``EventLoop.drive`` stands in for
"let the poll loop run for N seconds".
"""

import threading

import pytest

import repro
from repro.daemon import Libvirtd
from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    InvalidArgumentError,
    KeepaliveTimeoutError,
    OperationFailedError,
    OperationTimeoutError,
    RPCError,
)
from repro.faults import FaultPlan
from repro.rpc.client import RPCClient
from repro.rpc.protocol import MessageType, ReplyStatus, RPCMessage
from repro.rpc.retry import CircuitBreaker, IDEMPOTENT_PROCEDURES, RetryPolicy, is_idempotent
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.util.clock import VirtualClock


@pytest.fixture()
def clock():
    return VirtualClock()


def make_pair(clock, handlers=None, transport="unix"):
    server = RPCServer()
    for name, fn in (handlers or {}).items():
        server.register(name, fn)
    listener = Listener(transport, clock=clock)
    channel = listener.connect()
    server.attach(channel._server_conn)
    client = RPCClient(channel)
    return client, server, channel


PING = {"connect.ping": lambda conn, body: "pong"}


class TestDeadlines:
    def test_timeout_costs_exactly_the_deadline(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        t0 = clock.now()
        with pytest.raises(OperationTimeoutError, match="connect.ping.*3s deadline"):
            client.call("connect.ping", timeout=3.0)
        assert clock.now() - t0 == pytest.approx(3.0)
        assert client.timeouts == 1

    def test_default_timeout_applies_when_call_has_none(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        client.default_timeout = 2.0
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        with pytest.raises(OperationTimeoutError):
            client.call("connect.ping")

    def test_per_call_timeout_overrides_default(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        client.default_timeout = 100.0
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        t0 = clock.now()
        with pytest.raises(OperationTimeoutError):
            client.call("connect.ping", timeout=1.0)
        assert clock.now() - t0 == pytest.approx(1.0)

    def test_timed_out_connection_still_usable(self, clock):
        """A deadline abandons the *call*, not the connection."""
        client, _, channel = make_pair(clock, handlers=PING)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        with pytest.raises(OperationTimeoutError):
            client.call("connect.ping", timeout=1.0)
        assert client.call("connect.ping") == "pong"

    def test_invalid_timeout_rejected(self, clock):
        client, _, _ = make_pair(clock, handlers=PING)
        with pytest.raises(InvalidArgumentError):
            client.call("connect.ping", timeout=0.0)


class TestKeepalive:
    def test_ping_pong_round_trip(self, clock):
        client, server, _ = make_pair(clock)
        touched = []
        server.on_ping = touched.append
        assert client.send_ping(timeout=1.0)
        assert client.pings_sent == 1
        assert client.pongs_received == 1
        assert server.pings_answered == 1
        assert len(touched) == 1

    def test_pings_bypass_procedure_dispatch(self, clock):
        """PONG comes from the dispatcher itself — no handler registered."""
        client, server, _ = make_pair(clock)  # zero registered procedures
        assert client.send_ping(timeout=1.0)
        assert server.calls_served == 0

    def test_probe_loop_declares_dead_after_count_misses(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        client.enable_keepalive(interval=1.0, count=3)
        channel.install_fault_plan(FaultPlan().blackhole())
        fired = client.eventloop.drive(clock, 20.0)
        assert fired >= 3
        assert client.dead
        assert "3 consecutive pings" in client.dead_reason
        with pytest.raises(KeepaliveTimeoutError):
            client.call("connect.ping")

    def test_healthy_link_never_declared_dead(self, clock):
        client, server, _ = make_pair(clock, handlers=PING)
        client.enable_keepalive(interval=1.0, count=3)
        client.eventloop.drive(clock, 10.0)
        assert not client.dead
        assert client.missed_pings == 0
        assert server.pings_answered >= 9

    def test_blocked_call_bounded_by_keepalive(self, clock):
        """With keepalive armed, even a call with no explicit deadline
        aborts once the link would have been declared dead."""
        client, _, channel = make_pair(clock, handlers=PING)
        client.enable_keepalive(interval=1.0, count=3)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        t0 = clock.now()
        with pytest.raises(KeepaliveTimeoutError, match="unresponsive"):
            client.call("connect.ping")
        assert clock.now() - t0 == pytest.approx(3.0)  # interval * count
        assert client.dead

    def test_explicit_deadline_shorter_than_keepalive_wins(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        client.enable_keepalive(interval=10.0, count=5)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        with pytest.raises(OperationTimeoutError):
            client.call("connect.ping", timeout=2.0)
        assert not client.dead  # the deadline tripped, not the keepalive

    def test_disable_keepalive_cancels_the_timer(self, clock):
        client, _, _ = make_pair(clock, handlers=PING)
        client.enable_keepalive(interval=1.0, count=2)
        assert client.keepalive_enabled
        client.disable_keepalive()
        assert not client.keepalive_enabled
        assert client.eventloop.pending() == 0

    def test_keepalive_validation(self, clock):
        client, _, _ = make_pair(clock)
        with pytest.raises(InvalidArgumentError):
            client.enable_keepalive(interval=0.0)
        with pytest.raises(InvalidArgumentError):
            client.enable_keepalive(interval=1.0, count=0)


class TestDesync:
    """Satellite: a desynchronized reply stream must close the channel."""

    def _raw_handler_pair(self, clock, raw_reply_fn):
        listener = Listener("unix", clock=clock)
        channel = listener.connect()
        channel._server_conn.set_handler(raw_reply_fn)
        return RPCClient(channel), channel

    def test_serial_mismatch_closes_channel(self, clock):
        wrong = RPCMessage(1, MessageType.REPLY, 9999, ReplyStatus.OK, None)
        client, channel = self._raw_handler_pair(clock, lambda data: wrong.pack())
        with pytest.raises(RPCError, match="serial mismatch.*desynchronized"):
            client.call("connect.ping")
        assert channel.closed
        with pytest.raises(ConnectionClosedError):
            client.call("connect.ping")

    def test_non_reply_frame_closes_channel(self, clock):
        stray = RPCMessage(1, MessageType.CALL, 1, ReplyStatus.OK, None)
        client, channel = self._raw_handler_pair(clock, lambda data: stray.pack())
        with pytest.raises(RPCError, match="expected REPLY"):
            client.call("connect.ping")
        assert channel.closed

    def test_unparsable_reply_closes_channel(self, clock):
        client, channel = self._raw_handler_pair(clock, lambda data: b"\x00" * 32)
        # an inline (pool-less) server: the caller decodes, and names the call
        with pytest.raises(RPCError, match="unparsable reply to connect.ping: .*desynchronized"):
            client.call("connect.ping")
        assert channel.closed

    def test_corrupted_event_frame_is_dropped_not_fatal(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        received = []
        client.on_event(1, received.append)
        channel._deliver_event(b"\xff" * 24)  # garbage EVENT frame
        assert received == []
        assert client.call("connect.ping") == "pong"  # link still fine


class TestRetryPolicy:
    def test_delays_stay_within_bounds(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0, seed=1)
        delay = None
        for _ in range(100):
            delay = policy.next_delay(delay)
            assert 0.1 <= delay <= 2.0

    def test_seeded_and_deterministic(self):
        def sequence(seed):
            policy = RetryPolicy(seed=seed)
            out, d = [], None
            for _ in range(10):
                d = policy.next_delay(d)
                out.append(d)
            return out

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)

    def test_max_total_delay_bounds_the_budget(self):
        policy = RetryPolicy(max_attempts=4, max_delay=5.0)
        assert policy.max_total_delay() == 15.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)

    def test_idempotency_allowlist(self):
        assert is_idempotent("domain.get_info")
        assert is_idempotent("connect.list_domains")
        assert not is_idempotent("domain.create")
        assert not is_idempotent("domain.destroy")
        assert not is_idempotent("domain.migrate_perform")
        # nothing that mutates state may ever be listed
        for name in IDEMPOTENT_PROCEDURES:
            verb = name.split(".", 1)[1]
            assert not verb.startswith(
                ("create", "define", "destroy", "set_", "undefine", "migrate")
            ), name


class TestCircuitBreaker:
    def test_opens_after_threshold_failures(self, clock):
        breaker = CircuitBreaker(clock.now, threshold=2, reset_timeout=30.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_half_open_after_cooldown_then_close_on_success(self, clock):
        breaker = CircuitBreaker(clock.now, threshold=1, reset_timeout=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self, clock):
        breaker = CircuitBreaker(clock.now, threshold=1, reset_timeout=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2

    def test_validation(self, clock):
        with pytest.raises(InvalidArgumentError):
            CircuitBreaker(clock.now, threshold=0)
        with pytest.raises(InvalidArgumentError):
            CircuitBreaker(clock.now, reset_timeout=0.0)


class TestKeepaliveVsDaemonReaping:
    def test_pinging_client_survives_the_idle_reaper(self):
        daemon = Libvirtd(hostname="kahost")
        daemon.listen("tcp")
        daemon.enable_keepalive(6.0, check_interval=3.0)
        clock = daemon.clock
        alive = repro.open_connection("qemu+tcp://kahost/system?keepalive_interval=2")
        idle = repro.open_connection("qemu+tcp://kahost/system")
        try:
            for _ in range(20):
                clock.advance(1.0)
                alive._driver.tick()  # fires the due keepalive probes
                daemon.eventloop.run_due()  # fires the due reap checks
            # the pinging client never went idle; the silent one was reaped
            assert alive._driver.ping() == "pong"
            with pytest.raises(ConnectionClosedError):
                idle._driver.ping()
        finally:
            alive.close()
            daemon.shutdown()


class TestListenerEdgePaths:
    """Satellite: listener edge cases under failure and contention."""

    def test_close_all_with_concurrent_client_calls(self, clock):
        client, _, channel = make_pair(clock, handlers=PING)
        listener = channel._server_conn.listener
        warmed = threading.Event()
        outcome = {}

        def chatter():
            for i in range(10_000):
                try:
                    client.call("connect.ping")
                except ConnectionClosedError:
                    outcome["error"] = "closed"
                    outcome["calls_before_close"] = i
                    return
                if i >= 3:
                    warmed.set()
            outcome["error"] = "never closed"

        worker = threading.Thread(target=chatter)
        worker.start()
        assert warmed.wait(timeout=10.0)
        listener.close_all()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert outcome["error"] == "closed"
        assert outcome["calls_before_close"] >= 3
        assert channel.closed
        assert listener.active_connections == 0

    def test_authenticator_rejection_counts_and_raises(self, clock):
        def deny(creds):
            raise AuthenticationError("bad credentials")

        listener = Listener("tcp", clock=clock, authenticator=deny)
        for _ in range(3):
            with pytest.raises(AuthenticationError):
                listener.connect({"username": "mallory"})
        assert listener.rejected == 3
        assert listener.accepted == 0
        assert listener.active_connections == 0

    def test_on_accept_veto_leaves_both_endpoints_closed(self, clock):
        vetoed = []

        def veto(conn):
            vetoed.append(conn)
            raise OperationFailedError("too many clients")

        listener = Listener("unix", clock=clock, on_accept=veto)
        with pytest.raises(OperationFailedError):
            listener.connect()
        (conn,) = vetoed
        assert conn.closed
        assert conn.channel.closed
        assert listener.rejected == 1
        assert listener.active_connections == 0
        with pytest.raises(ConnectionClosedError):
            conn.channel.call_bytes(b"\x00\x00\x00\x08ping")
