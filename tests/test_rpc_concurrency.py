"""Concurrent RPC dispatch: pooled servers, out-of-order replies,
the per-connection in-flight window, and fault injection on the
asynchronous reply path."""

import threading
import time

import pytest

import repro
import repro.rpc.client as client_module
from repro.core.states import DomainState
from repro.daemon.libvirtd import Libvirtd
from repro.drivers.qemu import QemuDriver
from repro.errors import (
    ConnectionClosedError,
    InvalidArgumentError,
    OperationTimeoutError,
    RPCError,
)
from repro.faults.plan import FaultPlan
from repro.hypervisors.host import SimHost
from repro.hypervisors.qemu_backend import QemuBackend
from repro.observability.metrics import MetricsRegistry
from repro.rpc.client import RPCClient, _PendingCall
from repro.rpc.protocol import (
    MessageType,
    ReplyStatus,
    RPCMessage,
    peek_message_type,
    procedure_number,
)
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.util.clock import ScaledWallClock, VirtualClock
from repro.util.threadpool import WorkerPool
from repro.xmlconfig.domain import DomainConfig


@pytest.fixture()
def clock():
    return VirtualClock()


def make_pair(clock, pool, handlers=None, plan=None, metrics=None, **server_kwargs):
    server = RPCServer(pool=pool, metrics=metrics, **server_kwargs)
    for name, fn in (handlers or {}).items():
        server.register(name, fn)
    listener = Listener("unix", clock=clock, metrics=metrics)
    channel = listener.connect()
    if plan is not None:
        channel.install_fault_plan(plan)
    server.attach(channel._server_conn)
    client = RPCClient(channel, metrics=metrics)
    return client, server, channel


class TestOutOfOrderReplies:
    def test_fast_reply_overtakes_slow_call(self, clock):
        """A slow handler must not head-of-line-block a fast one; the
        fast reply arrives first and is correlated by serial."""
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)
            return "slow-done"

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(
                clock,
                pool,
                handlers={"domain.save": slow, "connect.ping": lambda c, b: b},
            )
            pending_slow = client.call_async("domain.save")
            # the fast call completes while the slow one is still gated
            assert client.call("connect.ping", "hi") == "hi"
            assert not pending_slow.done()
            assert client.replies_out_of_order >= 1
            gate.set()
            assert pending_slow.result() == "slow-done"
            assert server.calls_served == 2

    def test_pipelined_calls_correlate_by_serial(self, clock):
        """Many interleaved replies each land on their own call."""
        with WorkerPool(min_workers=4, max_workers=8) as pool:
            client, _, _ = make_pair(
                clock, pool, handlers={"connect.ping": lambda c, b: {"echo": b}}
            )
            handles = [client.call_async("connect.ping", i) for i in range(16)]
            for i, handle in enumerate(handles):
                assert handle.result() == {"echo": i}
            assert client.calls_in_flight == 0

    def test_result_is_idempotent(self, clock):
        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, _ = make_pair(
                clock, pool, handlers={"connect.ping": lambda c, b: 42}
            )
            handle = client.call_async("connect.ping")
            assert handle.result() == 42
            assert handle.result() == 42
            assert handle.done()

    def test_keepalive_answered_inline_while_workers_busy(self, clock):
        """PING never goes through the pool: liveness is provable even
        with every worker wedged (the virKeepAlive contract)."""
        gate = threading.Event()

        def wedge(conn, body):
            gate.wait(timeout=30.0)
            return None

        with WorkerPool(min_workers=1, max_workers=1) as pool:
            client, server, _ = make_pair(clock, pool, handlers={"domain.save": wedge})
            pending = client.call_async("domain.save")
            assert client.send_ping() is True
            assert server.pings_answered == 1
            gate.set()
            assert pending.result() is None


class TestInflightWindow:
    def test_calls_beyond_window_queue_then_reject(self, clock):
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)
            return body

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(
                clock,
                pool,
                handlers={"domain.save": slow},
                max_client_requests=1,
                max_queued_requests=1,
            )
            first = client.call_async("domain.save", "a")
            second = client.call_async("domain.save", "b")  # queued
            third = client.call_async("domain.save", "c")  # rejected
            with pytest.raises(RPCError, match="max_client_requests exceeded"):
                third.result()
            assert server.calls_queued == 1
            assert server.calls_rejected == 1
            assert server.inflight_calls() == 2
            gate.set()
            assert first.result() == "a"
            assert second.result() == "b"
            assert server.inflight_calls() == 0

    def test_raising_window_dispatches_queued_calls(self, clock):
        gates = {"a": threading.Event(), "b": threading.Event()}

        def slow(conn, body):
            gates[body].wait(timeout=30.0)
            return body

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(
                clock, pool, handlers={"domain.save": slow}, max_client_requests=1
            )
            first = client.call_async("domain.save", "a")
            second = client.call_async("domain.save", "b")
            assert server.calls_queued == 1
            server.set_max_client_requests(2)  # pumps the queue
            gates["b"].set()
            assert second.result() == "b"  # completes while "a" still runs
            gates["a"].set()
            assert first.result() == "a"

    def test_window_validation(self, clock):
        with pytest.raises(InvalidArgumentError, match="max_client_requests"):
            RPCServer(max_client_requests=0)
        server = RPCServer()
        with pytest.raises(InvalidArgumentError, match="max_client_requests"):
            server.set_max_client_requests(-3)

    def test_backpressure_metrics(self, clock):
        gate = threading.Event()
        metrics = MetricsRegistry(now=clock.now)

        def slow(conn, body):
            gate.wait(timeout=30.0)

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, _ = make_pair(
                clock,
                pool,
                handlers={"domain.save": slow},
                metrics=metrics,
                max_client_requests=1,
                max_queued_requests=0,
            )
            first = client.call_async("domain.save")
            second = client.call_async("domain.save")
            with pytest.raises(RPCError, match="max_client_requests"):
                second.result()
            rejected = metrics.get("rpc_server_backpressure_total").labels(
                server="rpc", outcome="rejected"
            )
            assert rejected.value == 1
            gate.set()
            first.result()


class TestDispatchMetrics:
    def test_dispatch_histogram_observes_error_path(self, clock):
        """Regression: the latency histogram used to skip failed calls,
        hiding slow-and-failing procedures from the admin stats."""
        metrics = MetricsRegistry(now=clock.now)

        def boom(conn, body):
            clock.sleep(0.25)
            raise RPCError("nope")

        client, _, _ = make_pair(clock, None, handlers={"connect.ping": boom}, metrics=metrics)
        with pytest.raises(RPCError, match="nope"):
            client.call("connect.ping")
        (labels, child), = metrics.get("rpc_server_dispatch_seconds").samples()
        assert labels["procedure"] == "connect.ping"
        summary = child.summary()
        assert summary["count"] == 1
        assert summary["sum"] == pytest.approx(0.25)

    def test_out_of_order_counter_exported(self, clock):
        gate = threading.Event()
        metrics = MetricsRegistry(now=clock.now)

        def slow(conn, body):
            gate.wait(timeout=30.0)

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, _ = make_pair(
                clock,
                pool,
                handlers={"domain.save": slow, "connect.ping": lambda c, b: b},
                metrics=metrics,
            )
            pending = client.call_async("domain.save")
            client.call("connect.ping")
            gate.set()
            pending.result()
        assert metrics.get("rpc_client_out_of_order_replies_total").value >= 1


class TestAsyncDeadlines:
    def test_lost_async_reply_charges_exactly_the_deadline(self, clock):
        """A dropped reply on the pooled path costs the caller exactly
        its deadline in modelled time — same contract as sync dispatch."""
        plan = FaultPlan().drop(direction="recv", frame=0)
        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, _ = make_pair(
                clock, pool, handlers={"connect.ping": lambda c, b: b}, plan=plan
            )
            t0 = clock.now()
            with pytest.raises(OperationTimeoutError, match="3s deadline"):
                client.call("connect.ping", timeout=3.0)
            assert clock.now() - t0 == pytest.approx(3.0)
            assert client.timeouts == 1

    def test_close_fails_calls_in_flight(self, clock):
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)

        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, channel = make_pair(clock, pool, handlers={"domain.save": slow})
            pending = client.call_async("domain.save")
            channel._server_conn.close()
            with pytest.raises(ConnectionClosedError, match="in flight"):
                pending.result()
            gate.set()  # let the worker finish; its reply is dropped


class TestFaultsOnAsyncPath:
    def test_duplicate_call_yields_single_reply(self, clock):
        """A duplicated CALL frame executes twice server-side but the
        second deferred reply is dropped — first delivery wins."""
        plan = FaultPlan().duplicate(direction="send", frame=0)
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(
                clock, pool, handlers={"connect.ping": lambda c, b: b}, plan=plan
            )
            assert client.call("connect.ping", "x") == "x"
            # the duplicate's job finishes asynchronously; wait it out
            deadline = time.monotonic() + 10.0
            while server.calls_served < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.calls_served == 2  # both executions ran
            assert client.calls_made == 1

    def test_delayed_reply_still_correlates(self, clock):
        plan = FaultPlan().delay(0.75, direction="recv", frame=0)
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, _ = make_pair(
                clock, pool, handlers={"connect.ping": lambda c, b: b}, plan=plan
            )
            assert client.call("connect.ping", "late") == "late"

    def test_severed_link_fails_pending_calls(self, clock):
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)

        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, channel = make_pair(clock, pool, handlers={"domain.save": slow})
            pending = client.call_async("domain.save", timeout=2.0)
            channel.sever()
            gate.set()
            with pytest.raises(OperationTimeoutError):
                pending.result()
            assert channel.frames_lost >= 1


class TestDecodeOnce:
    """A pooled reply is decoded by the thread that delivers it (it has
    to be, to find the serial) and the decoded message — not the bytes —
    travels to the waiter."""

    @pytest.fixture()
    def reply_unpacks(self, monkeypatch):
        """Counts ``RPCMessage.unpack`` calls on REPLY frames: only the
        client decodes those (the server's share is the CALL frames)."""
        seen = []
        real = RPCMessage.unpack

        def counting(data):
            if peek_message_type(data) == MessageType.REPLY:
                seen.append(bytes(data))
            return real(data)

        monkeypatch.setattr(RPCMessage, "unpack", staticmethod(counting))
        return seen

    def test_one_unpack_per_pooled_reply(self, clock, reply_unpacks):
        handlers = {
            "connect.ping": lambda c, b: b,
            "domain.get_info": lambda c, b: {"state": 1, "vcpus": 2},
        }
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, _ = make_pair(clock, pool, handlers=handlers)
            for i in range(10):
                assert client.call("connect.ping", i) == i
            pending = [client.call_async("domain.get_info", {"name": "a"}) for _ in range(5)]
            assert [p.result() for p in pending] == [{"state": 1, "vcpus": 2}] * 5
            assert [p.result() for p in pending] == [{"state": 1, "vcpus": 2}] * 5  # idempotent
            failing = client.call_async("domain.save")  # unregistered: an ERROR reply
            with pytest.raises(RPCError, match="not registered"):
                failing.result()
        assert client.calls_made == 16
        assert len(reply_unpacks) == 16

    def test_inline_reply_is_still_decoded_by_the_caller(self, clock, reply_unpacks):
        client, _, _ = make_pair(clock, None, handlers={"connect.ping": lambda c, b: b})
        assert client.call("connect.ping", "x") == "x"
        assert len(reply_unpacks) == 1

    def test_corrupt_pooled_reply_fails_every_pending_call(self, clock, reply_unpacks):
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)
            return body

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, channel = make_pair(clock, pool, handlers={"domain.save": slow})
            held = [client.call_async("domain.save", i) for i in range(2)]
            good = RPCMessage(
                procedure_number("domain.save"), MessageType.REPLY, held[0].serial, ReplyStatus.OK, 0
            ).pack()
            # delivered as the channel would deliver it, one body byte short
            client._on_reply_frame(good[:-1])
            gate.set()
            for pending in held:
                with pytest.raises(RPCError, match=r"unparsable reply: .*desynchronized"):
                    pending.result()
            assert channel.closed
            assert client.calls_in_flight == 0
            with pytest.raises(ConnectionClosedError):
                client.call("connect.ping")
        assert len(reply_unpacks) == 1  # the corrupt frame, tried once

    def test_duplicate_delivery_resolves_first_wins(self, clock, reply_unpacks):
        """The same serial delivered twice: the first reply answers the
        call; the second matches no outstanding call, which is a desync."""
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)
            return body

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, channel = make_pair(clock, pool, handlers={"domain.save": slow})
            pending = client.call_async("domain.save", "real")
            other = client.call_async("domain.save", "other")
            first = RPCMessage(
                procedure_number("domain.save"), MessageType.REPLY, pending.serial, ReplyStatus.OK, "first"
            ).pack()
            client._on_reply_frame(first)
            assert pending.result() == "first"
            client._on_reply_frame(first)  # duplicate: serial no longer outstanding
            gate.set()
            assert pending.result() == "first"  # the resolution did not change
            with pytest.raises(RPCError, match="matches no outstanding call"):
                other.result()
            assert channel.closed


class TestReplyWait:
    """The one-shot wait a call blocks in until its reply (or the loss
    of it) is known: several waiters, first resolution wins, and a
    real-time backstop against a wedged dispatcher."""

    def test_two_threads_collect_one_call(self, clock):
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)
            return body

        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, _ = make_pair(clock, pool, handlers={"domain.save": slow})
            pending = client.call_async("domain.save", {"k": "v"})
            got = []
            waiters = [
                threading.Thread(target=lambda: got.append(pending.result())) for _ in range(2)
            ]
            for t in waiters:
                t.start()
            time.sleep(0.05)  # both are blocked in the wait by now
            assert got == [] and not pending.done()
            gate.set()
            for t in waiters:
                t.join(timeout=5)
                assert not t.is_alive()
            assert got == [{"k": "v"}, {"k": "v"}]
            assert pending.result() == {"k": "v"}  # and a late third caller

    def test_concurrent_resolutions_first_wins(self):
        outcomes = {"reply": 0, "lost": 0}
        for _ in range(300):
            entry = _PendingCall(1, "connect.ping", None, None, False, 0.0)
            start = threading.Barrier(3)
            errors = []

            def resolve(*args, **kwargs):
                start.wait(timeout=5)
                try:
                    entry.resolve(*args, **kwargs)
                except BaseException as exc:  # a second release of the gate
                    errors.append(exc)

            racers = [
                threading.Thread(target=resolve, args=("reply",), kwargs={"reply": b"frame"}),
                threading.Thread(target=resolve, args=("lost",)),
            ]
            for t in racers:
                t.start()
            start.wait(timeout=5)
            assert entry.wait(5.0)
            seen = (entry.outcome, entry.reply)
            for t in racers:
                t.join(timeout=5)
                assert not t.is_alive()
            assert errors == []
            # exactly one outcome, whole, and the loser did not disturb it
            assert seen in (("reply", b"frame"), ("lost", None))
            assert (entry.outcome, entry.reply) == seen
            assert entry.wait(0.0)  # the gate stays open
            outcomes[seen[0]] += 1
        assert sum(outcomes.values()) == 300

    def test_unresolved_wait_times_out(self):
        entry = _PendingCall(1, "connect.ping", None, None, False, 0.0)
        assert not entry.wait(0.01)
        entry.resolve("closed", reason="gone")
        assert entry.wait(0.01) and entry.outcome == "closed"

    def test_backstop_reports_a_wedged_dispatcher(self, clock, monkeypatch):
        assert client_module.REPLY_WAIT_BACKSTOP == 60.0
        monkeypatch.setattr(client_module, "REPLY_WAIT_BACKSTOP", 0.05)
        gate = threading.Event()
        with WorkerPool(min_workers=1, max_workers=1) as pool:
            client, _, _ = make_pair(
                clock, pool, handlers={"domain.save": lambda c, b: gate.wait(timeout=30.0)}
            )
            try:
                with pytest.raises(RPCError) as caught:
                    client.call("domain.save")
            finally:
                gate.set()
        message = "no reply to domain.save after {:g}s of real time (dispatch wedged)"
        assert str(caught.value) == message.format(0.05)
        assert message.format(60.0) == (
            "no reply to domain.save after 60s of real time (dispatch wedged)"
        )


class TestDaemonSurface:
    def test_server_stats_report_window_counters(self):
        daemon = Libvirtd(hostname="stats-host", register=False)
        stats = daemon.server_stats()["rpc"]
        assert stats["max_client_requests"] == 5
        assert stats["calls_queued"] == 0
        assert stats["calls_rejected"] == 0
        assert stats["calls_inflight"] == 0
        daemon.shutdown()

    def test_daemon_window_accessors(self):
        daemon = Libvirtd(hostname="accessor-host", register=False, max_client_requests=3)
        assert daemon.get_max_client_requests() == 3
        daemon.set_max_client_requests(7)
        assert daemon.rpc.max_client_requests == 7
        with pytest.raises(InvalidArgumentError, match="no server named"):
            daemon.get_max_client_requests("nope")
        with pytest.raises(InvalidArgumentError, match="no server named"):
            daemon.set_max_client_requests(4, server="nope")
        daemon.shutdown()


    def test_inline_calls_are_served_but_are_no_pool_jobs(self):
        """``calls_served`` counts every call once on either path;
        ``jobs_completed`` is jobs the pool ran, and an inline call is none."""
        with Libvirtd(hostname="inline-stats") as daemon:
            daemon.listen("unix")
            conn = repro.open_connection("test+unix://inline-stats/default")
            before = daemon.server_stats()
            for i in range(25):
                assert conn._driver.client.call("connect.ping", i) == i
            after = daemon.server_stats()
            assert after["rpc"]["calls_served"] - before["rpc"]["calls_served"] == 25
            # connect.open is inline too: this pool has not run a job yet
            assert after["jobs_completed"] == before["jobs_completed"] == 0
            # the same _execute ran: one latency sample and one span a call
            assert after["rpc"]["procedures"]["connect.ping"]["count"] == 25
            pings = [
                s for s in daemon.tracer.export()
                if s["name"] == "rpc.dispatch" and s["attributes"]["procedure"] == "connect.ping"
            ]
            assert len(pings) == 25
            assert {s["attributes"]["queue_wait"] for s in pings} == {0.0}
            conn.close()


def thread_name(conn, body):
    return threading.current_thread().name


@pytest.mark.stress
class TestInlineRows:
    """Non-blocking rows are answered on the receiving thread; blocking
    rows, pipelining and the window behave as they did."""

    def test_pipelined_blocking_calls_still_overlap(self):
        # 0.4 s of wall for the slow call: at 0.1 s a stall of the runner
        # late in the full suite ate the whole margin below
        clock = ScaledWallClock(scale=0.02)

        def save(conn, body):
            clock.sleep(body["sleep"])
            return body["tag"]

        with WorkerPool(min_workers=8, max_workers=8) as pool:
            client, _, _ = make_pair(
                clock, pool, handlers={"domain.save": save}, max_client_requests=8
            )
            start = clock.now()
            # later calls sleep less, so replies come back against call order
            handles = [
                client.call_async("domain.save", {"tag": i, "sleep": 20.0 - 2 * i}, timeout=600.0)
                for i in range(8)
            ]
            assert not handles[0].done()
            assert [h.result() for h in handles] == list(range(8))
            makespan = clock.now() - start
        assert client.replies_out_of_order > 0
        assert makespan < 2 * 20.0  # one slow call, not the 104 s of eight in a row

    def test_pipelined_non_blocking_calls_come_back_resolved_and_in_order(self, clock):
        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(clock, pool)
            server.register("domain.get_state", lambda conn, body: body, priority=True)
            server.register("connect.ping", thread_name, priority=True)
            handles = [client.call_async("domain.get_state", i) for i in range(8)]
            assert all(h.done() for h in handles)
            assert [h.result() for h in handles] == list(range(8))
            batch = client.call_many([("domain.get_state", i) for i in range(8)])
            assert batch == list(range(8))
            assert client.call("connect.ping") == threading.current_thread().name
            assert client.replies_out_of_order == 0
            assert client.calls_in_flight == 0 and server.inflight_calls() == 0
            assert server.calls_served == 17
        assert pool.jobs_completed == 0  # read after shutdown drained the pool

    def test_a_full_window_queues_a_non_blocking_call_behind_the_others(self, clock):
        gates = {tag: threading.Event() for tag in "abc"}
        started = []

        def save(conn, body):
            started.append(body)
            gates[body].wait(timeout=30.0)
            return body

        def get_state(conn, body):
            started.append("state")
            return threading.current_thread().name

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, server, _ = make_pair(
                clock, pool, handlers={"domain.save": save}, max_client_requests=2
            )
            server.register("domain.get_state", get_state, priority=True)
            slow = {tag: client.call_async("domain.save", tag) for tag in "abc"}  # c queues
            state = client.call_async("domain.get_state")
            assert server.calls_queued == 2 and not state.done()
            gates["a"].set()
            assert slow["a"].result() == "a"  # its slot goes to c, the window is full again
            deadline = time.monotonic() + 5.0
            while len(started) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert started == ["a", "b", "c"] and not state.done()
            gates["b"].set()
            assert "worker" in state.result()  # answered from the pool, after c went in
            assert started == ["a", "b", "c", "state"]
            gates["c"].set()
            assert slow["b"].result() == "b" and slow["c"].result() == "c"
            assert server.inflight_calls() == 0
            # the window has room again: the next one never leaves this thread
            assert client.call("domain.get_state") == threading.current_thread().name

    def test_inline_readers_against_a_mutator(self, tmp_path):
        """Two connections read one guest inline while a third cycles
        it: every state read is one the guest held during that call."""
        clock = ScaledWallClock(scale=0.0005)
        backend = QemuBackend(host=SimHost(hostname="rw", clock=clock), clock=clock)

        def boot():
            qemu = QemuDriver(backend)
            daemon = Libvirtd(
                hostname="rw", drivers={"qemu": qemu, "kvm": qemu}, clock=clock,
                state_dir=str(tmp_path),
            )
            daemon.listen("unix")
            return daemon

        daemon = boot()
        xml = DomainConfig(name="g", domain_type="kvm", memory_kib=256 * 1024, vcpus=1).to_xml()
        conns = [repro.open_connection("qemu+unix://rw/system") for _ in range(3)]
        writer = conns[0]._driver
        writer.domain_define_xml(xml)
        #: (earliest, latest, state): the guest may have shown ``state``
        #: from when the call that set it began to when the next one ended
        held = [[time.monotonic(), None, int(DomainState.SHUTOFF)]]
        reads = []
        stop = time.monotonic() + 2.0
        failures = []

        def mutate():
            steps = (
                (writer.domain_define_xml, xml, DomainState.SHUTOFF),
                (writer.domain_create, "g", DomainState.RUNNING),
                (writer.domain_destroy, "g", DomainState.SHUTOFF),
            )
            try:
                while time.monotonic() < stop:
                    for call, arg, state in steps:
                        begun = time.monotonic()
                        call(arg)
                        held[-1][1] = time.monotonic()
                        held.append([begun, None, int(state)])
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        def read(conn):
            client = conn._driver.client
            try:
                while time.monotonic() < stop:
                    for procedure in ("domain.get_state", "domain.get_info"):
                        begun = time.monotonic()
                        reply = client.call(procedure, {"name": "g"})
                        state = reply if procedure == "domain.get_state" else reply["state"]
                        reads.append((begun, time.monotonic(), state))
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=mutate)] + [
            threading.Thread(target=read, args=(conn,)) for conn in conns[1:]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        assert [repr(f) for f in failures] == []
        held[-1][1] = time.monotonic()
        assert len(held) > 6 and len(reads) > 100
        for begun, ended, state in reads:
            assert any(
                state == shown and earliest <= ended and begun <= latest
                for earliest, latest, shown in held
            ), (begun, ended, state)
        assert daemon.rpc.inflight_calls() == 0
        assert all(c._driver.client.calls_in_flight == 0 for c in conns)

        # journal replay == live state
        live = (writer.list_domains(), writer.list_defined_domains(), writer.domain_get_state("g"))
        daemon.crash()
        daemon.pool.shutdown()
        reborn = boot()
        recovered = reborn.drivers["qemu"]
        assert (
            recovered.list_domains(), recovered.list_defined_domains(), recovered.domain_get_state("g")
        ) == live
        reborn.shutdown()


@pytest.mark.slow
@pytest.mark.stress
class TestSoak:
    def test_interleaved_slow_fast_calls_under_faults(self):
        """Soak: one pooled connection carrying interleaved slow and
        fast procedures under a seeded fault plan (delays + duplicate
        frames).  Every reply must land on its own call, out-of-order
        deliveries must actually happen, and nothing may desync."""
        clock = ScaledWallClock(scale=0.005)
        plan = (
            FaultPlan(seed=11)
            .delay(0.4, direction="recv", probability=0.2)
            .duplicate(direction="send", probability=0.1)
        )

        def worker_op(conn, body):
            clock.sleep(body["sleep"])
            return body["tag"]

        with WorkerPool(min_workers=8, max_workers=8) as pool:
            client, server, _ = make_pair(
                clock,
                pool,
                handlers={"domain.save": worker_op},
                plan=plan,
                max_client_requests=8,
                max_queued_requests=256,
            )
            handles = []
            for i in range(48):
                sleep = 0.6 if i % 4 == 0 else 0.05
                handles.append(
                    client.call_async(
                        "domain.save", {"tag": i, "sleep": sleep}, timeout=120.0
                    )
                )
            for i, handle in enumerate(handles):
                assert handle.result() == i
            assert client.replies_out_of_order > 0
            assert client.calls_in_flight == 0
            assert not client.dead
            assert server.calls_served >= 48  # duplicates execute too

    def test_batched_calls_under_faults(self):
        """Soak: the same seeded plan over ``call_many`` batches of 8,
        mixing pooled calls with an inline (``blocking=False``) row, so
        replies come back both deferred and inline.  Every result must
        land on its own call and nothing may desync."""
        clock = ScaledWallClock(scale=0.005)
        plan = (
            FaultPlan(seed=11)
            .delay(0.4, direction="recv", probability=0.2)
            .duplicate(direction="send", probability=0.1)
        )

        def worker_op(conn, body):
            clock.sleep(body["sleep"])
            return body["tag"]

        with WorkerPool(min_workers=8, max_workers=8) as pool:
            client, server, _ = make_pair(
                clock,
                pool,
                handlers={"domain.save": worker_op},
                plan=plan,
                max_client_requests=8,
                max_queued_requests=256,
            )
            server.register("domain.get_info", lambda conn, body: body["tag"], priority=True)
            for batch in range(6):
                tags = range(batch * 8, batch * 8 + 8)
                calls = [
                    ("domain.get_info", {"tag": i})
                    if i % 3 == 0
                    else ("domain.save", {"tag": i, "sleep": 0.6 if i % 4 == 0 else 0.05})
                    for i in tags
                ]
                assert client.call_many(calls, timeout=120.0) == list(tags)
            assert client.calls_in_flight == 0
            assert not client.dead
            assert server.calls_served >= 48
            directions = {(e.kind.value, e.direction) for e in plan.injected}
            assert directions == {("delay", "recv"), ("duplicate", "send")}
