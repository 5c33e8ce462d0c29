"""End-to-end distributed tracing: SpanContext on the wire, cross-thread
propagation through the async dispatch pipeline, and the trace query
surfaces (admin procedures + pyvirt-admin trace commands)."""

import io
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.admin import admin_open
from repro.cli.virt_admin import main as admin_main
from repro.daemon.libvirtd import Libvirtd
from repro.errors import InvalidArgumentError, RPCError
from repro.observability.export import render_trace_tree
from repro.observability.tracing import SpanContext, Tracer
from repro.rpc.client import RPCClient
from repro.rpc.protocol import MessageType, RPCMessage
from repro.rpc.server import RPCServer
from repro.rpc.transport import Listener
from repro.rpc.xdr import encode_value
from repro.util.clock import VirtualClock
from repro.util.threadpool import WorkerPool
from repro.xmlconfig.domain import DomainConfig

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def clock():
    return VirtualClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(clock.now)


def make_pair(clock, pool, tracer, handlers=None, client_tracer=None):
    server = RPCServer(pool=pool, tracer=tracer)
    for name, fn in (handlers or {}).items():
        server.register(name, fn)
    listener = Listener("unix", clock=clock)
    channel = listener.connect()
    server.attach(channel._server_conn)
    client = RPCClient(channel, tracer=client_tracer)
    return client, server, channel


# ---------------------------------------------------------------------------
# SpanContext + wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_trace_field_round_trips(self):
        message = RPCMessage(15, MessageType.CALL, 7, body={"name": "d"})
        message.trace = {"trace_id": 41, "span_id": 42}
        decoded = RPCMessage.unpack(message.pack())
        assert decoded.trace == {"trace_id": 41, "span_id": 42}
        assert decoded.body == {"name": "d"}
        assert decoded.serial == 7

    def test_contextless_frame_bytes_unchanged(self):
        """A frame without trace context is byte-identical to the
        pre-tracing wire format — old peers parse it untouched."""
        with_field = RPCMessage(15, MessageType.CALL, 7, body={"name": "d"})
        assert with_field.trace is None
        baseline = RPCMessage(15, MessageType.CALL, 7, body={"name": "d"}).pack()
        assert with_field.pack() == baseline
        assert RPCMessage.unpack(baseline).trace is None

    def test_malformed_trace_degrades_to_none(self):
        message = RPCMessage(61, MessageType.CALL, 1)
        message.trace = {"trace_id": 5, "span_id": 6}
        packed = bytearray(message.pack())
        decoded = RPCMessage.unpack(bytes(packed))
        assert decoded.trace is not None
        # a context with the wrong shape parses but yields no context
        odd = RPCMessage(61, MessageType.CALL, 2)
        odd.trace = {"trace_id": 5}  # span_id missing
        assert RPCMessage.unpack(odd.pack()).trace is None

    @pytest.mark.parametrize(
        "extra", [None, 7, "41:42", [41, 42], {"trace_id": "41", "span_id": 42}, {"trace_id": 41}]
    )
    def test_well_formed_value_of_the_wrong_shape_is_no_context(self, extra):
        """docs/PROTOCOL.md, "Trace context": served as if untraced."""
        frame = bytearray(RPCMessage(61, MessageType.CALL, 3, body={"name": "d"}).pack())
        frame += encode_value(extra)
        frame[:4] = len(frame).to_bytes(4, "big")
        decoded = RPCMessage.unpack(bytes(frame))
        assert decoded.trace is None
        assert decoded.body == {"name": "d"} and decoded.serial == 3

    @pytest.mark.parametrize(
        "tail, why",
        [
            (b"\x00\x00\x00\x63", "unknown XDR value tag 99"),
            (encode_value({"trace_id": 41, "span_id": 42})[:-4], "XDR underrun"),
            (b"\x00\x00", "XDR underrun"),
            (encode_value({"trace_id": 41, "span_id": 42}) + b"\x00" * 4, "trailing bytes"),
        ],
    )
    def test_undecodable_trailing_bytes_fail_the_frame(self, tail, why):
        """...whereas damage the length word covers is damage: strict."""
        frame = bytearray(RPCMessage(61, MessageType.CALL, 3, body={"name": "d"}).pack())
        frame += tail
        frame[:4] = len(frame).to_bytes(4, "big")
        with pytest.raises(RPCError, match=why):
            RPCMessage.unpack(bytes(frame))

    def test_from_wire_validation(self):
        assert SpanContext.from_wire({"trace_id": 3, "span_id": 4}) == SpanContext(3, 4)
        assert SpanContext.from_wire(None) is None
        assert SpanContext.from_wire({"trace_id": 3}) is None
        assert SpanContext.from_wire({"trace_id": 0, "span_id": 4}) is None
        assert SpanContext.from_wire({"trace_id": True, "span_id": 4}) is None
        assert SpanContext.from_wire("3:4") is None


# ---------------------------------------------------------------------------
# Tracer context API
# ---------------------------------------------------------------------------


class TestContextAPI:
    def test_attach_detach_restores_previous(self, tracer):
        first = SpanContext(1, 2)
        second = SpanContext(3, 4)
        token = tracer.attach(first)
        assert tracer.current_context() == first
        inner = tracer.attach(second)
        assert inner == first
        assert tracer.current_context() == second
        tracer.detach(inner)
        assert tracer.current_context() == first
        tracer.detach(token)
        assert tracer.current_context() is None

    def test_attached_context_parents_new_spans(self, tracer):
        ctx = SpanContext(1000, 2000)
        token = tracer.attach(ctx)
        try:
            with tracer.span("child") as child:
                assert child.trace_id == 1000
                assert child.parent_id == 2000
        finally:
            tracer.detach(token)
        # stack wins over the attached context
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id

    def test_explicit_parent_counts_as_propagated(self, tracer):
        with tracer.span("local"):
            pass
        assert tracer.spans_propagated == 0
        with tracer.span("adopted", parent=SpanContext(7, 8)) as span:
            assert span.trace_id == 7
            assert span.parent_id == 8
        assert tracer.spans_propagated == 1

    def test_detached_spans_stay_siblings(self, tracer):
        """start_span never touches the thread stack: two pipelined
        calls from one thread must not nest under each other."""
        a = tracer.start_span("rpc.call", serial=1)
        b = tracer.start_span("rpc.call", serial=2)
        assert tracer.current is None
        assert b.parent_id is None
        assert b.trace_id != a.trace_id
        # out-of-order finish is fine for detached spans
        tracer.finish_span(b)
        tracer.finish_span(a)
        assert tracer.spans_finished == 2
        assert tracer.spans_failed == 0

    def test_finish_span_is_idempotent(self, tracer):
        span = tracer.start_span("once")
        tracer.finish_span(span)
        end = span.end
        tracer.finish_span(span, error="late")
        assert span.end == end
        assert span.error is None
        assert tracer.spans_finished == 1

    def test_span_ids_unique_across_tracers(self, clock):
        left, right = Tracer(clock.now), Tracer(clock.now)
        spans = [left.start_span("a"), right.start_span("b"), left.start_span("c")]
        ids = {span.span_id for span in spans}
        assert len(ids) == 3


class TestOrphanedSpans:
    def test_out_of_order_exit_buffers_orphans(self, tracer, clock):
        """Exiting an enclosing span finishes the spans opened after it
        as marked orphans instead of silently discarding them."""
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        mid = tracer.span("mid")
        clock.advance(1.0)
        outer.__exit__(None, None, None)
        assert tracer.current is None
        assert tracer.spans_finished == 3
        assert tracer.spans_orphaned == 2
        names = {s.name: s for s in tracer.finished_spans()}
        assert "orphaned" in names["inner"].error
        assert "outer" in names["mid"].error
        assert names["outer"].error is None
        # late exits of the orphaned managers are no-ops
        inner.__exit__(None, None, None)
        mid.__exit__(None, None, None)
        assert tracer.spans_finished == 3

    def test_orphans_count_as_failed(self, tracer):
        outer = tracer.span("outer")
        tracer.span("inner")
        outer.__exit__(None, None, None)
        assert tracer.spans_failed == 1
        assert tracer.spans_orphaned == 1


class TestThreadIsolation:
    def test_workerpool_threads_keep_distinct_stacks(self, tracer):
        """Concurrent spans on pool threads never see each other."""
        start = threading.Barrier(4, timeout=10.0)
        errors = []

        def job(index):
            try:
                with tracer.span("worker", index=index) as mine:
                    start.wait()
                    assert tracer.current is mine
                    with tracer.span("nested") as child:
                        assert child.parent_id == mine.span_id
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        with WorkerPool(min_workers=4, max_workers=4) as pool:
            futures = [pool.submit(job, i) for i in range(4)]
            for future in futures:
                future.result(timeout=10.0)
        assert not errors
        assert tracer.spans_finished == 8
        roots = [s for s in tracer.find("worker")]
        assert len({s.trace_id for s in roots}) == 4


# ---------------------------------------------------------------------------
# Propagation through the RPC pipeline
# ---------------------------------------------------------------------------


class TestRPCPropagation:
    def test_dispatch_adopts_wire_context(self, clock, tracer):
        with WorkerPool(min_workers=2, max_workers=2) as pool:
            client, server, _ = make_pair(
                clock, pool, tracer,
                handlers={"connect.ping": lambda c, b: b},
                client_tracer=tracer,
            )
            assert client.call("connect.ping", "x") == "x"
        call = tracer.find("rpc.call")[0]
        dispatch = tracer.find("rpc.dispatch")[0]
        assert dispatch.trace_id == call.trace_id
        assert dispatch.parent_id == call.span_id
        assert call.attributes["status"] == "ok"
        assert dispatch.attributes["status"] == "ok"
        assert dispatch.attributes["serial"] == call.attributes["serial"]
        assert "queue_wait" in dispatch.attributes
        assert tracer.spans_propagated == 1

    def test_untraced_client_keeps_local_roots(self, clock, tracer):
        """No context on the wire: the server roots its own trace,
        exactly the pre-propagation behaviour."""
        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, _ = make_pair(
                clock, pool, tracer, handlers={"connect.ping": lambda c, b: b}
            )
            client.call("connect.ping")
        dispatch = tracer.find("rpc.dispatch")[0]
        assert dispatch.parent_id is None
        assert tracer.spans_propagated == 0

    def test_out_of_order_replies_preserve_parentage(self, clock, tracer):
        """Two pipelined calls finish in reverse order; each dispatch
        span still parents under its own rpc.call span."""
        gate = threading.Event()

        def slow(conn, body):
            gate.wait(timeout=30.0)
            return "slow"

        with WorkerPool(min_workers=2, max_workers=4) as pool:
            client, _, _ = make_pair(
                clock, pool, tracer,
                handlers={"domain.save": slow, "connect.ping": lambda c, b: b},
                client_tracer=tracer,
            )
            pending_slow = client.call_async("domain.save")
            assert client.call("connect.ping", "fast") == "fast"
            gate.set()
            assert pending_slow.result() == "slow"
        calls = {s.attributes["procedure"]: s for s in tracer.find("rpc.call")}
        dispatches = {s.attributes["procedure"]: s for s in tracer.find("rpc.dispatch")}
        for procedure in ("domain.save", "connect.ping"):
            assert dispatches[procedure].parent_id == calls[procedure].span_id
            assert dispatches[procedure].trace_id == calls[procedure].trace_id
        assert calls["domain.save"].trace_id != calls["connect.ping"].trace_id

    def test_error_outcome_recorded_on_both_sides(self, clock, tracer):
        def boom(conn, body):
            raise InvalidArgumentError("nope")

        with WorkerPool(min_workers=1, max_workers=2) as pool:
            client, _, _ = make_pair(
                clock, pool, tracer,
                handlers={"domain.create": boom},
                client_tracer=tracer,
            )
            with pytest.raises(InvalidArgumentError):
                client.call("domain.create")
        call = tracer.find("rpc.call")[0]
        dispatch = tracer.find("rpc.dispatch")[0]
        assert call.attributes["status"] == "error"
        assert dispatch.attributes["status"] == "error"
        assert "nope" in dispatch.error
        assert dispatch.parent_id == call.span_id

    @pytest.mark.parametrize("failing", ["rpc.begin", "rpc.end"])
    def test_a_failing_flight_record_still_finishes_the_dispatch_span(self, clock, tracer, failing):
        """A flight record can raise (its state directory's append can):
        the dispatch span is finished with that error all the same, so it
        is neither left in flight nor left on the thread's stack."""

        class FailingRecorder:
            def record(self, event, **fields):
                if event == failing:
                    raise OSError("state directory full")

        client, server, _ = make_pair(
            clock, None, tracer, handlers={"connect.ping": lambda c, b: b}
        )
        server.recorder = FailingRecorder()
        with pytest.raises(OSError):
            client.call("connect.ping")
        (dispatch,) = tracer.find("rpc.dispatch")
        assert dispatch.finished
        assert "state directory full" in dispatch.error
        assert tracer.open_spans() == []
        assert tracer.current is None
        assert tracer.current_context() is None

    def test_poolless_server_propagates_inline(self, clock, tracer):
        client, _, _ = make_pair(
            clock, None, tracer,
            handlers={"connect.ping": lambda c, b: b},
            client_tracer=tracer,
        )
        client.call("connect.ping")
        dispatch = tracer.find("rpc.dispatch")[0]
        call = tracer.find("rpc.call")[0]
        assert dispatch.parent_id == call.span_id


# ---------------------------------------------------------------------------
# End-to-end: remote driver against a pooled daemon
# ---------------------------------------------------------------------------


@pytest.fixture()
def daemon(clock):
    daemon = Libvirtd(hostname="tracenode", clock=clock)
    daemon.listen("unix")
    daemon.enable_admin()
    yield daemon
    daemon.shutdown()


def traced_connection(daemon):
    conn = repro.open_connection("test+unix://tracenode/default")
    conn._driver.tracer = daemon.tracer
    conn._driver.client.tracer = daemon.tracer
    return conn


class TestEndToEnd:
    def test_remote_domain_create_is_one_trace(self, daemon):
        conn = traced_connection(daemon)
        try:
            daemon.tracer.reset()
            domain = conn.define_domain(
                DomainConfig(name="traced", domain_type="test", memory_kib=1 << 20)
            )
            domain.start()
        finally:
            conn.close()
        creates = [
            s for s in daemon.tracer.find("rpc.call")
            if s.attributes["procedure"] == "domain.create"
        ]
        assert len(creates) == 1
        call = creates[0]
        spans = daemon.tracer.spans(trace_id=call.trace_id)
        by_name = {s.name: s for s in spans}
        # one trace: client call -> server dispatch -> driver op
        assert set(by_name) == {"rpc.call", "rpc.dispatch", "driver.op"}
        assert by_name["rpc.dispatch"].parent_id == call.span_id
        assert by_name["driver.op"].parent_id == by_name["rpc.dispatch"].span_id
        assert by_name["driver.op"].attributes["procedure"] == "domain.create"
        # the client span envelops the server ones in modelled time
        assert call.start <= by_name["rpc.dispatch"].start
        assert call.end >= by_name["rpc.dispatch"].end

    def test_admin_trace_get_returns_one_tree(self, daemon):
        conn = traced_connection(daemon)
        try:
            daemon.tracer.reset()
            conn._driver.ping()
        finally:
            conn.close()
        trace_id = daemon.tracer.find("rpc.call")[0].trace_id
        admin = admin_open("tracenode")
        try:
            rows = admin.trace_list()
            assert any(row["trace_id"] == trace_id for row in rows)
            row = [r for r in rows if r["trace_id"] == trace_id][0]
            assert row["root"] == "rpc.call"
            assert row["open"] == 0
            spans = admin.trace_get(trace_id)
        finally:
            admin.close()
        assert {s["name"] for s in spans} >= {"rpc.call", "rpc.dispatch"}
        tree = render_trace_tree(spans)
        lines = tree.splitlines()
        assert lines[0].startswith("rpc.call")
        assert any(line.startswith("  rpc.dispatch") for line in lines)

    def test_trace_get_unknown_id_errors(self, daemon):
        admin = admin_open("tracenode")
        try:
            with pytest.raises(InvalidArgumentError):
                admin.trace_get(999999999)
        finally:
            admin.close()

    def test_reset_stats_keeps_inflight_trace(self, daemon):
        """reset-stats drops finished spans but an in-flight trace keeps
        accumulating and completes intact."""
        tracer = daemon.tracer
        tracer.reset()
        outer = tracer.start_span("migration", phase="perform")
        with tracer.span("noise"):
            pass
        assert tracer.spans_finished == 1
        admin = admin_open("tracenode")
        try:
            admin.reset_stats()
        finally:
            admin.close()
        # the reset-stats dispatch itself may have spanned since; the
        # pre-reset "noise" span is gone either way
        assert "noise" not in {s.name for s in tracer.finished_spans()}
        assert tracer.spans_open >= 1
        # the in-flight span is still queryable and still parents children
        live = daemon.trace_get(outer.trace_id)
        assert live[0]["end"] is None
        with tracer.span("child", parent=outer.context) as child:
            assert child.trace_id == outer.trace_id
        tracer.finish_span(outer)
        spans = tracer.spans(trace_id=outer.trace_id)
        assert {s.name for s in spans} == {"migration", "child"}
        assert all(s.finished for s in spans)

    def test_span_metrics_emitted(self, daemon):
        conn = traced_connection(daemon)
        try:
            conn._driver.ping()
        finally:
            conn.close()
        page = daemon.metrics_text()
        assert 'span_seconds_count{name="rpc.dispatch"}' in page
        assert "spans_propagated_total" in page

    def test_server_stats_tracing_block_extended(self, daemon):
        conn = traced_connection(daemon)
        try:
            conn._driver.ping()
        finally:
            conn.close()
        tracing = daemon.server_stats()["tracing"]
        for key in (
            "spans_started", "spans_finished", "spans_failed",
            "spans_orphaned", "spans_propagated", "spans_open",
        ):
            assert key in tracing
        assert tracing["spans_propagated"] >= 1


class TestCLI:
    def run_admin(self, *argv):
        out = io.StringIO()
        code = admin_main(["-c", "tracenode", *argv], out=out)
        return code, out.getvalue()

    def test_trace_list_and_get(self, daemon):
        conn = traced_connection(daemon)
        try:
            daemon.tracer.reset()
            conn._driver.ping()
        finally:
            conn.close()
        trace_id = daemon.tracer.find("rpc.call")[0].trace_id
        code, output = self.run_admin("trace-list")
        assert code == 0
        assert str(trace_id) in output
        assert "rpc.call" in output
        code, output = self.run_admin("trace-get", str(trace_id))
        assert code == 0
        assert output.splitlines()[0].startswith(f"Trace {trace_id}:")
        assert "  rpc.dispatch" in output
        code, output = self.run_admin("trace-get", str(trace_id), "--json")
        assert code == 0
        assert '"span_id"' in output

    def test_trace_get_unknown_fails(self, daemon, capsys):
        code = admin_main(
            ["-c", "tracenode", "trace-get", "424242"], out=io.StringIO()
        )
        assert code == 1
        assert "424242" in capsys.readouterr().err

    def test_server_stats_line_keeps_prefix(self, daemon):
        code, output = self.run_admin("server-stats")
        assert code == 0
        assert "Tracing: started=" in output
        assert "propagated=" in output


class TestLintScript:
    def test_repo_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_tracing.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_flags_direct_stack_access(self, tmp_path):
        bad = tmp_path / "bad.py"
        # concatenated so this test file itself stays lint-clean
        bad.write_text("stack = tracer" + "._local.state.stack\n")
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_tracing.py"), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "bad.py:1" in result.stderr

    def test_flags_thread_local_in_observability(self, tmp_path):
        pkg = tmp_path / "observability"
        pkg.mkdir()
        bad = pkg / "shadow.py"
        bad.write_text("import threading\nstate = threading.local()\n")
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_tracing.py"), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert "shadow.py:2" in result.stderr
