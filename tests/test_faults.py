"""The fault-injection harness: scripted plans against the transport.

Every scenario runs on the virtual clock — a "hang" is a deterministic
jump of modelled time, never a wall-clock wait.
"""

import pytest

from repro.errors import (
    ConnectionClosedError,
    InvalidArgumentError,
    TransportHangError,
    TransportStalledError,
)
from repro.faults import FaultKind, FaultPlan, FaultRule
from repro.rpc.transport import HANG_SECONDS, Listener
from repro.util.clock import VirtualClock


@pytest.fixture()
def clock():
    return VirtualClock()


def echo_channel(clock, transport="unix"):
    listener = Listener(transport, clock=clock)
    channel = listener.connect()
    channel._server_conn.set_handler(lambda data: b"echo:" + data)
    return listener, channel


class TestFaultRule:
    def test_frame_pinned_rule_fires_once_by_default(self):
        plan = FaultPlan().drop(frame=2)
        assert plan.decide("send", 2, 0.0).kind is FaultKind.DROP
        assert plan.decide("send", 2, 0.0).kind is None  # spent

    def test_after_rule_is_unlimited(self):
        plan = FaultPlan().drop(after=1)
        assert plan.decide("send", 0, 0.0).kind is None
        for frame in (1, 2, 3):
            assert plan.decide("send", frame, 0.0).kind is FaultKind.DROP

    def test_direction_filtering(self):
        plan = FaultPlan().drop(frame=0, direction="recv")
        assert plan.decide("send", 0, 0.0).kind is None
        assert plan.decide("recv", 0, 0.0).kind is FaultKind.DROP

    def test_both_direction_matches_either(self):
        plan = FaultPlan().delay(0.5, direction="both")
        assert plan.decide("send", 0, 0.0).kind is FaultKind.DELAY
        assert plan.decide("recv", 1, 0.0).kind is FaultKind.DELAY

    def test_probability_is_seeded_and_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed=seed).drop(probability=0.3)
            return [plan.decide("send", i, 0.0).kind is FaultKind.DROP for i in range(50)]

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert 5 <= sum(run(7)) <= 25  # roughly 30% of 50

    def test_times_caps_probabilistic_rule(self):
        plan = FaultPlan().drop(probability=1.0, times=2)
        hits = sum(plan.decide("send", i, 0.0).kind is FaultKind.DROP for i in range(10))
        assert hits == 2

    def test_rule_validation(self):
        with pytest.raises(InvalidArgumentError):
            FaultRule(FaultKind.DROP, frame=1, probability=0.5)
        with pytest.raises(InvalidArgumentError):
            FaultRule(FaultKind.DROP, direction="sideways")
        with pytest.raises(InvalidArgumentError):
            FaultRule(FaultKind.DELAY)  # needs a positive delay
        with pytest.raises(InvalidArgumentError):
            FaultRule(FaultKind.DROP, probability=1.5)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan().delay(1.0, frame=0).drop(frame=0)
        assert plan.decide("send", 0, 0.0).kind is FaultKind.DELAY

    def test_audit_trail_records_frame_and_time(self):
        plan = FaultPlan().drop(frame=3)
        plan.decide("send", 3, 12.5)
        assert plan.faults_injected == 1
        event = plan.injected_of(FaultKind.DROP)[0]
        assert event.frame == 3
        assert event.time == 12.5
        assert event.direction == "send"


class TestChannelInjection:
    def test_drop_without_bound_hangs_for_a_modelled_day(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        t0 = clock.now()
        with pytest.raises(TransportHangError):
            channel.call_bytes(b"\x00\x00\x00\x08ping")
        assert clock.now() - t0 >= HANG_SECONDS
        assert channel.frames_lost == 1

    def test_drop_with_bound_charges_exactly_the_wait(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        bound = clock.now() + 2.0
        with pytest.raises(TransportStalledError):
            channel.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=bound)
        assert clock.now() == pytest.approx(bound)

    def test_delay_adds_latency_but_delivers(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().delay(0.25, frame=0))
        t0 = clock.now()
        reply = channel.call_bytes(b"\x00\x00\x00\x08ping")
        assert reply == b"echo:\x00\x00\x00\x08ping"
        assert clock.now() - t0 >= 0.25

    def test_duplicate_charges_double_send_traffic(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().duplicate(frame=0))
        payload = b"\x00\x00\x00\x08ping"
        reply = channel.call_bytes(payload)
        assert reply == b"echo:" + payload  # duplicate's reply discarded
        assert channel.bytes_sent == 2 * len(payload)
        assert channel._server_conn.bytes_in == 2 * len(payload)

    def test_corrupt_flips_one_byte_past_the_length_prefix(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan(seed=3).corrupt(frame=0))
        payload = b"\x00\x00\x00\x10payload-bytes"
        reply = channel.call_bytes(payload)
        echoed = reply[len(b"echo:") :]
        assert echoed != payload
        assert echoed[:4] == payload[:4]  # length prefix untouched
        diffs = [i for i, (a, b) in enumerate(zip(echoed, payload)) if a != b]
        assert len(diffs) == 1

    def test_sever_cuts_silently_and_later_frames_stall(self, clock):
        listener, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().sever(frame=1))
        assert channel.call_bytes(b"\x00\x00\x00\x08ping") is not None
        with pytest.raises(TransportStalledError):
            channel.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)
        # the cable was pulled, not closed: the client side was never told
        assert channel.severed and not channel.closed
        assert channel._server_conn.closed
        assert listener.active_connections == 0
        with pytest.raises(TransportStalledError):
            channel.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)

    def test_blackhole_silences_every_channel_sharing_the_plan(self, clock):
        listener = Listener("tcp", clock=clock)
        plan = FaultPlan().blackhole(frame=2)
        listener.install_fault_plan(plan)
        a = listener.connect()
        b = listener.connect()
        for ch in (a, b):
            ch._server_conn.set_handler(lambda data: b"ok")
        assert a.call_bytes(b"\x00\x00\x00\x08ping") == b"ok"
        assert a.call_bytes(b"\x00\x00\x00\x08ping") == b"ok"
        with pytest.raises(TransportStalledError):
            a.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)
        assert plan.blackholed
        with pytest.raises(TransportStalledError):
            b.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)
        plan.restore()
        assert a.call_bytes(b"\x00\x00\x00\x08ping") == b"ok"
        assert b.call_bytes(b"\x00\x00\x00\x08ping") == b"ok"

    def test_recv_drop_loses_only_the_reply(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().drop(frame=0, direction="recv"))
        with pytest.raises(TransportStalledError):
            channel.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)
        # the request DID reach the server before its reply was lost
        assert channel._server_conn.bytes_in > 0

    def test_listener_plan_applies_to_new_channels(self, clock):
        listener = Listener("unix", clock=clock)
        listener.install_fault_plan(FaultPlan().drop(frame=0))
        channel = listener.connect()
        channel._server_conn.set_handler(lambda data: b"ok")
        with pytest.raises(TransportStalledError):
            channel.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)
        # frame-pinned rule already fired: a reconnected channel is clean
        fresh = listener.connect()
        fresh._server_conn.set_handler(lambda data: b"ok")
        assert fresh.call_bytes(b"\x00\x00\x00\x08ping") == b"ok"


class TestAccounting:
    """Satellite: dead-link frames must not count as delivered traffic."""

    def test_closed_peer_detected_before_charging_traffic(self, clock):
        _, channel = echo_channel(clock)
        channel._server_conn.closed = True
        t0 = clock.now()
        with pytest.raises(ConnectionClosedError):
            channel.call_bytes(b"\x00\x00\x00\x08ping")
        assert channel.bytes_sent == 0
        assert clock.now() == t0  # no latency charged either
        assert channel.closed  # and the channel learned it is dead

    def test_stalled_frame_counts_as_lost_not_sent(self, clock):
        _, channel = echo_channel(clock)
        channel.install_fault_plan(FaultPlan().drop(frame=0))
        with pytest.raises(TransportStalledError):
            channel.call_bytes(b"\x00\x00\x00\x08ping", wait_bound=clock.now() + 1.0)
        assert channel.bytes_sent == 0
        assert channel.frames_lost == 1
        assert channel.frames_sent == 1


class TestOneFaultStep:
    """A batched CALL frame meets the fault plan exactly as a single one."""

    PAYLOAD = b"\x00\x00\x00\x08ping"

    @pytest.mark.parametrize("direction", ["send", "recv"])
    @pytest.mark.parametrize("kind", ["drop", "delay", "duplicate", "corrupt"])
    def test_single_and_batched_frames_meet_the_same_fault(self, clock, kind, direction):
        def run(send):
            plan = FaultPlan(seed=5)
            if kind == "delay":
                plan.delay(0.25, frame=1, direction=direction)
            else:
                getattr(plan, kind)(frame=1, direction=direction)
            _, channel = echo_channel(clock)
            channel.install_fault_plan(plan)
            outcomes = send(channel, [self.PAYLOAD] * 3)
            injected = [(e.kind.value, e.direction, e.frame) for e in plan.injected]
            return outcomes, injected, channel._server_conn.bytes_in

        single = run(lambda channel, frames: [channel.send_request(f) for f in frames])
        batched = run(lambda channel, frames: channel.send_batch(frames))
        assert single == batched
        outcomes, injected, _bytes_in = single
        assert injected == [(kind, direction, 1)]
        lost = "lost" if kind == "drop" else "reply"
        assert [status for status, _reply in outcomes] == ["reply", lost, "reply"]

    def test_a_severing_frame_cuts_a_batch_where_it_cuts_single_calls(self, clock):
        def run(send):
            plan = FaultPlan().sever(frame=1)
            _, channel = echo_channel(clock)
            server = channel._server_conn
            channel.install_fault_plan(plan)
            outcomes = send(channel, [self.PAYLOAD] * 3)
            injected = [(e.kind.value, e.direction, e.frame) for e in plan.injected]
            return outcomes, injected, server.bytes_in

        single = run(lambda channel, frames: [channel.send_request(f) for f in frames])
        batched = run(lambda channel, frames: channel.send_batch(frames))
        assert single == batched
        outcomes, injected, bytes_in = single
        assert [status for status, _reply in outcomes] == ["reply", "lost", "lost"]
        assert injected == [("sever", "send", 1)]
        assert bytes_in == len(self.PAYLOAD)
