"""Tests for transport channels (repro.rpc.transport)."""

import pytest

from repro.errors import (
    AuthenticationError,
    ConnectionClosedError,
    InvalidArgumentError,
)
from repro.rpc.transport import TRANSPORT_SPECS, Listener, TransportSpec, spec_for
from repro.util.clock import VirtualClock


@pytest.fixture()
def clock():
    return VirtualClock()


def echo_listener(clock, **kwargs):
    listener = Listener("unix", clock=clock, **kwargs)
    return listener


def attach_echo(channel):
    channel._server_conn.set_handler(lambda data: b"echo:" + data)


class TestSpecs:
    def test_known_transports(self):
        for name in ("local", "unix", "tcp", "tls", "ssh", "libssh2"):
            assert spec_for(name).name == name

    def test_unknown_transport_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spec_for("carrier-pigeon")

    def test_latency_ordering_matches_paper(self):
        """in-process < unix < tcp < tls < ssh, both connect and per-message."""
        order = ["local", "unix", "tcp", "tls", "ssh"]
        connects = [TRANSPORT_SPECS[t].connect_latency for t in order]
        messages = [TRANSPORT_SPECS[t].per_message_latency for t in order]
        assert connects == sorted(connects)
        assert messages == sorted(messages)
        assert connects[0] < connects[-1]

    def test_encrypted_flags(self):
        assert TRANSPORT_SPECS["tls"].encrypted
        assert TRANSPORT_SPECS["ssh"].encrypted
        assert not TRANSPORT_SPECS["tcp"].encrypted

    def test_message_latency_scales_with_size(self):
        spec = TRANSPORT_SPECS["tcp"]
        assert spec.message_latency(1 << 20) > spec.message_latency(64)

    def test_invalid_spec_params_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TransportSpec("x", -1, 0, 1, False, True)
        with pytest.raises(InvalidArgumentError):
            TransportSpec("x", 0, 0, 0, False, True)


class TestConnect:
    def test_connect_charges_handshake(self, clock):
        listener = Listener("tls", clock=clock)
        listener.connect()
        assert clock.now() == pytest.approx(TRANSPORT_SPECS["tls"].connect_latency)

    def test_identity_defaults_local(self, clock):
        listener = echo_listener(clock)
        channel = listener.connect({"username": "admin", "uid": 1000, "pid": 42})
        identity = channel._server_conn.identity
        assert identity["transport"] == "unix"
        assert identity["username"] == "admin"
        assert identity["unix_user_id"] == 1000
        assert identity["unix_process_id"] == 42

    def test_identity_defaults_remote(self, clock):
        listener = Listener("tcp", clock=clock)
        channel = listener.connect({"addr": "10.0.0.5:5123"})
        assert channel._server_conn.identity["sock_addr"] == "10.0.0.5:5123"

    def test_authenticator_can_refuse(self, clock):
        def auth(creds):
            if creds.get("password") != "s3cret":
                raise AuthenticationError("bad password")
            return {"sasl_user_name": creds["username"]}

        listener = Listener("tcp", clock=clock, authenticator=auth)
        with pytest.raises(AuthenticationError):
            listener.connect({"username": "eve", "password": "nope"})
        assert listener.rejected == 1
        channel = listener.connect({"username": "bob", "password": "s3cret"})
        assert channel._server_conn.identity["sasl_user_name"] == "bob"
        assert listener.accepted == 1

    def test_on_accept_veto(self, clock):
        def deny(conn):
            raise ConnectionClosedError("server full")

        listener = Listener("unix", clock=clock, on_accept=deny)
        with pytest.raises(ConnectionClosedError):
            listener.connect()
        assert listener.active_connections == 0
        assert listener.rejected == 1


class TestCalls:
    def test_round_trip_bytes(self, clock):
        listener = echo_listener(clock)
        channel = listener.connect()
        attach_echo(channel)
        assert channel.call_bytes(b"ping") == b"echo:ping"
        assert channel.bytes_sent == 4
        assert channel.bytes_received == 9

    def test_call_charges_two_way_latency(self, clock):
        listener = Listener("tcp", clock=clock)
        channel = listener.connect()
        attach_echo(channel)
        t0 = clock.now()
        channel.call_bytes(b"x" * 1000)
        elapsed = clock.now() - t0
        spec = TRANSPORT_SPECS["tcp"]
        expected = spec.message_latency(1000) + spec.message_latency(1005)
        assert elapsed == pytest.approx(expected)

    def test_call_on_closed_channel(self, clock):
        listener = echo_listener(clock)
        channel = listener.connect()
        attach_echo(channel)
        channel.close()
        with pytest.raises(ConnectionClosedError):
            channel.call_bytes(b"ping")

    def test_server_side_force_close(self, clock):
        """The client-disconnect admin path: daemon kills the connection."""
        listener = echo_listener(clock)
        channel = listener.connect()
        attach_echo(channel)
        channel._server_conn.close()
        assert listener.active_connections == 0
        with pytest.raises(ConnectionClosedError):
            channel.call_bytes(b"ping")

    def test_byte_accounting_on_server(self, clock):
        listener = echo_listener(clock)
        channel = listener.connect()
        attach_echo(channel)
        channel.call_bytes(b"abcd")
        conn = channel._server_conn
        assert conn.bytes_in == 4
        assert conn.bytes_out == 9


class TestEvents:
    def test_server_push_reaches_client(self, clock):
        listener = echo_listener(clock)
        channel = listener.connect()
        attach_echo(channel)
        received = []
        channel.set_event_handler(received.append)
        channel._server_conn.push(b"event!")
        assert received == [b"event!"]
        assert channel.bytes_received == 6

    def test_a_gather_frame_counts_as_its_joined_length(self, clock):
        from repro.rpc.protocol import MessageType, ReplyStatus, RPCMessage

        listener = echo_listener(clock)
        channel = listener.connect()
        attach_echo(channel)
        received = []
        channel.set_event_handler(received.append)
        frame = RPCMessage(5, MessageType.STREAM, 1, ReplyStatus.CONTINUE, b"chunk").gather()
        channel._server_conn.push(frame)
        assert received == [frame]  # handed over as it was pushed, never joined
        assert channel.bytes_received == channel._server_conn.bytes_out == len(b"".join(frame))

    def test_push_on_closed_connection_rejected(self, clock):
        listener = echo_listener(clock)
        channel = listener.connect()
        conn = channel._server_conn
        channel.close()
        with pytest.raises(ConnectionClosedError):
            conn.push(b"x")


class TestListenerBookkeeping:
    def test_active_connections_tracked(self, clock):
        listener = echo_listener(clock)
        channels = [listener.connect() for _ in range(3)]
        assert listener.active_connections == 3
        channels[0].close()
        assert listener.active_connections == 2
        listener.close_all()
        assert listener.active_connections == 0
        for channel in channels:
            assert channel.closed
