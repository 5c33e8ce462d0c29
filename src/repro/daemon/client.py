"""Daemon-side client bookkeeping."""

from __future__ import annotations

from contextlib import suppress
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import VirtError
from repro.rpc.transport import ServerConnection


class ClientRecord:
    """One connected client as the daemon sees it."""

    def __init__(
        self,
        client_id: int,
        conn: ServerConnection,
        connected_since: float,
        server: str = "libvirtd",
    ) -> None:
        self.id = client_id
        self.conn = conn
        self.connected_since = connected_since
        #: which daemon-internal server accepted this client
        self.server = server
        #: clock time of the last call (drives keepalive reaping)
        self.last_activity = connected_since
        #: which local driver this client's connect.open bound it to
        self.driver: Optional[object] = None
        #: pushed EVENT frame id -> (driver subscription id, the driver
        #: method ending it), for each kind of push this client armed
        self.push: Dict[int, Tuple[int, Callable[[int], None]]] = {}
        #: domains whose background jobs this client started; an unclean
        #: disconnect fails these so the domain is not left wedged
        self.owned_jobs: set = set()
        self.calls = 0

    def release(self, event_id: int) -> None:
        """End this client's ``event_id`` push subscription, if it holds one."""
        sub_id, unsubscribe = self.push.pop(event_id, (None, None))
        if unsubscribe is not None:
            with suppress(VirtError):
                unsubscribe(sub_id)

    @property
    def transport(self) -> str:
        return self.conn.identity.get("transport", "unknown")

    @property
    def identity(self) -> Dict[str, Any]:
        return dict(self.conn.identity)

    def summary(self) -> Dict[str, Any]:
        """The ``client-list`` row."""
        return {
            "id": self.id,
            "transport": self.transport,
            "connected_since": self.connected_since,
            "calls": self.calls,
            "server": self.server,
        }

    def info(self) -> Dict[str, Any]:
        """The ``client-info`` detail view (transport-dependent fields)."""
        data = self.summary()
        data.update(self.identity)
        return data
