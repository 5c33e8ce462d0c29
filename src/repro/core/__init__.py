"""The uniform management API — the paper's primary contribution."""

from repro.core.connection import Connection, open_connection
from repro.core.domain import Domain, DomainInfo
from repro.core.driver import (
    FEATURES,
    Driver,
    open_driver,
    register_driver,
    register_remote_driver,
    registered_schemes,
)
from repro.core.network import Network
from repro.core.states import ACTIVE_STATES, DomainEvent, DomainState, state_name
from repro.core.storage import PoolInfo, StoragePool, Volume, VolumeInfo
from repro.core.uri import ConnectionURI

__all__ = [
    "Connection",
    "open_connection",
    "Domain",
    "DomainInfo",
    "Driver",
    "FEATURES",
    "register_driver",
    "register_remote_driver",
    "registered_schemes",
    "open_driver",
    "Network",
    "StoragePool",
    "Volume",
    "PoolInfo",
    "VolumeInfo",
    "DomainState",
    "DomainEvent",
    "ACTIVE_STATES",
    "state_name",
    "ConnectionURI",
]
