"""Fleet-scale management: many daemons behind one client.

The package stacks three layers on the single-connection core:

* :class:`~repro.fleet.manager.FleetManager` — pooled, health-checked,
  auto-reopened connections to every daemon URI;
* :class:`~repro.fleet.registry.FleetRegistry` — fleet-wide domain
  look-ups read through each host's event-invalidated client cache;
* :class:`~repro.fleet.orchestrator.FleetOrchestrator` — placement-aware
  mass operations: drain, rebalance, rolling restart.
"""

from repro.fleet.manager import FleetError, FleetManager, HostEntry
from repro.fleet.orchestrator import (
    DrainReport,
    FleetOrchestrator,
    MigrationOutcome,
    RebalanceReport,
    RestartReport,
)
from repro.fleet.registry import FleetRegistry

__all__ = [
    "DrainReport",
    "FleetError",
    "FleetManager",
    "FleetOrchestrator",
    "FleetRegistry",
    "HostEntry",
    "MigrationOutcome",
    "RebalanceReport",
    "RestartReport",
]
