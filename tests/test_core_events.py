"""Tests for lifecycle callbacks over the event bus and state mappings (repro.core)."""

import pytest

from repro.core.events import LIFECYCLE, EventBus, lifecycle_fields
from repro.core.states import (
    ACTIVE_STATES,
    VALID_TRANSITIONS,
    DomainEvent,
    DomainState,
    from_run_state,
    state_name,
)
from repro.errors import InvalidArgumentError
from repro.drivers.test import TestDriver
from repro.hypervisors.base import RunState


class TestStates:
    def test_numbering_matches_libvirt(self):
        assert DomainState.NOSTATE == 0
        assert DomainState.RUNNING == 1
        assert DomainState.PAUSED == 3
        assert DomainState.SHUTOFF == 5
        assert DomainState.CRASHED == 6

    def test_run_state_mapping_total(self):
        for run_state in RunState:
            assert isinstance(from_run_state(run_state), DomainState)

    def test_active_states(self):
        assert DomainState.RUNNING in ACTIVE_STATES
        assert DomainState.PAUSED in ACTIVE_STATES
        assert DomainState.SHUTOFF not in ACTIVE_STATES

    def test_transition_table_covers_lifecycle_ops(self):
        for op in ("start", "shutdown", "destroy", "suspend", "resume", "reboot", "save", "migrate"):
            assert op in VALID_TRANSITIONS

    def test_start_only_from_shutoff(self):
        assert VALID_TRANSITIONS["start"] == frozenset({DomainState.SHUTOFF})

    def test_state_names(self):
        assert state_name(DomainState.RUNNING) == "running"
        assert state_name(DomainState.SHUTOFF) == "shut off"


def announce(bus, domain, event, detail=""):
    """Publish the lifecycle record a driver mutation would."""
    return bus.publish("lifecycle", **lifecycle_fields(domain, event, detail))


def lifecycle_history(bus):
    """The bus's record history as legacy callbacks saw it."""
    return [
        (r["domain"], DomainEvent[r["event"].upper()], r["detail"])
        for r in bus.record_history
        if r["kind"] in LIFECYCLE
    ]


class TestLifecycleView:
    """A legacy lifecycle callback is a lifecycle-filtered bus subscription."""

    def test_register_emit_deregister(self):
        driver = TestDriver(seed_default=False)
        seen = []
        cb_id = driver.domain_event_register(lambda d, e, detail: seen.append((d, e, detail)))
        announce(driver.events, "web1", DomainEvent.STARTED, "booted")
        assert seen == [("web1", DomainEvent.STARTED, "booted")]
        driver.domain_event_deregister(cb_id)
        announce(driver.events, "web1", DomainEvent.STOPPED)
        assert len(seen) == 1

    def test_only_lifecycle_records_reach_a_callback(self):
        driver = TestDriver(seed_default=False)
        seen = []
        cb_id = driver.domain_event_register(lambda *event: seen.append(event))
        driver.events.publish("config", domain="web1", event="memory")
        announce(driver.events, "web1", DomainEvent.DEFINED)
        assert seen == [("web1", DomainEvent.DEFINED, "")]
        (stats,) = driver.events.subscription_stats()
        assert stats["id"] == cb_id and stats["kinds"] == ["lifecycle"]

    def test_multiple_callbacks_all_called(self):
        driver = TestDriver(seed_default=False)
        counts = [0, 0, 0]

        def make(i):
            def cb(d, e, detail):
                counts[i] += 1

            return cb

        for i in range(3):
            driver.domain_event_register(make(i))
        announce(driver.events, "d", DomainEvent.DEFINED)
        assert counts == [1, 1, 1]
        assert driver.events.bus_delivered == 3

    def test_raising_callback_does_not_block_others(self):
        driver = TestDriver(seed_default=False)
        seen = []
        driver.domain_event_register(lambda *a: (_ for _ in ()).throw(RuntimeError("boom")))
        driver.domain_event_register(lambda d, e, detail: seen.append(d))
        announce(driver.events, "d", DomainEvent.STARTED)
        assert seen == ["d"]
        assert driver.events.callback_errors == 1

    def test_deregister_unknown_id(self):
        with pytest.raises(InvalidArgumentError):
            TestDriver(seed_default=False).domain_event_deregister(42)

    def test_non_callable_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TestDriver(seed_default=False).domain_event_register("not callable")

    def test_history_recorded(self):
        """What the deleted per-callback history held, ``record_history``
        holds: the lifecycle records, projected to callback arguments."""
        bus = EventBus()
        announce(bus, "a", DomainEvent.DEFINED)
        bus.publish("config", domain="a", event="memory")
        announce(bus, "a", DomainEvent.STARTED, "booted")
        assert lifecycle_history(bus) == [
            ("a", DomainEvent.DEFINED, ""),
            ("a", DomainEvent.STARTED, "booted"),
        ]

    def test_history_bounded(self):
        bus = EventBus()
        bus._history_limit = 10
        for i in range(25):
            announce(bus, f"d{i}", DomainEvent.DEFINED)
        assert len(bus.record_history) == 10
        assert lifecycle_history(bus)[-1][0] == "d24"

    def test_callback_count(self):
        driver = TestDriver(seed_default=False)
        assert driver.events.subscription_count == 0
        cb_id = driver.domain_event_register(lambda *a: None)
        assert driver.events.subscription_count == 1
        driver.domain_event_deregister(cb_id)
        assert driver.events.subscription_count == 0
