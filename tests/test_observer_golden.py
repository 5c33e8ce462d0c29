"""Byte identity of what the daemon observes with the recorded golden.

``tests/data/observer_golden.json`` was first recorded
(``tools/record_observer_golden.py``) before the observer was made
cheaper; the scenario in ``tests/observer_scenario.py`` must still produce
the same trace export, the same flight-recorder file and the same
exposition page.  The one allowed difference is additive: ``rpc.begin``
and ``rpc.end`` records now carry a ``call`` ordinal.

It was re-recorded once, on purpose, when ``StatefulDriver`` started
journalling a mutation before publishing it: within each of the seven
journalled mutations the ``journal`` line now precedes its ``event``
line, the event lines' modelled ``t`` and their ``event.deliver`` spans
move 50 µs later (the modelled append now comes first), and the journal
lines' ``t`` move earlier by the modelled delivery they no longer wait
behind.  The bus-record count (9), the span set and the exposition page
did not change.

Its ``flightrec`` section was re-recorded a second time when the driver's
mutation funnel took over reporting to the recorder: the 7 ``journal``
and 9 ``event`` lines became 9 ``mutation`` lines, one per commit, each
written after its commit's publishes.  The ``trace``, ``metrics`` and
``bus_records`` sections are the bytes recorded before it.

It was re-recorded a third time when the event-arming procedures started
running through the daemon's driver-call wrapper: the scenario's
``connect.event_subscribe`` now leaves a ``driver.op`` span (the third
span) and a ``driver_op_seconds`` series, so every later span and trace
id, and the flight-recorder lines that carry them, move up by one, and
``span_seconds{name="driver.op"}`` counts 18 spans, not 17.  Nothing
else moved; ``bus_records`` is unchanged.
"""

import json

import pytest

from tests.observer_scenario import GOLDEN_FILE, observe


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def observed():
    return observe()


def _without_call(line):
    record = json.loads(line)
    if record["kind"] in ("rpc.begin", "rpc.end"):
        assert isinstance(record.pop("call"), int)
    assert "call" not in record
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_scenario_covers_what_the_issue_names(golden):
    dispatched = {s["attributes"]["procedure"] for s in golden["trace"] if s["name"] == "rpc.dispatch"}
    assert dispatched >= {
        "domain.define_xml", "domain.create", "domain.get_info", "domain.get_state",
        "connect.ping", "domain.lookup_by_name", "domain.suspend", "domain.resume",
        "domain.destroy", "connect.list_domains", "connect.list_defined_domains",
        "connect.get_all_domain_stats", "storage.vol_upload",
    }
    assert {s["name"] for s in golden["trace"]} == {
        "rpc.dispatch", "driver.op", "event.deliver", "stream.transfer",
    }
    assert any(s["error"] and "NoDomainError" in s["error"] for s in golden["trace"])
    # the traced client's context rode the wire: a dispatch with a remote parent
    assert any(s["name"] == "rpc.dispatch" and s["parent_id"] for s in golden["trace"])
    assert golden["bus_records"] == 9


def test_trace_export_is_identical(golden, observed):
    assert observed["trace"] == golden["trace"]


def test_flight_recorder_file_is_identical_modulo_call(golden, observed):
    assert [_without_call(line) for line in observed["flightrec"]] == golden["flightrec"]


def test_exposition_page_is_identical(golden, observed):
    assert observed["metrics"] == golden["metrics"]
    assert observed["bus_records"] == golden["bus_records"]
