#!/usr/bin/env python3
"""Write ``tests/data/observer_golden.json`` from the checked-out observer.

Usage: ``PYTHONPATH=src python tools/record_observer_golden.py``.  Re-run
it only for a deliberate change of what the daemon observes: the file
holds the trace export, flight-recorder lines and exposition page of
``tests/observer_scenario.py`` byte for byte.  Flight-recorder lines are
stored without the ``call`` ordinal of ``rpc.begin``/``rpc.end``, which
``tests/test_observer_golden.py`` strips before comparing.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from tests.observer_scenario import GOLDEN_FILE, observe


def without_call(line):
    record = json.loads(line)
    record.pop("call", None)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


observed = observe()
observed["flightrec"] = [without_call(line) for line in observed["flightrec"]]
GOLDEN_FILE.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
print(f"wrote {GOLDEN_FILE}")
