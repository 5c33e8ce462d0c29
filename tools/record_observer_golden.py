#!/usr/bin/env python3
"""Write ``tests/data/observer_golden.json`` from the checked-out observer.

Run once, at PR 21 (``PYTHONPATH=src python tools/record_observer_golden.py``),
before PR 22 changed how spans, flight records and metric samples are
written.  Re-run it only for a deliberate change of what the daemon
observes: the file is what holds a cheaper observer to the same trace
export, flight-recorder lines and exposition page, byte for byte.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from tests.observer_scenario import GOLDEN_FILE, observe

GOLDEN_FILE.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
print(f"wrote {GOLDEN_FILE}")
