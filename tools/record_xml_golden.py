#!/usr/bin/env python3
"""Write ``tests/data/xml_golden/`` from the checked-out ``to_xml()``.

Run once, at PR 17 (``PYTHONPATH=src python tools/record_xml_golden.py``),
when every ``to_xml()`` still built an ``ElementTree``.  Re-run it only
for a deliberate change of document format: the files are what holds the
direct writers to that output byte for byte.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from tests.xml_golden_corpus import GOLDEN_DIR, corpus

GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
for name, config in corpus().items():
    # bytes, not text: a value's "\r" must reach the file untranslated
    (GOLDEN_DIR / name).write_bytes(config.to_xml().encode("utf-8"))
    print(f"wrote {GOLDEN_DIR / name}")
