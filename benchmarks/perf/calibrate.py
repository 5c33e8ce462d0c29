"""Calibration, sample normalisation, CPU pinning and the ``env`` block.

Raw wall-clock timings on a shared runner drift by tens of percent
between identical runs (frequency states, busy neighbours, steal).
Every timing this harness reports is therefore *normalised*: the run is
cut into slices, a fixed loop is timed on both sides of each slice, and
every sample taken in the slice is divided by the machine's *slowness*,
the loop's measured time over its time on a reference machine (500 ns
per iteration).  A normalised µs is a µs on that reference machine.

The loop mixes integer arithmetic with what the call path itself does
per message — a small dict and tuple built, a struct packed, a lock
taken, bytes joined.  On the box this was written on, ten runs of
``read_small`` normalised by a purely arithmetic loop
(``x += i * i % 7``) spread 2.9-4.1 % (quartile distance over median)
and ``monitor_sweep`` 7-10 %; by this loop 2.1-3.0 % and about 5 %,
while the raw figures spread 25-30 %.
"""

from __future__ import annotations

import os
import platform
import statistics
import struct
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

#: one loop iteration on the reference machine
REFERENCE_NS_PER_ITER = 500.0
CALIBRATION_ITERS = 12_000
CALIBRATION_PASSES = 3
_NAMES = [f"g{i:03d}" for i in range(64)]
_LOCK = threading.Lock()
#: a slice whose calibration exceeds this multiple of the run's minimum
#: was measured on a machine too disturbed to trust; it is not reported
DISCARD_FACTOR = 3.0

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def _loop_pass() -> int:
    names, lock, pack = _NAMES, _LOCK, struct.pack
    t0 = time.perf_counter_ns()
    x = 0
    frames: List[bytes] = []
    for i in range(CALIBRATION_ITERS):
        x += i * i % 7
        body = {"name": names[i & 63], "id": i}
        call = (i, body)
        with lock:
            frames.append(pack(">II", call[0], x & 0xFFFF))
        if i & 63 == 63:
            b"".join(frames)
            frames.clear()
    return time.perf_counter_ns() - t0


def calibrate() -> float:
    """The machine's slowness right now: measured time of the fixed loop
    (min of 3 passes) over its time on the reference machine."""
    best = min(_loop_pass() for _ in range(CALIBRATION_PASSES))
    return best / CALIBRATION_ITERS / REFERENCE_NS_PER_ITER


def factor(slowness: float) -> float:
    """Multiplier turning a raw duration into a normalised one."""
    return 1.0 / slowness


def usable_slices(calibrations: "List[float]") -> "List[bool]":
    """Which slices may be reported (calibration within 3x of the best)."""
    limit = DISCARD_FACTOR * min(calibrations)
    return [c <= limit for c in calibrations]


def pin_to_one_cpu() -> Dict[str, Any]:
    """Pin this process to the lowest CPU of its allowed set.

    Unpinned, the GIL hand-off between the client thread and the
    daemon's worker thread crosses cores; ``read_small`` then runs 2x
    slower and much noisier.  Where ``sched_setaffinity`` is missing the
    run continues unpinned and says so in ``env``.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {"pinned_cpu": None, "warning": "sched_setaffinity unavailable; running unpinned"}
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return {"pinned_cpu": allowed[0], "allowed_cpus": allowed}


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _src_line_count() -> int:
    total = 0
    for root, _dirs, files in os.walk(os.path.join(REPO, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def filesystem_of(path: str) -> str:
    """Filesystem type holding ``path`` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (path == mount or path.startswith(prefix)) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def env_block(
    pinning: Dict[str, Any],
    calibrations: "List[float]",
    state_dir: "Optional[str]" = None,
) -> Dict[str, Any]:
    """The ungated description of where and on what this run happened."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinning": pinning,
        "state_dir": state_dir,
        "state_dir_filesystem": filesystem_of(state_dir) if state_dir else None,
        "calibration_min_slowness": min(calibrations),
        "calibration_median_slowness": statistics.median(calibrations),
        "reference_ns_per_iter": REFERENCE_NS_PER_ITER,
        "src_line_count": _src_line_count(),
    }
