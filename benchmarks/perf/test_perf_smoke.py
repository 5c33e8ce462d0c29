"""Smoke test of the wall-clock harness.

Not part of the tier-1 ``testpaths``; run it explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/perf/test_perf_smoke.py

Every workload runs for about a second per phase, traced and untraced;
the test checks that what ``BENCHMARK.json`` promises is what ``run.py``
emits, and that the trace it leaves behind is well formed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_the_four_workloads():
    assert WORKLOADS == ["read_small", "lifecycle_durable", "stream_bulk", "monitor_sweep"]
    assert len(SPEC["per_layer"]) == 68
    assert "setup_s" in units("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run(workload, trace=0, seconds=1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run(workload, trace=1, seconds=4)  # the traced phase lasts 0.3 x 4 s
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    with open(os.path.join(HERE, "results", f"trace_{workload}.json")) as handle:
        trace = json.load(handle)
    ids = {span["id"] for span in trace["spans"]}
    assert ids, "no span recorded"
    assert all(span["parent"] == 0 or span["parent"] in ids for span in trace["spans"])
    assert all(span["end_ns"] >= span["start_ns"] for span in trace["spans"])
    assert trace["summary"]["unresolved_parents"] == 0
    assert trace["summary"]["negative_self_times"] == 0
    assert all(entry["self_us_per_op"] >= 0 for entry in trace["summary"]["entries"])
    if workload == "read_small":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.8


def test_a_check_that_raises_is_a_counted_failure():
    sys.path.insert(0, HERE)
    try:
        import measure
    finally:
        sys.path.remove(HERE)

    class MalformedReply:
        clients = 1

        def op(self, client, k):
            return None

        def check(self, client, k, result):
            return result["state"] == 1

    runner = measure.Runner(MalformedReply())
    phase = runner.run(0.05)
    runner.close()
    assert phase.attempted >= 1 and phase.failed == phase.attempted
    assert "TypeError" in phase.failures[0]


def test_untraced_run_leaves_no_wrapper_installed(tmp_path):
    sys.path.insert(0, HERE)
    try:
        import run as harness
        import spans
        from workloads import WORKLOADS as classes
    finally:
        sys.path.remove(HERE)
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        assert spans.installed_wrappers() == []
        metrics, info = harness.run_untraced(classes["read_small"], 7, 0.5, str(tmp_path))
        assert info["failed"] == 0 and set(metrics) == set(units("end_to_end"))
        assert spans.installed_wrappers() == []
        # and a recorder that was installed is gone without trace once removed
        recorder = spans.Recorder()
        recorder.install()
        assert spans.installed_wrappers()
        recorder.uninstall()
        assert spans.installed_wrappers() == []
    finally:
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
