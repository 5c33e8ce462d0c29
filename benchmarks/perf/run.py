#!/usr/bin/env python3
"""Real wall-clock benchmark of the management call path.

One run of one workload (what the benchmark driver invokes)::

    python3 benchmarks/perf/run.py --workload read_small --seed 1 --seconds 25 --trace 0

prints every end-to-end metric by name with its unit (``--trace 1``:
every per-layer metric), checks every output, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs the whole set, each workload three times in fresh
subprocesses (medians reported), then one short traced run each; ``--aa``
runs the set twice on the same code, prints the differences beside each
metric's bound and fails when one is outside it.
See ``README.md`` in this directory for what every name means.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
for _path in (os.path.join(REPO, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

try:
    import repro  # noqa: F401 - proves the program under test is present
except ImportError as exc:  # the benchmark without the program measures nothing
    sys.stderr.write(f"run.py: cannot import the program under test from {REPO}/src: {exc}\n")
    sys.exit(2)

import calibrate  # noqa: E402
import measure  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up is repeated and its median reported, so one slow fixture build
#: does not move ``setup_s``
SETUP_REPEATS = 31
WARMUP_SECONDS = 1.0
#: the full-set mode runs each workload this often and reports each metric's
#: median, so a set measures 3 x ``--seconds`` per workload
TRIALS = 3
#: shares of ``--seconds`` in a traced run
TRACE_BASELINE, TRACE_TRACER_OFF, TRACE_ALLOC, TRACE_TRACED, TRACE_PROBES = 0.25, 0.15, 0.05, 0.30, 0.25
MAX_SPANS = 600_000

_now = time.perf_counter_ns
#: (metrics by name, the ungated info block)
Measured = Tuple[Dict[str, float], Dict[str, Any]]


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def wire_bytes(workload: Any) -> int:
    return sum(ch.bytes_sent + ch.bytes_received for ch in workload.channels())


def finish(workload: Any, phases: "List[measure.Phase]") -> "Tuple[int, int, List[str]]":
    """Whole-run checks and teardown; returns (attempted, failed, problems)."""
    problems: List[str] = []
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        problems.extend(phase.failures)
    for name, ok, detail in workload.final_checks():
        print(f"  check {name:<32} {'ok' if ok else 'FAILED'}  ({detail})")
        if not ok:
            problems.append(f"final check {name} failed: {detail}")
            failed += 1
    workload.teardown()
    return attempted, failed, problems


# -- one untraced run: the end-to-end metrics ------------------------------------


def run_untraced(cls: Any, seed: int, seconds: float, workdir: str) -> "Measured":
    pinning = calibrate.pin_to_one_cpu()
    setups_norm, setups_raw = [], []
    workload = None
    slowness = calibrate.calibrate()
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
            workload = None  # let go of the old fixture before building the next
        t0 = _now()
        workload = cls(seed, workdir)
        workload.setup()
        elapsed = (_now() - t0) / 1e9
        before, slowness = slowness, calibrate.calibrate()
        setups_raw.append(elapsed)
        setups_norm.append(elapsed * calibrate.factor((before + slowness) / 2.0))
    runner = measure.Runner(workload)
    warmup = runner.run(WARMUP_SECONDS)
    wire_before = wire_bytes(workload)
    phase = runner.run(seconds)
    wire_after = wire_bytes(workload)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.close()
    attempted, failed, problems = finish(workload, [warmup, phase])
    summary = measure.latency_summary(phase)
    metrics = {
        "throughput_norm": summary["throughput_norm"],
        "latency_p50_us_norm": summary["latency_p50_us_norm"],
        "latency_p99_us_norm": summary["latency_p99_us_norm"],
        "wire_bytes_per_op": (wire_after - wire_before) / phase.attempted,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median(setups_norm),
    }
    info = {
        "workload": cls.name,
        "seed": seed,
        "seconds": seconds,
        "clients": cls.clients,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "samples": summary["samples"],
        "slices": summary["slices"],
        "slices_discarded": summary["slices_discarded"],
        "p99_samples_beyond": summary["p99_samples_beyond"],
        "raw": {
            "throughput_1/s": summary["raw_throughput"],
            "latency_p50_us": summary["raw_latency_p50_us"],
            "latency_p99_us": summary["raw_latency_p99_us"],
            "setup_s_median": statistics.median(setups_raw),
            "setup_s_all": setups_raw,
        },
        "env": calibrate.env_block(pinning, phase.calibrations, workload.state_dir),
    }
    return metrics, info


# -- one traced run: the per-layer metrics --------------------------------------------


def _p50(phase: "measure.Phase") -> float:
    return measure.latency_summary(phase)["latency_p50_us_norm"]


def run_traced(cls: Any, seed: int, seconds: float, workdir: str) -> "Measured":
    pinning = calibrate.pin_to_one_cpu()
    phases: List[measure.Phase] = []

    # 1. no wrapper installed: this workload's p50 with the daemon's own
    #    tracer on, then off, then heap use per op
    workload = cls(seed, workdir)
    workload.setup()
    runner = measure.Runner(workload)
    phases.append(runner.run(WARMUP_SECONDS))
    baseline = runner.run(seconds * TRACE_BASELINE)
    daemon = workload.daemon
    tracer = daemon.tracer
    daemon.tracer = daemon.rpc.tracer = None
    tracer_off = runner.run(seconds * TRACE_TRACER_OFF)
    daemon.tracer = daemon.rpc.tracer = tracer
    heap: List[int] = []

    def counting_heap(client: int, k: int) -> Any:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return workload.op(client, k)
        finally:
            heap.append(tracemalloc.get_traced_memory()[1] - before)

    runner.call = counting_heap
    tracemalloc.start()
    heap_phase = runner.run(seconds * TRACE_ALLOC)
    tracemalloc.stop()
    runner.close()
    counters = workload.counters()
    phases += [baseline, tracer_off, heap_phase]
    attempted, failed, problems = finish(workload, phases)

    # 2. wrappers installed before the daemon is built: spans per layer
    recorder = spans.Recorder()
    recorder.install()
    try:
        workload = cls(seed, workdir)
        workload.setup()
        runner = measure.Runner(workload, call=recorder.traced_call(workload.op))
        warm = runner.run(WARMUP_SECONDS)
        stalls_before = recorder.credit_stalls
        traced = runner.run(seconds * TRACE_TRACED, until=lambda: len(recorder.spans) > MAX_SPANS)
        stalls = recorder.credit_stalls - stalls_before
        runner.close()
        more_attempted, more_failed, more_problems = finish(workload, [warm, traced])
    finally:
        recorder.uninstall()
    attempted, failed = attempted + more_attempted, failed + more_failed
    problems += more_problems
    leftover = spans.installed_wrappers()
    if leftover:
        failed += 1
        problems.append(f"wrappers left installed: {leftover[:3]}")

    # normalise each op's spans by the slice the op started in
    slowness = traced.slice_calibrations()
    usable = calibrate.usable_slices(slowness)
    scales = [calibrate.factor(c) if ok else None for ok, c in zip(usable, slowness)]
    factor_of_op = {}
    for span in recorder.spans:
        if span[1] == 0 and span[4] >= traced.slice_starts[0]:
            scale = scales[bisect.bisect_right(traced.slice_starts, span[4]) - 1]
            if scale is not None:
                factor_of_op[span[0]] = scale
    analysis = spans.analyse(recorder, factor_of_op)
    os.makedirs(RESULTS, exist_ok=True)
    spans.dump(recorder, os.path.join(RESULTS, f"trace_{cls.name}.json"), analysis)

    # 3. isolated probes
    probed = probes.run_probes(seed, workdir, seconds * TRACE_PROBES)

    p50_untraced, p50_tracer_off, p50_traced = _p50(baseline), _p50(tracer_off), _p50(traced)
    metrics: Dict[str, float] = {}
    for layer, figures in analysis["layers"].items():
        metrics[f"{layer}.self_us_per_op"] = figures["self_us_per_op"]
        metrics[f"{layer}.calls_per_op"] = figures["calls_per_op"]
    metrics["util.threadpool.wait_us_per_op"] = analysis["pool_wait_us_per_op"]
    metrics["rpc.server.window_wait_us_per_op"] = analysis["window_wait_us_per_op"]
    metrics["trace.coverage"] = analysis["coverage"]
    metrics["trace.overhead_ratio"] = p50_traced / p50_untraced
    metrics.update(probed)
    # 0 where the workload makes no cache lookups / opens no stream
    metrics["core.cache.hit_ratio"] = counters.get("core.cache.hit_ratio", 0.0)
    metrics["observability.tracing.overhead_ratio"] = p50_untraced / p50_tracer_off
    metrics["stream.core.credit_stalls_per_op"] = stalls / analysis["ops"]
    metrics["alloc.kib_per_op"] = statistics.fmean(heap) / 1024.0
    info = {
        "workload": cls.name,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "traced_ops": analysis["ops"],
        "spans": analysis["spans"],
        "op_us_traced": analysis["op_us"],
        "p50_us_untraced": p50_untraced,
        "p50_us_tracer_off": p50_tracer_off,
        "p50_us_traced": p50_traced,
        "unresolved_parents": analysis["unresolved_parents"],
        "negative_self_times": analysis["negative_self_times"],
        "shares": {layer: figures["share"] for layer, figures in analysis["layers"].items()},
        "top_entries": analysis["entries"][:12],
        "env": calibrate.env_block(pinning, traced.calibrations, workload.state_dir),
    }
    return metrics, info


# -- reporting ------------------------------------------------------------------------


def run_single(name: str, seed: int, seconds: float, traced: bool) -> int:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    workdir = os.path.join(RESULTS, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(traced)}")
    try:
        metrics, info = (run_traced if traced else run_untraced)(WORKLOADS[name], seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if sorted(metrics) != sorted(expected):
        raise SystemExit(f"metrics emitted {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}")
    samples = info.get("samples", info.get("traced_ops"))
    for metric in expected:
        print(f"  {metric:<44} {metrics[metric]:>14.4f} {units[metric]:<6} n={samples}")
    if traced:
        print(f"  shares of a traced op of {info['op_us_traced']:.1f} us:")
        for layer, share in sorted(info["shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<28} {100 * share:6.2f} %")
    else:
        print(f"  {'error_rate':<44} {info['error_rate']:>14.6f} {'fraction':<6} "
              f"({info['failed']} failed / {info['attempted']} attempted)")
    for problem in info["problems"]:
        print(f"  PROBLEM {problem}")
    print("  info " + json.dumps(info, sort_keys=True))
    correct = info["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in expected},
    }))
    return 0 if correct else 1


def spawn(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One workload in a fresh subprocess (own RSS, own daemon registry)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(f"    {line}\n" for line in lines[:-1]))
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit_code"] = done.returncode
    return result


def layer_share(metrics: Dict[str, Any], layers: "Tuple[str, ...]") -> float:
    """Share of an op spent in ``layers``, rebuilt from the emitted metrics."""
    def value(name: str) -> float:
        return metrics[name]["value"]

    accounted = sum(value(f"{layer}.self_us_per_op") for layer in spans.LAYERS)
    accounted += value("util.threadpool.wait_us_per_op") + value("rpc.server.window_wait_us_per_op")
    op_us = accounted / value("trace.coverage")
    return sum(value(f"{layer}.self_us_per_op") for layer in layers) / op_us


def run_set(seed: int, seconds: float, aa: bool) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    sets: List[Dict[str, Dict[str, float]]] = []
    for set_index in range(2 if aa else 1):
        medians = {}
        for name in names:
            trials = []
            for trial in range(TRIALS):
                print(f"== {name} (set {set_index + 1}, trial {trial + 1} of {TRIALS})")
                trials.append(spawn(name, seed, seconds, traced=False))
                ok = ok and trials[-1]["correct"] and trials[-1]["exit_code"] == 0
            medians[name] = {
                metric["name"]: statistics.median(
                    t["metrics"].get(metric["name"], {}).get("value", float("nan")) for t in trials
                )
                for metric in spec["end_to_end"]
            }
        sets.append(medians)
    traced = {}
    for name in names:
        print(f"== {name} (traced)")
        traced[name] = spawn(name, seed, max(4.0, seconds / 4), traced=True)
        ok = ok and traced[name]["correct"] and traced[name]["exit_code"] == 0
    print(f"\n== end-to-end metrics (median of {TRIALS} runs of {seconds:g} s)")
    outside = []
    for metric in spec["end_to_end"]:
        for name in names:
            values = [medians[name][metric["name"]] for medians in sets]
            line = f"  {name:<18} {metric['name']:<22} " + " ".join(f"{v:>12.4f}" for v in values)
            line += f" {metric['unit']:<6}"
            if aa:
                diff = abs(values[1] - values[0]) / values[0]
                within = diff <= metric["bound"]
                if not within:
                    outside.append(f"{name} {metric['name']}")
                line += f"  A/A diff {100 * diff:6.2f} %  bound {100 * metric['bound']:5.1f} %"
                line += "  within" if within else "  OUTSIDE"
            print(line)
    if aa:
        cells = len(names) * len(spec["end_to_end"])
        print(f"\nA/A: {cells - len(outside)} of {cells} cells within their bounds"
              + (f"; outside: {', '.join(outside)}" if outside else ""))
    if ok:
        print("\n== separation of the workloads (share of a traced op)")
        groups = (
            ("state.journal + observability.flightrec + core.events",
             ("state.journal", "observability.flightrec", "core.events")),
            ("rpc.client + rpc.server + util.threadpool + daemon.libvirtd",
             ("rpc.client", "rpc.server", "util.threadpool", "daemon.libvirtd")),
            ("xmlconfig.domain + rpc.xdr", ("xmlconfig.domain", "rpc.xdr")),
        )
        for title, layers in groups:
            shares = "  ".join(f"{n} {100 * layer_share(traced[n]['metrics'], layers):5.1f} %" for n in names)
            print(f"  {title}\n      {shares}")
    print("\nall outputs correct" if ok else "\nFAILED: a run was incorrect or did not finish")
    if outside:
        print("FAILED: two sets of the same code differ by more than a bound")
    return 0 if ok and not outside else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--aa", action="store_true", help="run the whole set twice and compare")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_set(args.seed, seconds, args.aa)
    return run_single(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
