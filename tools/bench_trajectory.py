#!/usr/bin/env python3
"""Print the measured trajectory: parent and change medians per PR.

Every ``BENCH_<pr>.json`` at the repo root holds one JSON object a line,
one line a run of ``benchmarks/perf/run.py``, tagged with the ``side``
(``parent`` or ``change``) it measured.  For each file, in PR order, and
each workload in it, this prints the median of each end-to-end metric
named in ``BENCHMARK.json`` on both sides, and the change against the
parent.  Only untraced ``parent``/``change`` runs count: a ``--trace 1``
run measures the tracer too, and a row tagged ``experiment`` measured
something other than the PR's parent against its change.  The PRs in
``NOT_RERUN`` were measured before runs were committed; they get a row
saying so, and no numbers.

    python tools/bench_trajectory.py            # the files beside this repo's BENCHMARK.json
    python tools/bench_trajectory.py DIR        # the files in DIR (with DIR/BENCHMARK.json)
    python tools/bench_trajectory.py --metric latency_p50_us_norm   # one metric (README's table)
    python tools/bench_trajectory.py --readme   # rewrite README.md's table in place
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import sys
from typing import Dict, List, Optional

REPO = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: PRs whose runs were reported in CHANGES.md but never committed
NOT_RERUN = (11, 12, 15)
#: README.md's table: this metric's output between these two lines
README_METRIC = "latency_p50_us_norm"
README_BEGIN = f"<!-- python tools/bench_trajectory.py --metric {README_METRIC} -->"
README_END = "<!-- end of bench_trajectory output -->"

#: {file name: {workload: {side: {metric: (median, runs)}}}}
Trajectory = Dict[str, Dict[str, Dict[str, Dict[str, "tuple[float, int]"]]]]


def _pr_number(path: pathlib.Path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else -1


def end_to_end_metrics(root: pathlib.Path) -> List[str]:
    """The end-to-end metric names, in ``BENCHMARK.json``'s order."""
    contract = json.loads((root / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in contract["end_to_end"]]


def trajectory(root: pathlib.Path = REPO) -> Trajectory:
    """Per file, workload and side: each metric's median and run count."""
    metrics = end_to_end_metrics(root)
    result: Trajectory = {}
    for path in sorted(root.glob("BENCH_*.json"), key=_pr_number):
        samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("side") not in SIDES or row.get("trace") or "experiment" in row:
                continue
            by_metric = samples.setdefault(row["workload"], {}).setdefault(row["side"], {})
            for name in metrics:
                if name in row.get("metrics", {}):
                    by_metric.setdefault(name, []).append(float(row["metrics"][name]["value"]))
        result[path.name] = {
            workload: {
                side: {name: (statistics.median(values), len(values)) for name, values in by_metric.items()}
                for side, by_metric in sides.items()
            }
            for workload, sides in samples.items()
        }
    return result


def _change(parent: float, change: float) -> str:
    return f"{(change - parent) / parent * 100:+.1f} %" if parent else ""


def _fmt(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def render(table: Trajectory, metrics: List[str], not_rerun: "tuple[int, ...]" = ()) -> List[str]:
    lines = [f"{'file':<14}{'workload':<19}{'metric':<21}{'parent':>14}{'change':>14}{'delta':>10}  runs"]
    lines += [f"{f'PR {pr}':<14}reported in CHANGES.md, not re-run" for pr in not_rerun]
    for name, workloads in table.items():
        for workload, sides in workloads.items():
            for metric in metrics:
                cells: List[Optional[tuple]] = [sides.get(side, {}).get(metric) for side in SIDES]
                if cells == [None, None]:
                    continue
                shown = [f"{_fmt(cell[0]) if cell else '-':>14}" for cell in cells]
                delta = _change(cells[0][0], cells[1][0]) if all(cells) else ""
                runs = "/".join(str(cell[1]) if cell else "0" for cell in cells)
                lines.append(f"{name:<14}{workload:<19}{metric:<21}{shown[0]}{shown[1]}{delta:>10}  {runs}")
    return lines


def readme_block(lines: List[str]) -> List[str]:
    """The README lines that go between the markers for ``lines``."""
    return ["```text", *lines, "```"]


def rewrite_readme(path: pathlib.Path, lines: List[str]) -> None:
    """Put ``lines`` between the README markers in ``path``, in place."""
    text = path.read_text().splitlines()
    try:
        begin, end = text.index(README_BEGIN), text.index(README_END)
    except ValueError:
        raise SystemExit(f"{path}: no {README_BEGIN!r} ... {README_END!r} block") from None
    text[begin + 1 : end] = readme_block(lines)
    path.write_text("\n".join(text) + "\n")


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Print each BENCH_<pr>.json's parent and change medians per workload.",
    )
    parser.add_argument(
        "root", nargs="?", type=pathlib.Path, default=None,
        help="directory with the BENCH_*.json files and BENCHMARK.json (default: this repo)",
    )
    shown = parser.add_mutually_exclusive_group()
    shown.add_argument(
        "--metric", action="append", help="print only this end-to-end metric (repeatable)"
    )
    shown.add_argument(
        "--readme", nargs="?", type=pathlib.Path, const=REPO / "README.md", metavar="FILE",
        help=f"rewrite the {README_METRIC} table between FILE's markers in place "
        "(default FILE: this repo's README.md)",
    )
    args = parser.parse_args(argv)
    root, not_rerun = (args.root, ()) if args.root is not None else (REPO, NOT_RERUN)
    metrics = [README_METRIC] if args.readme else args.metric or end_to_end_metrics(root)
    lines = render(trajectory(root), metrics, not_rerun)
    if args.readme:
        rewrite_readme(args.readme, lines)
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
