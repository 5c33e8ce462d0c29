"""Tests for tools/bench_trajectory.py — the per-PR parent/change medians."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "bench_trajectory.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_committed_file_yields_both_sides_for_a_workload(tool):
    files = sorted(path.name for path in REPO.glob("BENCH_*.json"))
    table = tool.trajectory(REPO)
    assert sorted(table) == files and files
    metrics = tool.end_to_end_metrics(REPO)
    for name in files:
        paired = [
            workload
            for workload, sides in table[name].items()
            if all(set(sides.get(side, {})) == set(metrics) for side in ("parent", "change"))
        ]
        assert paired, f"{name} has no workload measured on both sides"


def run(workload, side, value, **tags):
    metrics = {"throughput_norm": {"value": value, "unit": "1/s"}}
    return json.dumps({"workload": workload, "side": side, "metrics": metrics, **tags})


def test_only_untraced_parent_and_change_rows_count(tool, tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    rows = [
        run("w", "parent", 10.0),
        run("w", "parent", 30.0),
        run("w", "parent", 20.0),
        run("w", "change", 40.0),
        run("w", "change", 1000.0, trace=1),
        run("w", "change", 1000.0, experiment="id_lock"),
        run("w", "lock", 1000.0),
    ]
    (tmp_path / "BENCH_9.json").write_text("\n".join(rows) + "\n")
    (tmp_path / "BENCH_10.json").write_text(run("v", "change", 5.0) + "\n")
    table = tool.trajectory(tmp_path)
    assert list(table) == ["BENCH_9.json", "BENCH_10.json"]
    assert table["BENCH_9.json"] == {
        "w": {"parent": {"throughput_norm": (20.0, 3)}, "change": {"throughput_norm": (40.0, 1)}}
    }
    lines = tool.render(table, tool.end_to_end_metrics(tmp_path))
    assert any(line.split()[:3] == ["BENCH_9.json", "w", "throughput_norm"] and "+100.0 %" in line for line in lines)
    assert any(line.split()[:5] == ["BENCH_10.json", "v", "throughput_norm", "-", "5"] for line in lines)


def test_script_prints_the_committed_trajectory(tool):
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()[1:]
    rerun = [line for line in lines if not line.startswith("PR ")]
    assert {line.split()[0] for line in rerun} == {path.name for path in REPO.glob("BENCH_*.json")}
    # the PRs measured before runs were committed: named, never back-filled
    assert lines[: len(tool.NOT_RERUN)] == [
        f"{f'PR {pr}':<14}reported in CHANGES.md, not re-run" for pr in tool.NOT_RERUN
    ]
    assert tool.NOT_RERUN == (11, 12, 15)
    assert not any((REPO / f"BENCH_{pr}.json").exists() for pr in tool.NOT_RERUN)


def test_readme_table_is_the_tool_output():
    """README.md's table is what ``--metric latency_p50_us_norm`` prints
    today: a new or edited ``BENCH_*.json`` needs ``--readme`` run again."""
    result = subprocess.run(
        [sys.executable, str(TOOL), "--metric", "latency_p50_us_norm"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    readme = (REPO / "README.md").read_text().splitlines()
    begin = readme.index("<!-- python tools/bench_trajectory.py --metric latency_p50_us_norm -->")
    end = readme.index("<!-- end of bench_trajectory output -->")
    assert readme[begin + 1 : end] == ["```text", *result.stdout.splitlines(), "```"]


def test_help_exits_zero_and_an_unknown_flag_exits_two():
    shown = subprocess.run([sys.executable, str(TOOL), "--help"], capture_output=True, text=True)
    assert shown.returncode == 0 and "--readme" in shown.stdout
    refused = subprocess.run([sys.executable, str(TOOL), "--no-such-flag"], capture_output=True, text=True)
    assert refused.returncode == 2 and "unrecognized arguments" in refused.stderr


def test_readme_mode_rewrites_the_block_in_place_and_is_idempotent(tool, tmp_path):
    readme = tmp_path / "README.md"
    lines = (REPO / "README.md").read_text().splitlines()
    begin, end = lines.index(tool.README_BEGIN), lines.index(tool.README_END)
    stale = lines[: begin + 1] + ["```text", "a stale table", "```"] + lines[end:]
    readme.write_text("\n".join(stale) + "\n")
    for _ in range(2):
        result = subprocess.run([sys.executable, str(TOOL), "--readme", str(readme)], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        assert readme.read_text() == (REPO / "README.md").read_text()


def test_readme_mode_refuses_a_file_without_the_markers(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("no table here\n")
    result = subprocess.run([sys.executable, str(TOOL), "--readme", str(readme)], capture_output=True, text=True)
    assert result.returncode != 0 and "no " in result.stderr
    assert readme.read_text() == "no table here\n"
