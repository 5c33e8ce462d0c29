"""Every example script must run cleanly end to end."""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert "quickstart.py" in EXAMPLES
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} produced no output"


def test_quickstart_output_mentions_lifecycle(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "web1 is running" in output
    assert "events observed:" in output
    assert "web1: started" in output


def test_multi_hypervisor_shows_all_four(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "multi_hypervisor.py"), run_name="__main__")
    output = capsys.readouterr().out
    for kind in ("qemu/kvm", "xen", "lxc", "esx"):
        assert kind in output
    assert "container start is" in output


def test_consolidation_frees_hosts(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "consolidation.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "before consolidation:" in output
    assert "live migrations:" in output
    assert "hosts freed" in output


def test_remote_management_enforces_limits(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "remote_management.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "client limit" in output
    assert "forcefully disconnected" in output


def test_storage_provisioning_protects_base(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "storage_provisioning.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "golden image protected" in output
