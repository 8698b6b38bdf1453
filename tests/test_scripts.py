"""The scripts in scripts/, run as their own processes: their count
options take non-negative integers, as the CLI's do, and a count of
zero runs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, option", [
    ("fuzz_sweep.py", "--trials"),
    ("fuzz_sweep.py", "--budget"),
    ("fuzz_sweep.py", "--depths"),
    ("check_overhead.py", "--programs"),
    ("check_overhead.py", "--depth"),
    ("check_overhead.py", "--budget"),
])
def test_negative_count_is_a_usage_error(script, option):
    done = _run(script, option, "-3")
    assert done.returncode == 2
    assert f"argument {option}: expected a non-negative integer, got '-3'" \
        in done.stderr
    assert done.stdout == ""


def test_a_depth_list_holds_only_counts():
    done = _run("fuzz_sweep.py", "--depths", "2,x")
    assert done.returncode == 2
    assert "expected a non-negative integer, got 'x'" in done.stderr


def test_fuzz_sweep_prints_a_cell_of_no_trials():
    done = _run("fuzz_sweep.py", "--trials", "0", "--depths", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "0 trials per cell, budget 10000, base seed 1"
    assert lines[3].split()[:10] == ["2", "2"] + ["0", "0.0%"] * 4
    assert lines[-1] == "no violations"


def test_check_overhead_runs_no_programs():
    done = _run("check_overhead.py", "--programs", "0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "0 programs at depth 5, seed 1", "outcome (with checks -> without):"]
