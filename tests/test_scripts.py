"""Smoke tests for the entry points under ``scripts/``: each runs in a fresh
interpreter on this tree and prints what its docstring promises."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cremona

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, seconds=60):
    env = dict(os.environ, PYTHONPATH=str(Path(cremona.__file__).parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, timeout=seconds, env=env)


def test_search_models_reaches_cubics():
    proc = run_script("search_models.py")
    assert proc.returncode == 0, proc.stderr
    found = re.findall(r"^(.*): HNF-basis degree (\d+) -> searched degree (\d+)$",
                       proc.stdout, re.M)
    assert found == [("order-3 cubic family", "4", "3"),
                     ("paired order-3 family", "3", "3"),
                     ("order-9 two-parameter family", "5", "3")]


@pytest.mark.parametrize("arg", ["--width=-1", "--width=0", "--depth=-1", "--width=x"])
def test_search_models_rejects_bad_bounds(arg):
    proc = run_script("search_models.py", arg, seconds=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")


def test_degree_profile_finds_degree_three():
    proc = run_script("degree_profile.py", "--primes", "13")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("p = 13 ")
    assert " degree 3 " in lines[0]
