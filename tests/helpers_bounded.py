"""A fresh interpreter on this tree with a time limit and an address-space
limit, for inputs that once ran without bound: a regression then fails in
seconds and under 1 GiB instead of stalling or exhausting the test run."""
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def bounded_python(args, seconds=30, memory=1 << 30, **kwargs):
    """Run ``python args`` with this tree's ``src`` on the path, at most
    ``seconds`` of wall time and ``memory`` bytes of address space; text
    output is captured unless ``kwargs`` say otherwise (they go to
    ``subprocess.run``).  Past the time limit ``subprocess.TimeoutExpired``
    is raised; past the memory limit the interpreter fails."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    kwargs.setdefault("capture_output", "stdout" not in kwargs)
    kwargs.setdefault("text", True)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], timeout=seconds, preexec_fn=limit, env=env,
                          **kwargs)
