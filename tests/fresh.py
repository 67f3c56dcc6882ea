"""Run a program in a fresh interpreter that imports this checkout's ``repro``.

Import-footprint and lazy-loading tests need one: this test process has
long since imported everything.
"""

import os
import subprocess
import sys

import repro


def run_fresh(program: str) -> str:
    """Run ``program`` with ``python -c``; return its stdout, failing the
    calling test if it exits non-zero."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
