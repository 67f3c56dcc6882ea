"""Import footprint: a fault-free run loads only the simulator.

numpy loads on the first RNG stream and the ``repro.obs`` analysis and
export modules on first use, so neither may be imported by a model
module at load time.  Checked in a fresh interpreter, since this test
process has long since imported both.
"""

import os
import subprocess
import sys

import repro

LAZY_OBS = ("analyze", "diff", "export", "health", "journey", "report", "slo")

PROGRAM = f"""
import sys

import repro, repro.faults, repro.mpi, repro.trace
from repro.workloads import clic_pair, pingpong

def absent():
    return [m for m in ("numpy",) + tuple("repro.obs." + n for n in {LAZY_OBS!r})
            if m in sys.modules]

assert not absent(), ("on import", absent())
res = pingpong(repro.Cluster(repro.granada2003()), clic_pair(), 1024, repeats=2)
assert res.one_way_ns > 0
assert not absent(), ("after a fault-free ping-pong", absent())

from repro.faults import FaultPlan
repro.Cluster(repro.granada2003(), faults=FaultPlan.uniform(0.01))
assert "numpy" in sys.modules, "a lossy cluster draws from numpy"
"""


def test_fault_free_run_imports_neither_numpy_nor_obs_analysis():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
