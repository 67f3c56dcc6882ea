"""Import footprint: a fault-free run loads only the simulator.

The ``repro.obs`` analysis and export modules load on first use, so no
model module may import them at load time, and no run of any kind needs
numpy: random streams are pure Python.  Checked in a fresh interpreter,
since this test process has long since imported both.
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
"""

# numpy cannot even be imported: a lossy run, the fig4-point capture and
# one fuzz scenario must still work
NO_NUMPY_PROGRAM = """
import sys

sys.modules["numpy"] = None

import repro
from repro.faults import FaultPlan
from repro.trace import capture_fig4_point
from repro.validate.runner import run_scenario
from repro.validate.scenario import generate_scenario

repro.Cluster(repro.granada2003(), faults=FaultPlan.uniform(0.01))
art = capture_fig4_point(nbytes=65536, messages=2, loss=0.02)
assert art.journeys and all(j["delivered"] for j in art.journeys)
scenario = generate_scenario(7, 5)
assert scenario.fault_kind == "uniform", scenario.fault_kind
report = run_scenario(scenario.to_dict())
assert report["stats"]["frames_lost"] > 0 and not report["violations"], report
"""


def _run_fresh(program):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_fault_free_run_imports_neither_numpy_nor_obs_analysis():
    _run_fresh(PROGRAM)


def test_lossy_runs_and_fuzzing_need_no_numpy():
    _run_fresh(NO_NUMPY_PROGRAM)
