"""Import footprint: a run loads only the subsystems it uses.

The ``repro.obs`` analysis and export modules load on first use, so no
model module may import them at load time, and no run of any kind needs
numpy: random streams are pure Python.  Likewise TCP/IP, the comparator
stacks, MPI, fault injection and the flow engine load only when a run
uses them.  Checked in a fresh interpreter, since this test process has
long since imported everything.
"""

from .fresh import run_fresh

LAZY_OBS = ("analyze", "export", "health", "journey", "slo")

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


def test_fault_free_run_imports_neither_numpy_nor_obs_analysis():
    run_fresh(PROGRAM)


def test_lossy_runs_and_fuzzing_need_no_numpy():
    run_fresh(NO_NUMPY_PROGRAM)


#: subsystems a fault-free, CLIC-only, packet-engine run never loads
ON_DEMAND = (
    "repro.faults.inject", "repro.obs.profile", "repro.oskernel.membuf",
    "repro.parallel", "repro.protocols.clic.control", "repro.protocols.gamma",
    "repro.protocols.tcpip", "repro.protocols.via", "repro.pvm",
    "repro.sim.flowmode", "repro.workloads.mpibench", "repro.workloads.patterns",
    "repro.workloads.sweep",
)
#: ``repro`` modules such a run may load (the benchmark's set-up probe)
MAX_REPRO_MODULES = 47

# the benchmark's set-up probe: its imports, then a bulk-packet cluster
ON_DEMAND_PROGRAM = f"""
import sys

from repro import Cluster, granada2003, pingpong, stream
from repro.config import Topology
from repro.faults import FaultPlan
from repro.mpi import build_world
from repro.trace import capture_fig4_point
from repro.workloads import clic_pair, tcp_pair

Cluster(granada2003(mtu=1500).with_flow_mode("off"), protocols=("clic",))
loaded = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
assert len(loaded) <= {MAX_REPRO_MODULES}, (len(loaded), loaded)
optional = [m for m in loaded if m.startswith({ON_DEMAND!r})]
assert not optional, optional

# each subsystem still loads when a run needs it
assert pingpong(Cluster(granada2003()), tcp_pair(), 1024, repeats=2).one_way_ns > 0
lossy = Cluster(granada2003(), protocols=("clic",), faults=FaultPlan.uniform(0.05))
assert stream(lossy, clic_pair(), 65536, messages=2).elapsed_ns > 0
assert sum(v for k, v in lossy.metrics.snapshot().items() if k.endswith("loss_drops")) > 0
flow = Cluster(granada2003().with_flow_mode("auto"), protocols=("clic",))
assert stream(flow, clic_pair(), 1 << 20, messages=2).elapsed_ns > 0
assert flow.env.flow.counters["trains"] > 0

def exchange(ctx):
    peer = ctx.rank ^ 1
    yield from ctx.sendrecv(peer, 4096, peer, 4096)
    yield from ctx.barrier()
    return ctx.rank

world = build_world(Cluster(granada2003(num_nodes=4)), "tcp")
assert world.run(exchange) == [0, 1, 2, 3]
assert "repro.protocols.tcpip.tcp" in sys.modules
"""


def test_a_run_loads_only_the_subsystems_it_uses():
    run_fresh(ON_DEMAND_PROGRAM)
