"""Per-build id-counter resets stay exact while modules load on demand.

A :class:`~repro.Cluster` build restarts the process-global id counters
of the modules already loaded; a module that loads later (TCP/IP on the
first TCP run, say) must start where a reset would have put it.
"""

import pathlib
import re

import repro
from repro.cluster.cluster import _GLOBAL_ID_COUNTERS

from .fresh import run_fresh


def test_every_module_level_id_counter_is_reset():
    root = pathlib.Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        module = ".".join(("repro",) + path.relative_to(root).with_suffix("").parts)
        for match in re.finditer(r"^(_\w+) = itertools\.count\((\d+)\)$", path.read_text(), re.M):
            found.add((module, match.group(1), int(match.group(2))))
    assert found == set(_GLOBAL_ID_COUNTERS)


def test_every_counter_starts_at_its_reset_value():
    shown = run_fresh("import importlib\n" + "".join(
        f"print(repr(importlib.import_module({module!r}).{attribute}))\n"
        for module, attribute, _ in _GLOBAL_ID_COUNTERS))
    assert shown.split() == [f"count({first})" for _, _, first in _GLOBAL_ID_COUNTERS]


TWO_RUNS = """
import sys

import repro
from repro.obs import chrome_trace_json, instants_of, spans_of
from repro.workloads import clic_pair, pingpong, tcp_pair

def traced(protocols, setup):
    cluster = repro.Cluster(repro.granada2003(trace=True), protocols=protocols)
    pingpong(cluster, setup(), 2048, repeats=2)
    return chrome_trace_json(spans_of(cluster.tracer), instants_of(cluster.tracer))

clic = traced(("clic",), clic_pair)
assert "repro.protocols.tcpip" not in sys.modules
tcp = traced(("clic", "tcp"), tcp_pair)  # TCP/IP loads while this cluster is built
assert "tcp_recv1" in tcp
assert traced(("clic",), clic_pair) == clic
assert traced(("clic", "tcp"), tcp_pair) == tcp
"""


def test_same_seed_runs_export_identical_spans_when_tcp_loads_between_them():
    run_fresh(TWO_RUNS)
