"""Every published tally is a key bump on a scope's ``collections.Counter``.

``MetricsRegistry.counter`` is gone; a component takes its scope's
tallies once (``metrics.tallies(scope)``) and bumps keys in place.  A
leftover ``.counter(...)`` call would only fail when a run reaches it,
and several tally sites sit on cold paths no test run reaches (unknown
ethertype, unknown kernel function, hairpin drop), so this walks the
source instead.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def test_no_registry_counter_calls_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "counter"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f".counter( calls left: {found}"
