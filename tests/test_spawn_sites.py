"""A process whose handle is dropped is started with ``env.spawn``.

``Environment.spawn`` returns no handle, so nothing can wait on the
process and its end takes no queue entry.  ``env.process(...)`` as a
bare statement drops its handle too, but its end still takes an entry
that runs nothing.  Several such sites sit on cold paths (pause-mode
switch forwarding, push-mode NIC receive, fault outages), so this walks
the source instead of running it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _dropped_process_calls(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "process"):
            yield node.lineno


def test_no_dropped_process_handles_in_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(SRC)}:{line}" for line in _dropped_process_calls(tree)]
    assert not found, f"env.process(...) with its handle dropped (use env.spawn): {found}"


def test_the_walk_finds_a_dropped_handle():
    tree = ast.parse("def f(env, g):\n    env.process(g)\n    p = env.process(g)\n")
    assert list(_dropped_process_calls(tree)) == [2]
