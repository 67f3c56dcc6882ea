"""Queue shortcuts whose exactness rests on the caller: checked in the source.

``Environment.tail_hop`` files its callback at once, skipping
``defer``'s trampoline, on the promise that its caller files nothing
more before its step ends (DESIGN.md §9).  The walk holds every call to
being the last statement of its block, with at most a ``return`` after
it.

``Store.put_nowait`` is the put for a caller that drops the put's
event; ``store.put(...)`` as a bare statement would make a ``StorePut``
whose queue entry runs nothing.  The walk fails on any such statement.

Some sites sit on cold paths (fault copies, backlogs), so this walks the
source instead of a run.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: the fields of a statement that hold a block of statements
_BLOCKS = ("body", "orelse", "finalbody")


def _is_call_of(node, attr):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == attr)


def _blocks(tree):
    for node in ast.walk(tree):
        for field in _BLOCKS:
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                yield handler.body


def _tail_hops_not_at_the_end(tree):
    """Line of every ``tail_hop(...)`` statement that is followed by
    anything but a bare ``return``, and of every ``tail_hop`` call that
    is not a statement of its own."""
    statements = set()
    for block in _blocks(tree):
        for i, stmt in enumerate(block):
            if not _is_call_of(stmt, "tail_hop"):
                continue
            statements.add(id(stmt.value))
            rest = block[i + 1:]
            if rest and not (len(rest) == 1 and isinstance(rest[0], ast.Return)
                             and rest[0].value is None):
                yield stmt.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tail_hop" and id(node) not in statements):
            yield node.lineno


def _dropped_puts(tree):
    for node in ast.walk(tree):
        if _is_call_of(node, "put"):
            yield node.lineno


def _walk_src(check):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(SRC)}:{line}" for line in check(tree)]
    return found


def test_every_tail_hop_ends_its_block():
    found = _walk_src(_tail_hops_not_at_the_end)
    assert not found, f"tail_hop(...) followed by more work (use defer): {found}"


def test_the_model_makes_tail_hops():
    """The census is not vacuous: the link and the switch hop this way."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _is_call_of(node, "tail_hop"):
                sites.append(path.name)
    assert {"link.py", "switch.py"} <= set(sites), sites


def test_no_put_event_is_dropped_in_src():
    found = _walk_src(_dropped_puts)
    assert not found, f"store.put(...) with its event dropped (use put_nowait): {found}"


def test_the_walk_finds_a_tail_hop_with_work_after_it():
    tree = ast.parse(
        "def f(env, g):\n"
        "    env.tail_hop(5, g)\n"
        "    g()\n"
        "def ok(env, g, xs):\n"
        "    for x in xs:\n"
        "        env.tail_hop(5, g)\n"
        "    if xs:\n"
        "        env.tail_hop(5, g)\n"
        "        return\n"
        "def returns_a_value(env, g):\n"
        "    env.tail_hop(5, g)\n"
        "    return 1\n"
        "def nested(env, g):\n"
        "    h = env.tail_hop(5, g)\n")
    assert sorted(_tail_hops_not_at_the_end(tree)) == [2, 11, 14]


def test_the_walk_finds_a_dropped_put():
    tree = ast.parse("def f(store, x):\n"
                     "    store.put(x)\n"
                     "    yield store.put(x)\n"
                     "    store.put_nowait(x)\n"
                     "    return store.put(x)\n")
    assert list(_dropped_puts(tree)) == [2]
