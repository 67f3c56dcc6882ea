"""Every definition in ``src/repro`` is reachable from code that runs.

The walk starts from the top-level code of every module under
``src/``, ``bench/`` and ``examples/`` (import-time statements,
decorators, class bases and ``if __name__ == "__main__"`` blocks) plus
the body of every function called ``main``.  Each name that code reads
reaches the functions, classes, methods and module constants of that
name; a reached definition's body reads further names, until nothing new
is reached.  A plain name or an import reaches module-level definitions;
``self.x`` in a method reaches ``x`` along the class's inheritance line;
any other attribute, or an identifier-like string constant, reaches
every definition called ``x``, so ``getattr`` dispatch on a string still
counts as a use.  Dunder methods are always reached.  ``__all__`` and the
lazy ``_LAZY`` export tables only declare names, so they reach nothing;
tests reach nothing either.

A definition the walk does not reach is read by tests only: delete it,
or list it in :data:`KEEP` with the reason it stays.
"""

import ast
import functools
import re
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
ROOTS = (SRC, REPO / "bench", REPO / "examples")

#: ``module:qualname`` -> why it stays although nothing reaches it
KEEP = {
    "sim.core:Process.interrupt":
        "the _ResourceCpu reference model replays the real Cpu against it",
    "sim.core:Interrupt.cause":
        "what the interrupter passed; Interrupt stays with Process.interrupt",
    "protocols.clic.api:ClicEndpoint.send_confirm":
        "CLIC's confirmed send, part of the paper's section-5 API",
    "protocols.clic.api:ClicEndpoint.recv_nonblocking":
        "CLIC's non-blocking receive, part of the paper's section-5 API",
    "protocols.via:VirtualInterface.try_recv":
        "VIA's polled receive, the comparator's user-level probe",
    "mpi.api:RankContext.waitall":
        "MPI_Waitall, the blocking side of the nonblocking point-to-point API",
    "mpi.api:Request.test":
        "MPI_Test, the polling side of the nonblocking point-to-point API",
    "protocols.clic.module:ClicModule.register_kernel_fn":
        "kernel-level CLIC clients (paper section 3.1)",
    "hw.fabric:Fabric.uplink_stats":
        "per-uplink load of a fat tree, read when sizing trunks",
    "hw.fabric:Fabric.hops":
        "analytic switch count the fabric tests compare measured forwards against",
    "faults.plan:BurstLoss.average_loss_rate":
        "analytic stationary loss rate the Gilbert-Elliott tests compare against",
    "faults.plan:BurstLoss.bad_fraction":
        "stationary bad-state share behind average_loss_rate",
    "sim.resources:Server.utilization":
        "busy fraction of an exclusive server (CPU, bus, wire)",
    "obs.analyze:CriticalPath.layer_ns":
        "the fig7 gates read the per-layer budget through it",
    "obs.analyze:CriticalPath.layer_shares":
        "the fig7 gates read the per-layer shares through it",
    "sim.core:Environment.peek":
        "the ordering-invariant tests' probe of the next queue time",
}

_EXPORT_TABLES = {"__all__", "_LAZY"}
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes, owner=None):
    """Every name the given AST nodes read, as ``(name, scope)``.

    ``scope`` is ``"bare"`` for a plain name or an import, the owning
    class for ``self.name``/``cls.name`` inside ``owner``'s methods, and
    ``"any"`` for any other attribute or an identifier-like string.
    """
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    out.add((node.id, "bare"))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    continue
                on_self = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                out.add((node.attr, owner if owner and on_self else "any"))
            elif isinstance(node, ast.alias):
                out.update((part, "bare") for part in node.name.split("."))
                if node.asname:
                    out.add((node.asname, "bare"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update((part, "any") for part in re.split(r"[.:]", node.value)
                           if _IDENT.fullmatch(part))
    return out


def _base_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


class _Census:
    """Definitions by name, and the names import-time code reads."""

    def __init__(self):
        #: name -> [(qualname, body nodes, owning class or None)]
        self.defs = {}
        #: class name -> names of its bases
        self.bases = {}
        self.roots = set()

    def define(self, name, qual, body, owner):
        self.defs.setdefault(name, []).append((qual, body, owner))

    def module(self, module, tree):
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.roots |= _names(stmt.decorator_list + stmt.bases + stmt.keywords)
                self.klass(module, stmt)
            elif isinstance(stmt, _DEFS):
                defaults = stmt.args.defaults + [d for d in stmt.args.kw_defaults if d]
                self.roots |= _names(stmt.decorator_list + defaults)
                self.define(stmt.name, f"{module}:{stmt.name}", [stmt], None)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if _EXPORT_TABLES & set(names):
                    continue
                for name in names:
                    self.define(name, f"{module}:{name}", [stmt.value], None)
                if not names:
                    self.roots |= _names([stmt])
            else:
                self.roots |= _names([stmt])
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                self.roots |= _names(node.body)

    def klass(self, module, cls):
        self.bases.setdefault(cls.name, set()).update(
            filter(None, map(_base_name, cls.bases)))
        body = [s for s in cls.body if not isinstance(s, _DEFS)]
        self.define(cls.name, f"{module}:{cls.name}", body, None)
        for stmt in cls.body:
            if isinstance(stmt, _DEFS):
                self.roots |= _names(stmt.decorator_list)
                body = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
                self.define(stmt.name, f"{module}:{cls.name}.{stmt.name}", body, cls.name)

    def families(self):
        """Class name -> every class it shares an inheritance line with
        (bases and subclasses, transitively): where ``self.x`` may live."""
        linked = {c: set() for c in self.bases}
        for cls, bases in self.bases.items():
            for base in bases & linked.keys():
                linked[cls].add(base)
                linked[base].add(cls)
        family = {}
        for cls in linked:
            if cls in family:
                continue
            group, todo = set(), [cls]
            while todo:
                c = todo.pop()
                if c not in group:
                    group.add(c)
                    todo += linked[c]
            for c in group:
                family[c] = group
        return family

    def reached(self):
        """Qualified names of every definition the roots reach."""
        family = self.families()
        seen = set(self.roots)
        dunders = [n for n in self.defs if n.startswith("__") and n.endswith("__")]
        todo = list(seen) + [(n, "any") for n in dunders]
        reached = set()
        while todo:
            name, scope = todo.pop()
            for qual, body, owner in self.defs.get(name, ()):
                if qual in reached:
                    continue
                if scope == "bare" and owner is not None:
                    continue  # a plain name reaches module-level definitions only
                if scope not in ("bare", "any") and owner not in family[scope]:
                    continue  # self.x reaches the owner's inheritance line only
                reached.add(qual)
                new = _names(body, owner) - seen
                seen |= new
                todo += new
        return reached


def _module_name(path):
    parts = path.relative_to(SRC if path.is_relative_to(SRC) else REPO).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "repro"


@functools.lru_cache(maxsize=None)
def unreached():
    """Qualified names of the ``src/repro`` definitions nothing reaches."""
    census = _Census()
    for root in ROOTS:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                census.module(_module_name(path), ast.parse(path.read_text(), str(path)))
    reached = census.reached()
    src_modules = {_module_name(p) for p in SRC.rglob("*.py")}
    return sorted(
        qual for entries in census.defs.values() for qual, _, _ in entries
        if qual not in reached and qual.split(":")[0] in src_modules
    )


def test_every_definition_is_reached_or_kept():
    dead = [q for q in unreached() if q not in KEEP]
    assert not dead, f"definitions only tests reach (delete them or KEEP them): {dead}"


def test_every_keep_entry_names_an_unreached_definition():
    stale = sorted(set(KEEP) - set(unreached()))
    assert not stale, f"KEEP entries that are reached or gone: {stale}"


def test_the_walk_follows_attributes_strings_and_self():
    census = _Census()
    census.module("m", ast.parse(textwrap.dedent("""
        class A:
            def used(self):
                self.helper()

            def helper(self):
                pass

            def by_name(self):
                pass

        class B:
            def helper(self):
                pass

        def by_string():
            pass

        def main(*, flag):
            A().used()
            getattr(A(), "by_string")
            by_name = 1
            print(by_name)
    """)))
    reached = census.reached()
    assert {"m:A", "m:A.used", "m:A.helper", "m:by_string"} <= reached
    assert not {"m:A.by_name", "m:B.helper"} & reached
