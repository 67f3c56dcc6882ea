"""Every definition in ``src/repro`` is reachable from code that runs,
and every value it lets a caller set is set by code that runs.

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
or list it in :data:`KEEP` with the reason it stays.  The options census
at the end of this file does the same for parameters, config switches
and dataclass fields (:data:`KEEP_OPTIONS`).  Both read the same
non-test file set, :func:`non_test_modules`.
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
def non_test_modules():
    """``(module name, AST)`` of every non-test file under :data:`ROOTS`:
    the code both censuses count as uses."""
    return tuple(
        (_module_name(path), ast.parse(path.read_text(), str(path)))
        for root in ROOTS for path in sorted(root.rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    )


def _src_modules():
    return {_module_name(p) for p in SRC.rglob("*.py")}


@functools.lru_cache(maxsize=None)
def unreached():
    """Qualified names of the ``src/repro`` definitions nothing reaches."""
    census = _Census()
    for module, tree in non_test_modules():
        census.module(module, tree)
    reached = census.reached()
    src_modules = _src_modules()
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


# -- The options census -----------------------------------------------------
#
# A settable value that only tests set is an option with one setting in
# use: a constant.  Three rules, all matched by name like the walk above:
#
# * every defaulted parameter of a module-level function or method in
#   ``src/repro`` is passed by some non-test call of that name, by
#   keyword or positionally at or past its index (``main`` and nested
#   functions are skipped; a ``*``/``**`` call passes every parameter,
#   but ``replace(x, **kw)`` spells its fields as data and passes none).
#   ``__init__`` parameters and dataclass fields match calls of the class
#   name (or of a subclass that inherits the ``__init__``), ``cls(...)`` in
#   its classmethods, ``super().__init__(...)`` in a subclass and
#   ``replace(..., name=)``; ``partial(f, ...)`` is a call of ``f``.
#   Fields built with ``default_factory`` or ``init=False`` are exempt;
# * every ``bool`` or ``str`` field of a ``repro.config`` dataclass is set
#   somewhere; the numeric fields are the calibration table and exempt;
# * every dataclass field in ``src/repro`` is read somewhere: an attribute
#   load or an identifier-like string of its name.
#
# An entry reads ``module:Owner(name)`` for a value nothing sets and
# ``module:Class.field`` for a field nothing reads.

#: settable value -> why it stays although only tests set or read it
KEEP_OPTIONS = {
    "cluster.cluster:Cluster(node_overrides)":
        "the paper's section-2 mixed-MTU pair, which the CLIC edge tests drive into peer death",
    "protocols.clic.module:ClicModule.send(ptype)":
        "kernel-function packets (paper section 3.1)",
    "protocols.clic.api:ClicEndpoint.send_confirm(tag)":
        "CLIC's confirmed send, part of the paper's section-5 API",
    "protocols.clic.api:ClicEndpoint.send_confirm(payload)":
        "CLIC's confirmed send, part of the paper's section-5 API",
    "protocols.clic.api:ClicEndpoint.recv_nonblocking(tag)":
        "CLIC's non-blocking receive, part of the paper's section-5 API",
    "protocols.clic.api:ClicEndpoint.recv_nonblocking(src)":
        "CLIC's non-blocking receive, part of the paper's section-5 API",
    "sim.core:Process.interrupt(cause)":
        "what the interrupter passes; Interrupt.cause carries it",
    "obs.metrics:TimeSeriesSampler(max_samples)":
        "the leak cap on a long run's samples, which tests lower",
    "validate.shrink:shrink(max_runs)":
        "the shrinker's budget, which tests lower to keep a failing case quick",
    "obs.metrics:Gauge(name)":
        "MetricsRegistry._get builds every instrument as cls(name, *args)",
    "obs.metrics:TimeSeries(name)":
        "MetricsRegistry._get builds every instrument as cls(name, *args)",
    "obs.metrics:TimeSeries(unit)":
        "MetricsRegistry._get builds every instrument as cls(name, *args)",
    "obs.export:RunArtifact.quick":
        "jsonable writes every field of the artifact into its JSON",
}

_SWITCH_TYPES = {"bool", "str"}


def _decorators(node):
    return {_base_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _keywords(node):
    """``{keyword: value}`` of a call node; ``{}`` for anything else."""
    if not isinstance(node, ast.Call):
        return {}
    return {k.arg: k.value for k in node.keywords}


class _Options:
    """Settable values by name, and the calls and reads that use them."""

    def __init__(self):
        #: value -> (names of the calls that pass it, keyword, position or
        #: None, whether ``replace(..., name=)`` sets it)
        self.options = {}
        #: dataclass field -> its name
        self.fields = {}
        #: call name -> [(positional count, keyword names, starred)]
        self.calls = {}
        #: attribute names and identifier-like strings non-test code reads
        self.reads = set()
        #: class name -> names whose calls run its ``__init__``
        self.callers = {}
        self.bases = {}
        self.own_init = set()

    def call(self, name, node, skip=0):
        if name is None:
            return
        args = node.args[skip:]
        star = (any(isinstance(a, ast.Starred) for a in args)
                or any(k.arg is None for k in node.keywords))
        self.calls.setdefault(name, []).append(
            (len(args), {k.arg for k in node.keywords}, star))

    def module(self, module, tree, src=True):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self.call(_base_name(node.func), node)
                if _base_name(node.func) == "partial" and node.args:
                    self.call(_base_name(node.args[0]), node, skip=1)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self.reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.reads.update(part for part in re.split(r"[.:]", node.value)
                                  if _IDENT.fullmatch(part))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.klass(module, stmt, src)
            elif isinstance(stmt, ast.FunctionDef) and src:
                self.function(f"{module}:{stmt.name}", stmt, {stmt.name}, offset=0)

    def function(self, qual, fn, names, offset, replaceable=False):
        if fn.name == "main":
            return
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            self.options[f"{qual}({arg.arg})"] = (names, arg.arg, index - offset, replaceable)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.options[f"{qual}({arg.arg})"] = (names, arg.arg, None, replaceable)

    def klass(self, module, cls, src):
        names = self.callers.setdefault(cls.name, {cls.name})
        bases = self.bases.setdefault(cls.name, set(filter(None, map(_base_name, cls.bases))))
        dataclass = "dataclass" in _decorators(cls)
        if dataclass:
            self.own_init.add(cls.name)
        for stmt in cls.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            decorators = _decorators(stmt)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if "classmethod" in decorators and _base_name(node.func) == "cls":
                    self.call(cls.name, node)
                elif (isinstance(node.func, ast.Attribute) and node.func.attr == "__init__"
                      and isinstance(node.func.value, ast.Call)
                      and _base_name(node.func.value.func) == "super"):
                    for base in bases:
                        self.call(base, node)
            if stmt.name == "__init__":
                self.own_init.add(cls.name)
                if src:
                    self.function(f"{module}:{cls.name}", stmt, names, offset=1)
            elif src and not stmt.name.startswith("__"):
                offset = 0 if "staticmethod" in decorators else 1
                self.function(f"{module}:{cls.name}.{stmt.name}", stmt, {stmt.name}, offset)
        if dataclass and src:
            self.dataclass(module, cls, names)

    def dataclass(self, module, cls, names):
        kw_only = any(isinstance(d, ast.Call) and "kw_only" in _keywords(d)
                      for d in cls.decorator_list)
        position = 0
        for stmt in cls.body:
            if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                continue
            kind = ast.unparse(stmt.annotation).strip("'\"")
            if "ClassVar" in kind:
                continue
            name = stmt.target.id
            self.fields[f"{module}:{cls.name}.{name}"] = name
            spec = _keywords(stmt.value) if _base_name(getattr(stmt.value, "func", None)) == "field" else {}
            init = spec.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            index, position = position, position + 1
            if "default_factory" in spec:
                continue
            if module == "config" and kind not in _SWITCH_TYPES:
                continue  # a cost: the calibration table
            if stmt.value is None and module != "config":
                continue  # a required field is passed wherever the class is built
            self.options[f"{module}:{cls.name}({name})"] = (
                names, name, None if kw_only else index, True)

    def inherit_inits(self):
        """Calls of a subclass without its own ``__init__`` run its base's."""
        for cls, names in self.callers.items():
            todo = [cls]
            while todo:
                base = todo.pop()
                for sub, bases in self.bases.items():
                    if base in bases and sub not in self.own_init and sub not in names:
                        names.add(sub)
                        todo.append(sub)

    def passed(self, names, keyword, position, replaceable):
        calls = [c for name in names for c in self.calls.get(name, ())]
        if replaceable:
            calls += [(0, kws, False) for _, kws, _ in self.calls.get("replace", ())]
        return any(star or keyword in kws or (position is not None and count > position)
                   for count, kws, star in calls)

    def unset(self):
        self.inherit_inits()
        return sorted(q for q, option in self.options.items() if not self.passed(*option))

    def unread(self):
        return sorted(q for q, name in self.fields.items() if name not in self.reads)


@functools.lru_cache(maxsize=None)
def options_only_tests_use():
    """Settable values only tests set, and dataclass fields only tests read."""
    census = _Options()
    src_modules = _src_modules()
    for module, tree in non_test_modules():
        census.module(module, tree, src=module in src_modules)
    return census.unset() + census.unread()


def test_every_option_is_set_and_every_field_read_or_kept():
    unused = [q for q in options_only_tests_use() if q not in KEEP_OPTIONS]
    assert not unused, f"options only tests set, fields only tests read (delete or keep them): {unused}"


def test_every_keep_options_entry_names_an_unused_option():
    stale = sorted(set(KEEP_OPTIONS) - set(options_only_tests_use()))
    assert not stale, f"KEEP_OPTIONS entries that are used or gone: {stale}"


def test_the_options_census_follows_calls_replace_and_reads():
    census = _Options()
    census.module("config", ast.parse(textwrap.dedent("""
        @dataclass(frozen=True)
        class Params:
            cost_ns: float = 1.0
            flag: bool = False
            mode: str = "a"
    """)))
    census.module("m", ast.parse(textwrap.dedent("""
        def f(a, b=1, c=2, *, d=3, e=4):
            pass

        def g(x=0):
            pass

        class K:
            def __init__(self, x=0, y=0):
                pass

            @classmethod
            def make(cls):
                return cls(y=1)

            def m(self, p=0, q=0):
                pass

        class Sub(K):
            pass

        @dataclass
        class D:
            kept: int = 0
            replaced: int = 0
            state: int = field(default=0, init=False)
            items: list = field(default_factory=list)
            unread: int = 0

        def main(z=0):
            f(0, 1, e=2)
            g(**{})
            Sub(5)
            K().m(0)
            D(1, unread=2).kept
            replace(D(), replaced=3).replaced
            replace(Params(), mode="b", **{"flag": True})
            print(D().state, D().items)
    """)))
    assert census.unset() == ["config:Params(flag)", "m:K.m(q)", "m:f(c)", "m:f(d)"]
    # "flag" is read: an identifier-like string counts, as in the walk
    assert census.unread() == ["config:Params.cost_ns", "config:Params.mode", "m:D.unread"]
