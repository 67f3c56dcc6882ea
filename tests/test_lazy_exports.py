"""Lazy package surfaces (``repro._lazy_exports``) cannot drift from ``__all__``.

Every package that loads submodules on first use still exports exactly
its ``__all__``: each name resolves (to the object, never to a shadowing
submodule), ``dir()`` lists it, and each is either bound by the
package's own import or listed in its lazy table, never both.  A
package with no lazy table (``repro.oskernel``, ``repro.protocols.clic``)
must bind all of ``__all__`` on import.
"""

import importlib
import json
import pkgutil
import types

import pytest

from .fresh import run_fresh

LAZY_PACKAGES = (
    "repro",
    "repro.faults",
    "repro.mpi",
    "repro.obs",
    "repro.oskernel",
    "repro.protocols",
    "repro.protocols.clic",
    "repro.sim",
    "repro.workloads",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert not isinstance(getattr(module, name), types.ModuleType), name
        assert name in vars(module), name  # bound on the package once loaded
        assert name in listed, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_table_and_eager_names_make_up_all(package):
    # right after a fresh import the eager names are bound, the lazy ones not yet
    public, eager, lazy = json.loads(run_fresh(f"""
import importlib, json
m = importlib.import_module({package!r})
bound = [n for n in m.__all__ if n in vars(m)]
lazy = getattr(m, "_LAZY", {{}})  # a package without one binds every name eagerly
print(json.dumps([m.__all__, bound, [n for names in lazy.values() for n in names]]))
"""))
    assert len(public) == len(set(public))
    assert len(lazy) == len(set(lazy))
    assert not set(eager) & set(lazy)
    assert set(eager) | set(lazy) == set(public)
    # importing a submodule binds it on the package, over a lazy name alike
    path = importlib.import_module(package).__path__
    assert not {info.name for info in pkgutil.iter_modules(path)} & set(lazy)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
