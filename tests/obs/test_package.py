"""The ``repro.obs`` package surface: analysis and export names load on
first use, yet every name in ``__all__`` resolves as before."""

import importlib

import pytest

import repro.obs as obs


@pytest.mark.parametrize("name", obs.__all__)
def test_every_public_name_resolves_through_getattr(name):
    assert getattr(obs, name) is not None
    assert name in vars(obs)  # cached in the package namespace


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from repro.obs import *", namespace)
    assert set(obs.__all__) <= set(namespace)
    assert namespace["RunArtifact"] is importlib.import_module("repro.obs.export").RunArtifact


def test_dir_lists_every_public_name():
    assert set(obs.__all__) <= set(dir(obs))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        obs.no_such_name
    assert not hasattr(obs, "no_such_name")
    with pytest.raises(ImportError):
        exec("from repro.obs import no_such_name", {})

