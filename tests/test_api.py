"""Each library module's __all__ is its public API: every listed name
resolves, and every public function and class the module defines is
listed.  The command-line module is excepted; its API is the command line."""

import importlib
import inspect
import pkgutil

import pytest

import flowdpp

MODULES = ["flowdpp"] + [
    f"flowdpp.{info.name}" for info in pkgutil.iter_modules(flowdpp.__path__) if info.name != "cli"
]


def test_every_library_module_is_listed():
    assert set(MODULES) >= {
        "flowdpp", "flowdpp.config", "flowdpp.controller", "flowdpp.detection",
        "flowdpp.fileio", "flowdpp.flowmap", "flowdpp.policies", "flowdpp.sim",
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_in_all(name):
    module = importlib.import_module(name)
    defined = [
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    assert sorted(set(defined) - set(module.__all__)) == []
