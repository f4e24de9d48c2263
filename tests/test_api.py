"""The public surface: every module's ``__all__`` resolves, and the top
level re-exports the constructions and checks, each as the very object
its module defines."""

import importlib

import pytest

import mubkit

MODULES = ["phases", "qdft", "weyl", "quon", "mub", "wigner", "verify", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    namespace = {}
    exec(f"from mubkit.{name} import *", namespace)
    module = importlib.import_module(f"mubkit.{name}")
    for attr in module.__all__:
        assert namespace[attr] is getattr(module, attr)


def test_top_level_names_are_their_modules_objects():
    exported = [n for n in vars(mubkit) if not n.startswith("_")
                and n not in MODULES]
    assert exported
    for name in exported:
        obj = getattr(mubkit, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("mubkit.") and getattr(module, name) is obj
        assert name in module.__all__


def test_result_types_and_helpers_come_from_their_modules():
    homes = {"phases": ["ExactPhase", "q_power"],
             "qdft": ["HadamardReport"],
             "weyl": ["PauliGroupElement"],
             "mub": ["Basis", "MubSet", "CommutingClass", "PartitionReport"],
             "quon": ["QuonRep", "Su2Triple", "q_number", "tensor_index", "build_h"]}
    for module, names in homes.items():
        for name in names:
            assert not hasattr(mubkit, name)
            assert name in importlib.import_module(f"mubkit.{module}").__all__
