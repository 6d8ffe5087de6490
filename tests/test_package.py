"""The package surface: each public name is declared once, in its module's ``__all__``."""

from __future__ import annotations

import inspect

import eprb_lab
from eprb_lab import hvm, inequality, quantum, sampler

MODULES = (quantum, inequality, hvm, sampler)


def test_each_module_declares_names_it_binds():
    for module in MODULES:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            value = getattr(module, name)  # raises if the name is not bound
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, name


def test_module_lists_are_disjoint():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_reexports_exactly_the_module_lists():
    assert eprb_lab.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    ns: dict = {}
    exec("from eprb_lab import *", ns)
    ns.pop("__builtins__")
    assert sorted(ns) == sorted(eprb_lab.__all__)
    for name, value in ns.items():
        assert value is getattr(eprb_lab, name)
