"""The package surface: each public name is declared once, in its module's
``__all__``, no module reaches a BLAS entry point, and each slack has one
name."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

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


#: Names through which numpy hands work to BLAS. ``np.outer`` is elementwise.
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def _blas_uses(source: str) -> list[int]:
    """Lines of ``source`` that use ``@``, ``@=`` or an attribute in ``BLAS_NAMES``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
    )


def test_src_reaches_no_blas_entry_point():
    # README: no report value goes through BLAS, so report bytes do not
    # follow the BLAS library or kernel.
    src = Path(__file__).resolve().parents[1] / "src" / "eprb_lab"
    uses = {path.name: _blas_uses(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    assert len(uses) >= 9
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_blas_uses_are_found():
    source = "c = a @ b\nc @= a\nnp.dot(a, b)\nnp.linalg.norm(a)\nnp.outer(a, b)\n"
    assert _blas_uses(source) == [1, 2, 3, 4]


#: Every slack in ``src/``, one name per fact, as ``module.NAME``: a float
#: literal under 1e-6 may appear only as the value of one of these.
SLACKS = {
    "inequality.BOUND_TOL",  # |S| <= 2, and what Fine's test reads
    "inequality._GRAD_TOL",  # the optimum's gradient norm
    "inequality._AXIS_END_TOL",  # a grid step's multiple that is 2*pi
    "quantum._PROB_TOL",  # a probability
    "linfeas._RATIO_TIE_TOL",  # ties in the LP's ratio test
}


def _slacks(source: str, module: str) -> tuple[set[str], list[int]]:
    """The ``module.NAME`` of each module-level ``NAME = literal`` whose
    float literal has 0 < |v| < 1e-6, and the lines of every other such
    literal in ``source``."""
    tree = ast.parse(source)
    tiny = {
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
    }
    named = {
        node.value: node.targets[0].id for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and node.value in tiny
    }
    return {f"{module}.{name}" for name in named.values()}, sorted(
        node.lineno for node in tiny - named.keys()
    )


def test_each_slack_has_one_name():
    # A slack restated as a literal, or a second name for one, drifts from
    # the fact it bounds; a new slack joins SLACKS on purpose.
    src = Path(__file__).resolve().parents[1] / "src" / "eprb_lab"
    names, stray = set(), {}
    for path in src.glob("*.py"):
        found, lines = _slacks(path.read_text(encoding="utf-8"), path.stem)
        names |= found
        if lines:
            stray[path.name] = lines
    assert stray == {}
    assert names == SLACKS


def test_slack_literals_are_found():
    source = (
        "A = 1e-9\nB = 2.0\nC: float = 1e-12\n"
        "def f():\n    D = 1e-12\n    return x < 1e-7 or -3e-8\n"
    )
    assert _slacks(source, "m") == ({"m.A"}, [3, 5, 6, 6])
