"""Static checks that stand in for a linter: public names exist, imports are used."""

import ast
import dataclasses
import importlib
import json
import typing
from pathlib import Path

import pytest

from bo3.experiments import EXPERIMENTS

ROOT = Path(__file__).parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "bo3").glob("*.py") if p.stem != "__init__")
SOURCES = sorted((ROOT / "src" / "bo3").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    module = importlib.import_module(f"bo3.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"bo3.{name}.__all__ names missing attributes: {missing}"


def test_every_config_field_is_a_plain_scalar():
    # the field checker checks an int or a float; a field of any other type
    # would have no check and no message
    odd = [f"{name}: {key}.{fld.name}: {typing.get_type_hints(cls)[fld.name]}"
           for name, exp in EXPERIMENTS.items()
           for key, cls in exp.sections().items() if cls is not None
           for fld in dataclasses.fields(cls)
           if typing.get_type_hints(cls)[fld.name] not in (int, float)]
    assert not odd, "config fields of another type:\n" + "\n".join(odd)


def test_each_shipped_config_states_every_field_its_experiment_reads():
    # a field the file leaves out would silently take its dataclass default;
    # the sections and their fields stand in the order of the records
    for path in sorted((ROOT / "configs").glob("*.json")):
        raw = json.loads(path.read_text())
        read = {key: [f.name for f in dataclasses.fields(cls)]
                for key, cls in EXPERIMENTS[raw["experiment"]].sections().items() if cls}
        assert {key: list(raw.get(key, {})) for key in read} == read, path.name
        assert set(raw) == set(read) | {"experiment", "seed"}, path.name


def test_shared_validation_names_no_experiment():
    # what one experiment alone needs checked is its record's own check, not a
    # branch on its name in code that serves them all
    tree = ast.parse((ROOT / "src" / "bo3" / "experiments.py").read_text())
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "EXPERIMENTS" for t in node.targets)
            for key in node.value.keys}
    named = sorted(f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in EXPERIMENTS
                   and id(node) not in keys)
    assert not named, "experiment names outside the EXPERIMENTS keys:\n" + "\n".join(named)


# What derives a march's settings from the config; only the plans may call them.
_PLAN_HELPERS = {"final_only", "study_solvers", "_rescaled"}


def _plan_helper_calls(source: str, chosen=lambda name: True) -> list:
    """``function: helper`` for each call to one of ``_PLAN_HELPERS``, by its bare
    name or as an attribute, in a function whose name ``chosen`` picks."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and chosen(fn.name):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in _PLAN_HELPERS:
                        found.append(f"{fn.name}: {name}")
    return found


def test_only_the_plans_derive_a_marchs_settings():
    # a body marches the plan validate_config returns; deriving a march's
    # settings again would let the march run apart from what was planned
    src = ROOT / "src" / "bo3"
    derived = [f"experiments.{c}" for c in _plan_helper_calls(
        (src / "experiments.py").read_text(), lambda name: name.startswith("_exp_"))]
    derived += [f"normalform.{c}" for c in _plan_helper_calls((src / "normalform.py").read_text())]
    derived += [f"stepper.{c}" for c in _plan_helper_calls((src / "stepper.py").read_text())
                if c != "study_solvers: final_only"]
    assert not derived, "march settings derived outside the plans:\n" + "\n".join(derived)


def test_the_plan_helper_check_sees_each_form():
    source = ("def _exp_a(cfg):\n"
              "    return stepper.final_only(1e-3, 0.1), _rescaled(cfg.grid, cfg.solver)\n"
              "def _plan_a(cfg):\n"
              "    return study_solvers(0.5, (1e-3, 2e-3, 4e-3))\n")
    assert _plan_helper_calls(source, lambda name: name.startswith("_exp_")) == [
        "_exp_a: final_only", "_exp_a: _rescaled"]


def _unused_imports(path: Path) -> list:
    """Names an import binds in the file and nothing reads.

    A name listed in ``__all__`` counts as read, and an import marked
    ``# noqa: F401`` (a deliberate re-export) is skipped.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    return unused


def test_no_unused_imports():
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _fft_bound_at_import(source: str) -> list:
    """Lines where the source holds on to a numpy FFT function instead of
    looking it up when it calls it.

    That is ``from numpy.fft import ...`` anywhere, and any ``np.fft.<name>``
    read outside a function body: at module level, in a class body, a
    decorator or a default argument, all of which run once, at import.  Such
    a caller keeps the old function when ``numpy.fft.<name>`` is replaced
    later, as the benchmark's tracer replaces it.
    """
    tree = ast.parse(source)
    deferred = set()  # nodes that run only when their function is called
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                deferred.update(ast.walk(stmt))
        elif isinstance(node, ast.Lambda):
            deferred.update(ast.walk(node.body))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node not in deferred
              and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id in ("np", "numpy")):
            found.append(node.lineno)
    return sorted(found)


def test_every_fft_is_looked_up_at_call_time():
    bound = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src" / "bo3").glob("*.py"))
             for line in _fft_bound_at_import(path.read_text())]
    assert not bound, "numpy FFT functions bound at import:\n" + "\n".join(bound)


def test_the_fft_binding_check_sees_each_form():
    source = ("import numpy as np\n"
              "from numpy.fft import rfft\n"
              "FORWARD = np.fft.fft\n"
              "class A:\n"
              "    inverse = np.fft.ifft\n"
              "def f(x, g=np.fft.irfft):\n"
              "    inverse = np.fft.irfft if x else np.fft.ifft\n"
              "    return inverse(x), np.fft.rfft(x), (lambda y: np.fft.fft(y))\n")
    assert _fft_bound_at_import(source) == [2, 3, 5, 6]


# numpy names that reach BLAS or LAPACK, whose bits depend on the kernel the
# library picks at run time
_BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "polyfit", "linalg"}


def _blas_uses(source: str) -> list:
    """Lines where the source multiplies matrices with ``@`` or names one of
    ``_BLAS_NAMES``: as an attribute (``np.dot``, ``np.linalg.norm``), a bare
    name, or in an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif ((isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES)
              or (isinstance(node, ast.Name) and node.id in _BLAS_NAMES)):
            found.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if any(part in _BLAS_NAMES for name in names for part in name.split(".")):
                found.append(node.lineno)
    return sorted(found)


def test_no_run_reaches_blas_or_lapack():
    used = [f"{path.relative_to(ROOT)}:{line}"
            for path in sorted((ROOT / "src" / "bo3").glob("*.py"))
            for line in _blas_uses(path.read_text())]
    assert not used, "BLAS or LAPACK reached from src/bo3:\n" + "\n".join(used)


def test_the_blas_check_sees_each_form():
    source = ("import numpy as np\n"
              "import numpy.linalg\n"
              "from numpy import einsum\n"
              "from numpy.linalg import norm\n"
              "a = x @ y\n"
              "a @= y\n"
              "b = np.dot(x, y) + x.dot(y)\n"
              "c = np.linalg.norm(x)\n"
              "d = np.polyfit(x, y, 1)[0]\n"
              "e = inner(x, y)\n"
              "f = np.sum(x * y, axis=1) + np.tensordot\n")
    assert _blas_uses(source) == [2, 3, 4, 5, 6, 7, 7, 8, 9, 10, 11]
