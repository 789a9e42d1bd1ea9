"""A guard on the public surface.

Every name exported by ``sqbattery`` or by one of its layer modules must be
read somewhere in ``src/`` outside ``__init__.py``, or be named in the
README. A name the program never runs and the README never shows is dead
weight; a reference the tests need belongs in ``tests/reference.py``. So is
a ``Tolerances`` field that no module outside ``tolerances.py`` reads.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import sqbattery
from sqbattery.dynamics import MODES
from sqbattery.tolerances import Tolerances

SRC = Path(sqbattery.__file__).parent
README = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
LAYERS = ("linalg", "model", "dynamics", "metrics", "sweep", "output", "verify")


def names_read_in_src(skip=("__init__.py",)) -> set:
    """Every name or attribute loaded by the modules of ``src/``, bar those in ``skip``.

    Definitions and ``__all__`` entries bind or spell a name without reading it.
    """
    names = set()
    for path in SRC.glob("*.py"):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_or_documented():
    modules = [sqbattery] + [importlib.import_module(f"sqbattery.{m}") for m in LAYERS]
    used = names_read_in_src()
    orphans = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", README)
    ]
    assert orphans == []


def test_every_tolerance_is_read_outside_its_record():
    used = names_read_in_src(skip=("__init__.py", "tolerances.py"))
    assert [f.name for f in dataclasses.fields(Tolerances) if f.name not in used] == []


def names_in(path: Path) -> set:
    """Every name, attribute and imported name that the module at ``path`` spells."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names | {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_cli_never_holds_a_whole_sweep():
    # the command line streams each curve to its writer as it is evaluated;
    # run_sweep would hold every curve of a request before the first is written
    assert "run_sweep" not in names_in(SRC / "cli.py")


def test_each_request_is_stated_once():
    # SweepConfig.metrics alone says which columns are written, and
    # metrics.compute_curves alone maps each main column to its closed-form
    # or numeric column
    owned = {"CLOSED_FIELDS", "NUMERIC_FIELDS"}
    offenders = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "metrics.py" for name in sorted(names_in(path) & owned)]
    offenders += [path.name for path in SRC.glob("*.py")
                  if "include_oracle" in path.read_text(encoding="utf-8")]
    # the engine has no step: power_fd is an exact derivative, and verify
    # alone reads Tolerances.fd_step, for its central difference
    assert "fd_step" in names_in(SRC / "verify.py")
    offenders += [f"{path.name}: fd_step" for path in sorted(SRC.glob("*.py"))
                  if path.name not in ("verify.py", "tolerances.py")
                  and "fd_step" in names_in(path)]
    # and no function takes a step of its own
    offenders += [f"{path.name}: {node.name}" for path in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for arg in ast.walk(node.args)
                  if isinstance(arg, ast.arg) and arg.arg == "step"]
    # SweepConfig and figure_preset alone hold the mode defaults: the CLI
    # names a mode only in its help text
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    helps = {id(node.value) for node in ast.walk(cli)
             if isinstance(node, ast.keyword) and node.arg == "help"}
    offenders += [f"cli.py: {node.value!r}" for node in ast.walk(cli)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in helps and any(mode in node.value for mode in MODES)]
    assert offenders == []


def test_no_lapack_eigensolver_in_src():
    # the numeric route is self-contained: numpy's and scipy's eigensolvers
    # may serve the tests and the bench as references, never the program
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                modules = []
            offenders += [f"{path.name}: import {m}" for m in modules
                          if m.split(".")[0] == "scipy" or m.startswith("numpy.linalg")]
            if isinstance(node, ast.Attribute) and re.fullmatch(r"linalg|eig(vals)?h?", node.attr):
                offenders.append(f"{path.name}: .{node.attr}")
    assert offenders == []


def test_oracle_energies_are_fixed_order_elementwise_sums():
    # the state and energy forms, the oracle's per-node energies and the
    # evolved entries and coherence of both routes are real elementwise
    # products summed in the order the code writes, so no BLAS kernel or
    # reduction order decides their bits
    tree = ast.parse((SRC / "dynamics.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    banned = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot", "sum"}
    offenders = []
    for name in ("_state_forms", "_combine", "_energy_forms", "_evolved_energies",
                 "_evolved_parts", "_evolved_coherence"):
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                offenders.append(f"{name}: @")
            called = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if called in banned:
                offenders.append(f"{name}: {called}")
    assert offenders == []


def test_the_curve_engine_forms_no_state():
    # every oracle column is read off the state and energy forms: metrics
    # evolves no state, builds no unitary and checks no state as eigensolver
    # input; verify alone forms states
    assert names_in(SRC / "metrics.py") & {"evolve", "_conjugate", "unitaries",
                                           "_check_input"} == set()


def test_src_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
