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
    # metrics.compute_curve alone applies the finite-difference rule and
    # maps each main column to its closed-form or numeric column
    owned = {"require_resolved", "CLOSED_FIELDS", "NUMERIC_FIELDS"}
    offenders = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "metrics.py" for name in sorted(names_in(path) & owned)]
    offenders += [path.name for path in SRC.glob("*.py")
                  if "include_oracle" in path.read_text(encoding="utf-8")]
    # Tolerances.fd_step alone sets the finite-difference step: no function
    # takes a step of its own
    offenders += [f"{path.name}: {node.name}" for path in sorted(SRC.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for arg in ast.walk(node.args)
                  if isinstance(arg, ast.arg) and arg.arg == "step"]
    assert offenders == []
