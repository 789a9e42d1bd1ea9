import ast
import dataclasses
import inspect
import random

import numpy as np
import pytest

import sqbattery.metrics as metrics_mod
import sqbattery.model as model_mod
import sqbattery.verify as verify_mod
from sqbattery.linalg import MAX_STACK, hermitian_eigendecomposition
from sqbattery.model import BatteryParams


@pytest.mark.parametrize(
    "name, suite",
    [
        ("power_closed_form", "power closed form vs finite-difference derivative"),
        ("capacity_closed_form", "capacity reconciliation and limits"),
    ],
)
def test_nan_residual_fails_its_suite(monkeypatch, name, suite):
    original = getattr(metrics_mod, name)

    def nan_valued(*args, **kwargs):
        return original(*args, **kwargs) * np.nan

    monkeypatch.setattr(metrics_mod, name, nan_valued)
    report = verify_mod.run_verification("quick")
    failed = [s for s in report.suites if not s.passed]
    assert [s.name for s in failed] == [suite]
    assert np.isnan(failed[0].max_residual)
    assert f"[FAIL] {suite}: max residual nan (tolerance" in "\n".join(report.lines())
    assert not report.passed


def test_quick_decomposes_every_input_once(monkeypatch):
    # the thermal suite's Hamiltonians with eigenvectors, then, for the
    # spectral leg, the 16 presets' 81 states at the taus eigenvalues-only, in
    # chunks of at most MAX_STACK across presets; neither H's spectrum nor the
    # states at tau +/- fd_step, which only feed the power suite, are decomposed
    inputs = []

    def counting(m, tol=None, **kwargs):
        m = np.asarray(m)
        inputs.append((m.shape, kwargs.get("vectors", True), m.tobytes()))
        return hermitian_eigendecomposition(m, tol, **kwargs)

    for module in (model_mod, metrics_mod):
        monkeypatch.setattr(module, "hermitian_eigendecomposition", counting)
    assert verify_mod.run_verification("quick").passed
    calls = [(shape, vectors) for shape, vectors, _ in inputs]
    full, rest = divmod(16 * 81, MAX_STACK)
    assert calls == ([((116, 4, 4), True)] + [((MAX_STACK, 4, 4), False)] * full
                     + [((rest, 4, 4), False)])
    assert len({(shape, data) for shape, _, data in inputs}) == len(inputs)


def test_verify_reaches_no_private_name_but_the_numeric_pass():
    # verify reduces the one shared pass; every other name it takes from
    # metrics or model is public
    tree = ast.parse(inspect.getsource(verify_mod))
    private = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("metrics", "model") and node.attr.startswith("_")}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module in ("metrics", "model") for alias in node.names}
    assert private == {"metrics._numeric_pass"}
    assert not any(name.startswith("_") for name in imported)


# the first point of the default cloud (seed 20260809), as literals
FIRST_POINT = (0.2697898563054423, 1.1411025977529217, 0.2944578564395578, 3.9708513759205757)


@pytest.mark.parametrize("args", [(100,), (1000,), (1000, 7)], ids=["100", "1000", "1000-seed-7"])
def test_random_cloud_draws_the_documented_stream(args):
    # per point, xi1, xi2 and xic from uniform(0, 3), then T from
    # uniform(0.05, 5), each drawn as low + (high - low) * random()
    count, seed = (*args, 20260809)[:2]
    rng = random.Random(seed)
    draws = [[low + (high - low) * rng.random()
              for low, high in [(0.0, 3.0)] * 3 + [(0.05, 5.0)]] for _ in range(count)]
    cloud = verify_mod.random_cloud(*args)
    assert cloud == [BatteryParams(*xis, temperature=temp) for *xis, temp in draws]
    if seed == 20260809:
        assert dataclasses.astuple(cloud[0])[:4] == FIRST_POINT


def test_unknown_level_is_refused():
    with pytest.raises(ValueError, match="level must be 'quick' or 'full', got 'bogus'"):
        verify_mod.run_verification("bogus")


def test_random_cloud_takes_int_seeds_only():
    with pytest.raises(TypeError):
        verify_mod.random_cloud(1, np.random.default_rng(5))
