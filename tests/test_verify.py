import ast
import dataclasses
import inspect
import random

import numpy as np
import pytest

import sqbattery.linalg as linalg_mod
import sqbattery.metrics as metrics_mod
import sqbattery.model as model_mod
import sqbattery.verify as verify_mod
from sqbattery.linalg import MAX_STACK, hermitian_eigendecomposition
from sqbattery.dynamics import charging_unitaries, evolve
from sqbattery.model import BatteryParams


@pytest.mark.parametrize(
    "name, suite",
    [
        ("power_closed_form", "power closed form vs finite-difference derivative"),
        ("capacity_closed_form", "capacity reconciliation and limits"),
    ],
)
def test_nan_residual_fails_its_suite(monkeypatch, name, suite):
    # the closed form is made NaN both as a public function and as the body
    # of compute_curve's column, whose columns verify reads
    def nan_valued(original):
        return lambda *args, **kwargs: original(*args, **kwargs) * np.nan

    monkeypatch.setattr(metrics_mod, name, nan_valued(getattr(metrics_mod, name)))
    column = name.removesuffix("_form")
    monkeypatch.setitem(metrics_mod._THERMAL_BODIES, column,
                        nan_valued(metrics_mod._THERMAL_BODIES[column]))
    report = verify_mod.run_verification("quick")
    failed = [s for s in report.suites if not s.passed]
    assert [s.name for s in failed] == [suite]
    assert np.isnan(failed[0].max_residual)
    assert f"[FAIL] {suite}: max residual nan (tolerance" in "\n".join(report.lines())
    assert not report.passed


def test_quick_eigensolver_call_list(monkeypatch):
    # the kernel's chunks: the thermal suite's Hamiltonians with eigenvectors,
    # then the curve engine's one block, the 16 presets' H with eigenvectors,
    # then, for the spectral leg, the 16 presets' 81 states at the taus
    # eigenvalues-only, in stacks of as many whole presets as fit in
    # MAX_STACK; neither H's spectrum nor the states at tau +/- fd_step, which
    # only feed the power suite, are decomposed
    presets, per_stack = verify_mod.preset_param_sets(), MAX_STACK // 81
    u = charging_unitaries(np.linspace(0.0, 2.0 * np.pi, 81))
    states = [evolve(model_mod.gibbs_state_numeric(model_mod.build_full_hamiltonian(p),
                                                   p.temperature), u) for p in presets]
    chunks = []
    decompose = linalg_mod._decompose

    def counting(m, offset, tol, vectors):
        chunks.append((m.shape, vectors, m.copy()))
        return decompose(m, offset, tol, vectors)

    monkeypatch.setattr(linalg_mod, "_decompose", counting)
    assert verify_mod.run_verification("quick").passed
    assert [(shape, vectors) for shape, vectors, _ in chunks] == (
        [((116, 4, 4), True), ((16, 4, 4), True)] + [((per_stack * 81, 4, 4), False)] * 2
        + [(((16 - 2 * per_stack) * 81, 4, 4), False)])
    hamiltonians = [model_mod.build_full_hamiltonian(p) for p in presets]
    assert np.array_equal(chunks[0][2], hamiltonians + [
        model_mod.build_full_hamiltonian(p) for p in verify_mod.random_cloud(100)])
    assert np.array_equal(chunks[1][2], hamiltonians)
    assert np.array_equal(np.concatenate([m for _, _, m in chunks[2:]]), np.concatenate(states))


def test_quick_reads_the_oracle_off_one_engine_call(monkeypatch):
    # the closed and oracle columns at the taus and the energies at
    # tau +/- fd_step come from one compute_curves call over the presets on
    # the 3 x 81 taus
    calls = []
    compute_curves = metrics_mod.compute_curves

    def recording(params, taus, mode, metrics, tol):
        calls.append((len(params), np.shape(taus), mode, metrics))
        return compute_curves(params, taus, mode, metrics, tol)

    monkeypatch.setattr(metrics_mod, "compute_curves", recording)
    assert verify_mod.run_verification("quick").passed
    assert len(calls) == 1
    count, shape, mode, metrics = calls[0]
    assert (count, shape, mode) == (16, (243,), "corrected")
    assert {"ergotropy_numeric", "power_fd"} <= set(metrics)


def test_verify_reaches_no_private_name_but_the_numeric_pass():
    # verify reduces the curve engine's numeric pass and columns, forms the
    # evolved states itself, and reads the spectral leg's ergotropies off
    # their spectra; every other name it takes from metrics, model or
    # dynamics is public
    tree = ast.parse(inspect.getsource(verify_mod))
    modules = ("metrics", "model", "dynamics")
    private = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module in modules for alias in node.names}
    assert private == {"metrics._numeric_pass", "metrics._ergotropies"}
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
