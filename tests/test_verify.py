import numpy as np
import pytest

import sqbattery.metrics as metrics_mod
import sqbattery.model as model_mod
import sqbattery.verify as verify_mod
from sqbattery.linalg import hermitian_eigendecomposition


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
    # the thermal suite's Hamiltonians with eigenvectors, then each preset's
    # 3 x 81 evolved states eigenvalues-only; H's spectrum is not recomputed
    inputs = []

    def counting(m, tol=None, **kwargs):
        m = np.asarray(m)
        inputs.append((m.shape, kwargs.get("vectors", True), m.tobytes()))
        return hermitian_eigendecomposition(m, tol, **kwargs)

    for module in (model_mod, metrics_mod, verify_mod):
        monkeypatch.setattr(module, "hermitian_eigendecomposition", counting)
    assert verify_mod.run_verification("quick").passed
    calls = [(shape, vectors) for shape, vectors, _ in inputs]
    assert calls == [((116, 4, 4), True)] + [((243, 4, 4), False)] * 16
    assert len({(shape, data) for shape, _, data in inputs}) == len(inputs)
