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
    inputs = []

    def counting(m, tol=None):
        m = np.asarray(m)
        inputs.append((m.shape, m.tobytes()))
        return hermitian_eigendecomposition(m, tol)

    for module in (model_mod, metrics_mod):
        monkeypatch.setattr(module, "hermitian_eigendecomposition", counting)
    assert verify_mod.run_verification("quick").passed
    assert len(set(inputs)) == len(inputs)
    assert len(inputs) <= 33
