import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import sqbattery.metrics as metrics_mod
import sqbattery.model as model_mod
import sqbattery.verify as verify_mod
from sqbattery.linalg import hermitian_eigendecomposition
from reference import numpy_random_cloud


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


@given(seed=st.integers(0, 2**130 - 1),
       sizes=st.lists(st.sampled_from([None, 3]), min_size=1, max_size=20))
@example(seed=0, sizes=[3, None])
@example(seed=2**32, sizes=[None, 3, 3])
@example(seed=2**128, sizes=[3, None, None])
@example(seed=2**130 - 1, sizes=[None, 3])
def test_stream_matches_numpy_default_rng(seed, sizes):
    # scalar and size=3 draws interleaved, with the bounds random_cloud uses
    ours, theirs = verify_mod._PCG64(seed), np.random.default_rng(seed)
    for size in sizes:
        low, high = (0.05, 5.0) if size is None else (0.0, 3.0)
        expected = theirs.uniform(low, high, size)
        drawn = ours.uniform(low, high, size)
        assert drawn == (expected if size is None else expected.tolist())


@pytest.mark.parametrize("args", [(100,), (1000,), (1000, 7), (4, np.int64(7))],
                         ids=["100", "1000", "1000-seed-7", "numpy-integer-seed"])
def test_random_cloud_matches_numpy(args):
    assert verify_mod.random_cloud(*args) == numpy_random_cloud(*args)


def test_random_cloud_uses_a_generator_as_given():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    assert verify_mod.random_cloud(3, rng) == numpy_random_cloud(3, twin)
    assert rng.uniform() == twin.uniform()


def test_random_cloud_rejects_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        verify_mod.random_cloud(1, -1)
