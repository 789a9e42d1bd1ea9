"""Stacked numeric route: the batched Jacobi kernel and its callers.

numpy's LAPACK ``eigvalsh`` serves only as an independent reference here.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    BatteryParams,
    EigenConvergenceError,
    NotHermitianError,
    NotUnitaryError,
    Tolerances,
    build_full_hamiltonian,
    charging_unitaries,
    charging_unitary,
    compute_curve,
    compute_sample,
    dynamics,
    ergotropy,
    evolve,
    gibbs_state_numeric,
    hermitian_eigendecomposition,
    l1_coherence,
    power_fd,
)
from sqbattery.linalg import MAX_STACK
from sqbattery.metrics import ALL_METRICS, CURVE_BLOCK, compute_curves
from conftest import random_hermitian
from reference import cell_bits, reconstruct

BASE = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1)
KINDS = ("random", "zero", "diagonal", "degenerate")


def _hermitian(rng, n, kind):
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "diagonal":
        return np.diag(rng.normal(size=n)).astype(complex)
    if kind == "degenerate":
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        levels = rng.choice([-1.0, 0.5, 2.0], size=n)
        m = (q * levels) @ q.conj().T
        return (m + m.conj().T) / 2.0
    return random_hermitian(rng, n)


@st.composite
def hermitian_stacks(draw):
    n = draw(st.integers(1, 8))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(count):
        kind = draw(st.sampled_from(KINDS))
        exponent = draw(st.sampled_from((-150, 0, 150)))
        mats.append(_hermitian(rng, n, kind) * 10.0**exponent)
    return np.array(mats)


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_stacked_kernel_properties(stack):
    dec = hermitian_eigendecomposition(stack)
    n = stack.shape[-1]
    assert dec.eigenvalues.shape == stack.shape[:2]
    assert dec.eigenvectors.shape == stack.shape
    reference = np.linalg.eigvalsh(stack)
    rebuilt = reconstruct(dec)
    for i, m in enumerate(stack):
        scale = float(np.max(np.abs(m)))
        w, v = dec.eigenvalues[i], dec.eigenvectors[i]
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(w - reference[i])) <= 1e-12 * n * scale
        assert np.max(np.abs(rebuilt[i] - m)) <= 1e-11 * n * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
        alone = hermitian_eigendecomposition(m)
        assert alone.eigenvalues.tobytes() == w.tobytes()
        assert alone.eigenvectors.tobytes() == v.tobytes()


@settings(max_examples=60, deadline=None)
@given(hermitian_stacks())
def test_eigenvalues_only_match_the_full_decomposition(stack):
    full = hermitian_eigendecomposition(stack)
    only = hermitian_eigendecomposition(stack, vectors=False)
    assert only.eigenvectors is None
    assert only.eigenvalues.tobytes() == full.eigenvalues.tobytes()
    for i, m in enumerate(stack):
        alone = hermitian_eigendecomposition(m, vectors=False)
        assert alone.eigenvectors is None
        assert alone.eigenvalues.tobytes() == full.eigenvalues[i].tobytes()


def test_eigenvalues_only_chunked_stack_matches_single_decompositions(rng):
    # every kind at every scale, across three chunks
    count = 2 * MAX_STACK + 3
    stack = np.array([_hermitian(rng, 4, KINDS[i % 4]) * 10.0 ** (-150, 0, 150)[i % 3]
                      for i in range(count)])
    full = hermitian_eigendecomposition(stack)
    only = hermitian_eigendecomposition(stack, vectors=False)
    assert only.eigenvectors is None
    assert only.eigenvalues.tobytes() == full.eigenvalues.tobytes()
    for i, m in enumerate(stack):
        alone = hermitian_eigendecomposition(m, vectors=False)
        assert alone.eigenvalues.tobytes() == only.eigenvalues[i].tobytes()


def test_eigenvalues_only_rejects_like_the_full_decomposition(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
    broken = stack.copy()
    broken[2, 1, 1] = np.inf
    skewed = stack.copy()
    skewed[3, 0, 1] += 1e-6
    cases = ((broken, None, ValueError), (skewed, None, NotHermitianError),
             (stack, Tolerances(jacobi_max_sweeps=0), EigenConvergenceError))
    for m, tol, error in cases:
        raised = []
        for vectors in (True, False):
            with pytest.raises(error) as info:
                hermitian_eigendecomposition(m, tol, vectors=vectors)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]


def test_overflow_scale_eigenvalues():
    # the unscaled Frobenius norm overflows to inf for this input
    m = np.array([[0.0, 1e154], [1e154, 0.0]], dtype=complex)
    dec = hermitian_eigendecomposition(m)
    assert dec.eigenvalues == pytest.approx([-1e154, 1e154], rel=1e-15)


def test_chunked_stack_matches_single_decompositions(rng):
    count = 2 * MAX_STACK + 3
    stack = np.array([random_hermitian(rng, 2) for _ in range(count)])
    dec = hermitian_eigendecomposition(stack)
    for i in (0, MAX_STACK - 1, MAX_STACK, count - 1):
        alone = hermitian_eigendecomposition(stack[i])
        assert alone.eigenvalues.tobytes() == dec.eigenvalues[i].tobytes()
        assert alone.eigenvectors.tobytes() == dec.eigenvectors[i].tobytes()


def test_converged_matrix_keeps_its_bits_inside_a_stack(rng):
    # off-diagonal entry between the rotation threshold and the convergence
    # target: alone the matrix needs no sweep, and in a stack it must not be
    # swept along with the others
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m[0, 1] = m[1, 0] = 3e-13
    alone = hermitian_eigendecomposition(m)
    assert alone.eigenvectors.tobytes() == np.eye(4, dtype=complex).tobytes()
    dec = hermitian_eigendecomposition(np.array([random_hermitian(rng, 4), m]))
    assert dec.eigenvalues[1].tobytes() == alone.eigenvalues.tobytes()
    assert dec.eigenvectors[1].tobytes() == alone.eigenvectors.tobytes()


def test_one_bad_matrix_fails_the_stack(rng):
    stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
    skewed = stack.copy()
    skewed[3, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError, match="matrix 3"):
        hermitian_eigendecomposition(skewed)
    broken = stack.copy()
    broken[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match="matrix 2"):
        hermitian_eigendecomposition(broken)
    # diagonal matrices need no sweep; one dense matrix exhausts the budget
    easy = np.array([np.diag(rng.normal(size=4)).astype(complex) for _ in range(4)])
    easy[1] = stack[0]
    with pytest.raises(EigenConvergenceError, match="matrix 1"):
        hermitian_eigendecomposition(easy, Tolerances(jacobi_max_sweeps=1))
    assert hermitian_eigendecomposition(easy[[0, 2, 3]], Tolerances(jacobi_max_sweeps=0))


def test_evolve_checks_every_unitary():
    rho = np.eye(4, dtype=complex) / 4
    us = charging_unitaries([0.1, 0.2, 0.3])
    us[1] *= 1.01
    with pytest.raises(NotUnitaryError, match="matrix 1"):
        evolve(rho, us)


def test_stacked_callers_match_single_calls():
    taus = np.linspace(0.0, 3.0, 7)
    us = charging_unitaries(taus)
    h = build_full_hamiltonian(BASE)
    rho = gibbs_state_numeric(h, BASE.temperature)
    states = evolve(rho, us)
    energies = ergotropy(states, h)
    coherences = l1_coherence(states)
    fd = power_fd(BASE, taus)
    for i, tau in enumerate(taus):
        assert us[i].tobytes() == charging_unitary(float(tau)).tobytes()
        assert states[i].tobytes() == evolve(rho, us[i]).tobytes()
        assert energies[i] == ergotropy(states[i], h)
        assert coherences[i] == l1_coherence(states[i])
        assert fd[i] == power_fd(BASE, float(tau))


def test_evolve_beyond_one_chunk_matches_single_calls():
    # one state is evolved by one product over the unitaries' stacked rows,
    # MAX_STACK unitaries at a time
    us = charging_unitaries(np.linspace(0.0, 7.0, 2 * MAX_STACK + 3))
    rho = gibbs_state_numeric(build_full_hamiltonian(BASE), BASE.temperature)
    states = evolve(rho, us)
    for i in (0, MAX_STACK - 1, MAX_STACK, 2 * MAX_STACK, len(us) - 1):
        assert states[i].tobytes() == evolve(rho, us[i]).tobytes()


def test_gibbs_state_stack_matches_single_calls():
    params = [BASE, BatteryParams(xi1=0.2, xi2=2.0, xic=0.1, temperature=3.0)]
    hs = np.array([build_full_hamiltonian(p) for p in params])
    rhos = gibbs_state_numeric(hs, [p.temperature for p in params])
    for h, p, rho in zip(hs, params, rhos):
        assert rho.tobytes() == gibbs_state_numeric(h, p.temperature).tobytes()


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_curve_cells_equal_single_cells(mode):
    taus = np.linspace(0.0, 2 * np.pi, 9)
    curve = compute_curve(BASE, taus, mode, ALL_METRICS)
    assert len(curve) == len(taus)
    for i, tau in enumerate(taus.tolist()):
        assert cell_bits(curve, i) == cell_bits(compute_sample(BASE, tau, mode, ALL_METRICS), 0)


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_curves_of_a_block_equal_curves_alone(mode):
    # a block's Hamiltonians are decomposed in one call and its sets' nodes
    # evolved in shared chunks; an overflowing set among them is flagged
    # alone, and the next block starts fresh
    params = [BatteryParams(xi1=0.2 * k, xi2=1.5, xic=0.3, temperature=0.05 + 0.3 * k)
              for k in range(CURVE_BLOCK + 3)]
    params[2] = BatteryParams(xi1=1e200, xi2=0.0, xic=0.0, temperature=1.0)
    taus = np.linspace(0.0, 2 * np.pi, 41)
    curves = list(compute_curves(params, taus, mode, ALL_METRICS))
    assert len(curves) == len(params)
    for p, curve in zip(params, curves):
        alone = compute_curve(p, taus, mode, ALL_METRICS)
        assert [cell_bits(curve, i) for i in range(len(taus))] == \
            [cell_bits(alone, i) for i in range(len(taus))]
    assert [c.flag for c in curves].count("overflow") == (mode != "oracle-only")


def test_overflow_curve_flags_every_cell():
    p = BatteryParams(xi1=1e200, xi2=0.0, xic=0.0, temperature=1.0)
    curve = compute_curve(p, [0.1, 0.5], metrics=ALL_METRICS)
    assert len(curve) == 2 and curve.flag == "overflow" and curve.columns == {}


def test_oracle_curve_peak_memory():
    # no state is formed and H is decomposed once: about 0.08 MB
    grid = dynamics.TauGrid(np.linspace(0.0, 2 * np.pi, 401))
    compute_curve(BASE, grid, "corrected", ALL_METRICS)  # builds the grid's quadratics
    tracemalloc.start()
    try:
        compute_curve(BASE, grid, "corrected", ALL_METRICS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"one curve peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("mode", ["corrected", "oracle-only"])
def test_long_curve_peak_memory_is_set_by_per_tau_temporaries(mode):
    # no state is formed, and coherence is read off the distinct entries of
    # the closed-form states or off the oracle's state form, so a 4001-tau
    # curve's peak is set by per-tau temporaries: about 0.8 MB (corrected)
    # and 0.7 MB (oracle-only), where a (4001, 4, 4) complex stack alone is 1 MB
    grid = dynamics.TauGrid(np.linspace(0.0, 2 * np.pi, 4001))
    compute_curve(BASE, grid, mode, ALL_METRICS)  # builds the grid's quadratics
    tracemalloc.start()
    try:
        compute_curve(BASE, grid, mode, ALL_METRICS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"one curve peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_curve_longer_than_max_stack_equals_single_cells(mode):
    # a curve of more taus than MAX_STACK, the largest stack the library
    # decomposes, gives every cell the bits it has alone
    taus = np.linspace(0.0, 2 * np.pi, MAX_STACK + 88)
    for metrics in (ALL_METRICS, ("power_fd",)):
        curve = compute_curve(BASE, taus, mode, metrics)
        for i, tau in enumerate(taus.tolist()):
            assert cell_bits(curve, i) == cell_bits(compute_sample(BASE, tau, mode, metrics), 0)
