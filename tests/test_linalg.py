import numpy as np
import pytest

from sqbattery import (
    BatteryParams,
    EigenConvergenceError,
    NotHermitianError,
    Tolerances,
    build_full_hamiltonian,
    hermitian_eigendecomposition,
)
from conftest import random_hermitian
from reference import is_unitary, reconstruct, unitary_from_hamiltonian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def char_poly_roots(m):
    """Characteristic polynomial roots via Faddeev-LeVerrier coefficients."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -np.trace(mk).real / k
        mk = mk + c * np.eye(n)
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)


def test_identity_eigenvalues():
    dec = hermitian_eigendecomposition(np.eye(4, dtype=complex))
    assert np.allclose(dec.eigenvalues, np.ones(4), atol=1e-14)


def test_diagonal_matrix_sorted_ascending():
    xc = 0.5
    dec = hermitian_eigendecomposition(np.diag([xc, -xc, -xc, xc]).astype(complex))
    assert np.allclose(dec.eigenvalues, [-0.5, -0.5, 0.5, 0.5], atol=1e-14)


def test_battery_hamiltonian_eigenvalues_vs_char_poly():
    p = BatteryParams(xi1=1.5, xi2=1.5, xic=0.5, temperature=1.0)
    h = build_full_hamiltonian(p)
    dec = hermitian_eigendecomposition(h)
    assert np.allclose(dec.eigenvalues, char_poly_roots(h), atol=1e-10)
    # gaps are sqrt(4 xic^2 + (xi1 +/- xi2)^2); eigenvalues are +/- gap/2
    expected = np.sort([-np.sqrt(10) / 2, -0.5, 0.5, np.sqrt(10) / 2])
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


def test_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        hermitian_eigendecomposition(m)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(np.zeros((2, 3), dtype=complex))


def test_rejects_non_finite_entries():
    m = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_eigendecomposition(m)


def test_sweep_budget_enforced(rng):
    m = random_hermitian(rng, 5)
    with pytest.raises(EigenConvergenceError):
        hermitian_eigendecomposition(m, Tolerances(jacobi_max_sweeps=0))


def test_reconstruction_gram_trace_properties(rng):
    worst_rec = worst_gram = worst_trace = worst_np = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = random_hermitian(rng, n)
        dec = hermitian_eigendecomposition(m)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        worst_rec = max(worst_rec, np.max(np.abs(reconstruct(dec) - m)))
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        worst_gram = max(worst_gram, np.max(np.abs(gram - np.eye(n))))
        worst_trace = max(worst_trace, abs(np.trace(m).real - dec.eigenvalues.sum()))
        # independent reference: LAPACK eigenvalues
        worst_np = max(
            worst_np,
            np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(m))),
        )
    assert worst_rec <= 1e-10
    assert worst_gram <= 1e-12
    assert worst_trace <= 1e-10
    assert worst_np <= 1e-10


def test_eigenvalue_imaginary_residue(rng):
    # diagonalizing in the computed basis leaves only real residue on the diagonal
    for _ in range(50):
        m = random_hermitian(rng, int(rng.integers(2, 7)))
        dec = hermitian_eigendecomposition(m)
        diag = np.diag(dec.eigenvectors.conj().T @ m @ dec.eigenvectors)
        assert np.max(np.abs(diag.imag)) <= 1e-12


def test_deterministic_output():
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=1.0, temperature=0.2)
    h = build_full_hamiltonian(p)
    a = hermitian_eigendecomposition(h)
    b = hermitian_eigendecomposition(h.copy())
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


def test_unitary_from_hamiltonian_t0_is_identity(rng):
    m = random_hermitian(rng, 4)
    assert np.max(np.abs(unitary_from_hamiltonian(m, 0.0) - np.eye(4))) <= 1e-14


def test_unitary_from_hamiltonian_pauli_x_quarter_period():
    u = unitary_from_hamiltonian(SX, np.pi / 2)
    assert np.max(np.abs(u - (-1j) * SX)) <= 1e-12


def test_unitarity_over_long_times(rng):
    m = random_hermitian(rng, 4)
    for t in [-100.0, -3.7, 0.1, 42.0, 100.0]:
        u = unitary_from_hamiltonian(m, t)
        assert is_unitary(u, 1e-10)


def test_hermitian_unitary_predicates():
    assert is_unitary(np.eye(3, dtype=complex), 0.0)
    assert not is_unitary(0.5 * np.eye(3, dtype=complex), 1e-10)
