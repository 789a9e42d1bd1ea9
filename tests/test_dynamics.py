import numpy as np
import pytest

from sqbattery import (
    BatteryParams,
    NotUnitaryError,
    charging_unitary,
    evolve,
    evolved_state_closed_form,
    gibbs_state_closed_form,
    gibbs_state_numeric,
    build_full_hamiltonian,
    hermitian_eigendecomposition,
    thermal_terms,
)
from conftest import random_density
from reference import build_charging_hamiltonian, is_unitary, unitary_from_hamiltonian


def test_unitary_at_zero_is_identity():
    assert np.array_equal(charging_unitary(0.0), np.eye(4, dtype=complex))


def test_unitary_at_quarter_period_is_double_flip():
    u = charging_unitary(np.pi / 2)
    expected = -np.fliplr(np.eye(4)).astype(complex)
    assert np.max(np.abs(u - expected)) <= 1e-15


def test_unitary_matches_eigenbasis_exponential():
    h = build_charging_hamiltonian(1.0)
    for tau in [0.3, 1.1, 4.9]:
        u_closed = charging_unitary(tau)
        u_numeric = unitary_from_hamiltonian(h, tau)
        assert np.max(np.abs(u_closed - u_numeric)) <= 1e-10


def test_unitarity_on_dense_grid():
    eye = np.eye(4)
    for tau in np.linspace(0.0, 2 * np.pi, 241):
        u = charging_unitary(float(tau))
        assert np.max(np.abs(u @ u.conj().T - eye)) <= 1e-12


def test_evolve_identity_and_antidiagonal():
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.allclose(evolve(rho, np.eye(4, dtype=complex)), rho, atol=0)
    flipped = evolve(rho, charging_unitary(np.pi / 2))
    assert np.max(np.abs(flipped - np.diag([0.4, 0.3, 0.2, 0.1]))) <= 1e-14


def test_evolve_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        evolve(np.eye(4, dtype=complex) / 4, 0.5 * np.eye(4, dtype=complex))


def test_evolve_rejects_a_nan_unitary():
    # a NaN deviation from unitarity compares False with "> tol" and passed
    u = np.full((4, 4), np.nan) + 0j
    with pytest.raises(NotUnitaryError, match="by nan"):
        evolve(np.eye(4, dtype=complex) / 4, u)
    with pytest.raises(NotUnitaryError, match="matrix 1 of the stack"):
        evolve(np.eye(4, dtype=complex) / 4, np.stack([np.eye(4), u]))


def test_evolve_preserves_spectrum_and_trace(rng):
    for _ in range(30):
        rho = random_density(rng, 4)
        tau = float(rng.uniform(0, 2 * np.pi))
        out = evolve(rho, charging_unitary(tau))
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        s_in = hermitian_eigendecomposition(rho).eigenvalues
        s_out = hermitian_eigendecomposition(out).eigenvalues
        assert np.max(np.abs(s_in - s_out)) <= 1e-10


def test_closed_form_at_zero_equals_thermal_state(preset_params):
    for p in preset_params:
        r0 = evolved_state_closed_form(p, 0.0)
        assert np.max(np.abs(r0 - gibbs_state_closed_form(p))) <= 1e-15


def test_closed_form_matches_numeric_conjugation(preset_params):
    taus = np.linspace(0.0, 2 * np.pi, 61)
    worst = 0.0
    for p in preset_params:
        h = build_full_hamiltonian(p)
        rho = gibbs_state_numeric(h, p.temperature)
        for tau in taus:
            numeric = evolve(rho, charging_unitary(float(tau)))
            closed = evolved_state_closed_form(p, float(tau))
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst <= 1e-9


def test_pi_periodicity(preset_params):
    for p in preset_params[:4]:
        for tau in (0.0, 0.4, 1.3):
            a = evolved_state_closed_form(p, tau)
            b = evolved_state_closed_form(p, tau + np.pi)
            assert np.max(np.abs(a - b)) <= 1e-10


def test_verbatim_mode_at_zero_and_full_period(preset_params):
    # the original expressions coincide with the exact state at tau = 0, pi
    # (at pi/2 they flip the off-diagonal signs relative to the exact state,
    # one more inconsistency of the published elements)
    for p in preset_params[:4]:
        for tau in (0.0, np.pi):
            v = evolved_state_closed_form(p, tau, mode="verbatim")
            c = evolved_state_closed_form(p, tau, mode="corrected")
            assert np.max(np.abs(v - c)) <= 1e-12
        v_half = evolved_state_closed_form(p, np.pi / 2, mode="verbatim")
        c_half = evolved_state_closed_form(p, np.pi / 2, mode="corrected")
        assert np.max(np.abs(np.diag(v_half - c_half))) <= 1e-12
        assert np.max(np.abs(np.abs(v_half) - np.abs(c_half))) <= 1e-12


def test_verbatim_mode_trace_drift_is_the_predicted_one(preset_params):
    # the original element expressions are not trace-preserving; their trace
    # drifts by exactly (xi1+xi2) sin(2 tau) B+ / (alpha+ (A+ + A-))
    for p in preset_params:
        t = thermal_terms(p)
        for tau in (0.3, 1.0, 2.2):
            v = evolved_state_closed_form(p, tau, mode="verbatim")
            drift = (p.xi1 + p.xi2) * np.sin(2 * tau) * t.rs_plus
            assert abs(np.trace(v).real - 1.0 - drift) <= 1e-12
            assert np.max(np.abs(v.imag)) == 0.0


def test_rejects_unknown_mode():
    p = BatteryParams(xi1=1.0, xi2=1.0, xic=0.1, temperature=0.5)
    with pytest.raises(ValueError):
        evolved_state_closed_form(p, 0.1, mode="exact")


def test_is_unitary_predicate_on_charging_unitary():
    assert is_unitary(charging_unitary(0.37), 1e-12)
