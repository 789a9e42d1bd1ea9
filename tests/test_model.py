import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    BatteryParams,
    ParameterOverflowError,
    build_full_hamiltonian,
    gibbs_state_closed_form,
    gibbs_state_numeric,
    hermitian_eigendecomposition,
    thermal_terms,
)
from reference import (build_charging_hamiltonian, build_degenerate_hamiltonian,
                       check_density_matrix, numpy_random_cloud)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_assembly(p):
    # independent tensor-product assembly; the zz coefficient is 2*xic,
    # so the diagonal corners are +/- xic
    return -0.5 * (
        p.xi1 * np.kron(SX, I2)
        + p.xi2 * np.kron(I2, SX)
        - 2.0 * p.xic * np.kron(SZ, SZ)
    )


def test_params_validation():
    with pytest.raises(ValueError):
        BatteryParams(xi1=-1.0, xi2=0.0, xic=0.0, temperature=1.0)
    with pytest.raises(ValueError):
        BatteryParams(xi1=0.0, xi2=0.0, xic=0.0, temperature=0.0)
    with pytest.raises(ValueError):
        BatteryParams(xi1=0.0, xi2=0.0, xic=float("nan"), temperature=1.0)
    with pytest.raises(ValueError):
        BatteryParams(xi1=0.0, xi2=0.0, xic=0.0, temperature=1.0, ng1=1.5)


ENERGY = st.one_of(st.sampled_from([0.0, 1e-300, 1e150]), st.floats(0.0, 1e150))
COUPLING = st.one_of(st.sampled_from([0.0, 1e-300, -1e-300, 1e150, -1e150]),
                     st.floats(-1e150, 1e150))


@settings(max_examples=200, deadline=None)
@given(ENERGY, ENERGY, COUPLING, st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_full_hamiltonian_reduces_at_degeneracy(xi1, xi2, xic, xic1, xic2):
    # values, not bytes: the Kronecker sum gives -0.0 where the entrywise
    # reference has +0.0; the charging energies xic1, xic2 drop out at any size
    p = BatteryParams(xi1=xi1, xi2=xi2, xic=xic, temperature=1.0, xic1=xic1, xic2=xic2)
    assert np.array_equal(build_full_hamiltonian(p), build_degenerate_hamiltonian(p))


def test_full_hamiltonian_all_zero():
    p = BatteryParams(xi1=0, xi2=0, xic=0, temperature=1.0)
    assert np.array_equal(build_full_hamiltonian(p), np.zeros((4, 4)))


def test_full_hamiltonian_gate_charge_term():
    # only xic1 active, ng1 = 0: coefficient 4*xic1*(1/2) = 2 on -sz1/2
    p = BatteryParams(xi1=0, xi2=0, xic=0, temperature=1.0, xic1=1.0, ng1=0.0)
    expected = -np.kron(SZ, I2)
    assert np.allclose(build_full_hamiltonian(p), expected, atol=1e-15)


def test_full_hamiltonian_is_finite_where_its_entries_are():
    # 2 xic overflows at xic = 1e308, and inf times the zero entries of Z x Z
    # is NaN; H itself has the finite diagonal (xic, -xic, -xic, xic)
    h = build_full_hamiltonian(BatteryParams(1.0, 0.5, 1e308, 0.1))
    assert np.isfinite(h).all()
    assert np.array_equal(h.diagonal(), [1e308, -1e308, -1e308, 1e308])


def test_degenerate_hamiltonian_entries_and_kron(rng):
    p = BatteryParams(xi1=0, xi2=0, xic=1.0, temperature=1.0)
    assert np.allclose(build_full_hamiltonian(p), np.diag([1, -1, -1, 1]), atol=0)
    for _ in range(20):
        q = BatteryParams(
            xi1=float(rng.uniform(0, 3)),
            xi2=float(rng.uniform(0, 3)),
            xic=float(rng.uniform(-2, 2)),
            temperature=1.0,
        )
        h = build_full_hamiltonian(q)
        assert np.max(np.abs(h - kron_assembly(q))) <= 1e-15
        assert np.array_equal(h, h.conj().T)


def test_charging_hamiltonian_pattern():
    assert np.array_equal(build_charging_hamiltonian(0.0), np.zeros((4, 4)))
    h1 = build_charging_hamiltonian(1.0)
    expected = np.array(
        [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex
    )
    assert np.array_equal(h1, expected)
    assert np.array_equal(build_charging_hamiltonian(2.0), 2 * h1)


def test_thermal_terms_zero_energies():
    p = BatteryParams(xi1=0, xi2=0, xic=0, temperature=1.0)
    t = thermal_terms(p)
    assert t.alpha_plus == 0 and t.alpha_minus == 0
    assert t.ra_plus == 0.5 and t.ra_minus == 0.5
    assert t.rb_plus == 0 and t.rb_minus == 0


def test_thermal_terms_scalar_example():
    p = BatteryParams(xi1=1.5, xi2=1.5, xic=0.5, temperature=0.1)
    t = thermal_terms(p)
    assert t.alpha_plus == pytest.approx(math.sqrt(10), abs=1e-15)
    assert t.alpha_minus == pytest.approx(1.0, abs=1e-15)
    d = math.cosh(math.sqrt(10) / 0.2) + math.cosh(5.0)
    assert t.ra_plus == pytest.approx(math.cosh(math.sqrt(10) / 0.2) / d, rel=1e-14)
    assert t.rb_plus == pytest.approx(math.sinh(math.sqrt(10) / 0.2) / d, rel=1e-14)
    assert t.ra_minus == pytest.approx(math.cosh(5.0) / d, rel=1e-14)
    assert t.rb_minus == pytest.approx(math.sinh(5.0) / d, rel=1e-14)


def test_thermal_terms_high_temperature_limit():
    p = BatteryParams(xi1=1.0, xi2=0.7, xic=0.3, temperature=1e6)
    t = thermal_terms(p)
    assert abs(t.ra_plus - 0.5) < 1e-6 and abs(t.ra_minus - 0.5) < 1e-6
    assert t.rb_plus < 1e-6 and t.rb_minus < 1e-6


def test_thermal_terms_invariants(preset_params):
    for p in preset_params:
        t = thermal_terms(p)
        assert t.ra_plus + t.ra_minus == pytest.approx(1.0, rel=1e-15)
        assert 0 < t.ra_minus <= t.ra_plus
        assert 0 <= t.rb_plus <= t.ra_plus and 0 <= t.rb_minus <= t.ra_minus
        assert t.alpha_plus >= 0 and t.alpha_minus >= 0


def test_thermal_terms_overflow_error():
    with pytest.raises(ParameterOverflowError):
        thermal_terms(BatteryParams(xi1=1e200, xi2=0, xic=0, temperature=1.0))
    with pytest.raises(ParameterOverflowError):
        thermal_terms(BatteryParams(xi1=1.0, xi2=0, xic=0, temperature=5e-324))
    with pytest.raises(ParameterOverflowError, match="thermal terms are not finite"):
        thermal_terms(BatteryParams(xi1=0, xi2=0, xic=0, temperature=5e-324))


def test_closed_forms_refuse_off_degeneracy():
    p = BatteryParams(xi1=1.0, xi2=1.0, xic=0.1, temperature=1.0, ng1=0.3)
    with pytest.raises(ValueError):
        thermal_terms(p)
    with pytest.raises(ValueError):
        gibbs_state_closed_form(p)


def test_gibbs_numeric_zero_hamiltonian_and_high_t():
    rho = gibbs_state_numeric(np.zeros((4, 4), dtype=complex), 0.7)
    assert np.allclose(rho, np.eye(4) / 4, atol=1e-14)
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=1e7)
    h = build_full_hamiltonian(p)
    assert np.max(np.abs(gibbs_state_numeric(h, p.temperature) - np.eye(4) / 4)) < 1e-6


def test_gibbs_numeric_at_subnormal_temperature_is_the_ground_state():
    # gaps over T overflow to inf at T = 4e-324; under warnings-as-errors the
    # overflow must stay silent and the weights must be the ground-state limit
    h = build_full_hamiltonian(BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=1.0))
    rho = gibbs_state_numeric(h, 4e-324)
    ground = np.linalg.eigh(h)[1][:, 0]
    assert np.max(np.abs(rho - np.outer(ground, ground.conj()))) <= 1e-14
    with pytest.raises(ValueError, match="temperature must be positive"):
        gibbs_state_numeric(h, 0.0)


def test_gibbs_numeric_diagonal_example():
    # xi1 = xi2 = 0, xic = 0.5, T = 0.5: weights exp(-/+1) on the diagonal
    p = BatteryParams(xi1=0, xi2=0, xic=0.5, temperature=0.5)
    h = build_full_hamiltonian(p)
    rho = gibbs_state_numeric(h, p.temperature)
    z = 2 * math.e + 2 / math.e
    expected = np.diag([1 / math.e, math.e, math.e, 1 / math.e]) / z
    assert np.max(np.abs(rho - expected)) <= 1e-14
    assert rho[0, 0].real == pytest.approx(0.05960146101105878, abs=1e-15)


def test_gibbs_closed_matches_numeric_on_cloud(rng, preset_params):
    worst = 0.0
    for p in numpy_random_cloud(300, seed=rng) + preset_params:
        h = build_full_hamiltonian(p)
        closed = gibbs_state_closed_form(p)
        numeric = gibbs_state_numeric(h, p.temperature)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst <= 1e-10


def test_gibbs_closed_offdiagonals_vanish_without_josephson():
    p = BatteryParams(xi1=0, xi2=0, xic=0.8, temperature=0.3)
    rho = gibbs_state_closed_form(p)
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) <= 1e-15


def test_gibbs_closed_high_temperature_limit():
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=1e7)
    assert np.max(np.abs(gibbs_state_closed_form(p) - np.eye(4) / 4)) < 1e-6


def test_gibbs_shifted_evaluation_regime():
    # alpha/(2T) ~ 800 overflows raw cosh; the entries must still be exact
    p = BatteryParams(xi1=4.0, xi2=4.0, xic=0.0, temperature=0.005)
    t = thermal_terms(p)
    assert all(math.isfinite(v) for v in dataclasses.astuple(t))
    closed = gibbs_state_closed_form(p)
    h = build_full_hamiltonian(p)
    numeric = gibbs_state_numeric(h, p.temperature)
    assert np.max(np.abs(closed - numeric)) <= 1e-10
    check_density_matrix(closed)


def test_thermal_mean_energy_identity(rng, preset_params):
    for p in numpy_random_cloud(100, seed=rng) + preset_params:
        h = build_full_hamiltonian(p)
        rho = gibbs_state_numeric(h, p.temperature)
        t = thermal_terms(p)
        expected = -(t.alpha_plus * t.rb_plus + t.alpha_minus * t.rb_minus) / 2
        assert abs(float(np.trace(h @ rho).real) - expected) <= 1e-10


def test_gibbs_state_is_passive(preset_params):
    for p in preset_params:
        h = build_full_hamiltonian(p)
        rho = gibbs_state_numeric(h, p.temperature)
        dec = hermitian_eigendecomposition(h)
        populations = np.real(
            np.diag(dec.eigenvectors.conj().T @ rho @ dec.eigenvectors)
        )
        assert np.all(np.diff(populations) <= 1e-12)


def test_density_matrix_invariants(preset_params):
    for p in preset_params:
        check_density_matrix(gibbs_state_closed_form(p))
        h = build_full_hamiltonian(p)
        check_density_matrix(gibbs_state_numeric(h, p.temperature))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(4, dtype=complex))  # trace 4
