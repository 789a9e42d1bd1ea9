import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    DEFAULT_TOLERANCES,
    BatteryParams,
    Tolerances,
    build_full_hamiltonian,
    capacity_closed_form,
    capacity_definitional,
    charging_unitaries,
    charging_unitary,
    compute_curve,
    compute_sample,
    ergotropy,
    ergotropy_closed_form,
    ergotropy_vs_reference,
    evolve,
    gibbs_state_numeric,
    hermitian_eigendecomposition,
    l1_coherence,
    power_closed_form,
    power_fd,
    thermal_terms,
)
from sqbattery import dynamics as dynamics_mod
from sqbattery import metrics as metrics_mod
from sqbattery import model as model_mod
from sqbattery import verify as verify_mod
from sqbattery.metrics import ALL_METRICS
from sqbattery.sweep import summarize_curve
from conftest import random_density, random_hermitian
from reference import build_charging_hamiltonian, passive_state
from test_tau_grid import counted


def evolved(p, tau):
    h = build_full_hamiltonian(p)
    rho = gibbs_state_numeric(h, p.temperature)
    return h, rho, evolve(rho, charging_unitary(tau))


# ---------------------------------------------------------------- passive state

def test_passive_state_of_gibbs_is_gibbs():
    p = BatteryParams(xi1=1.5, xi2=0.7, xic=0.4, temperature=0.3)
    h = build_full_hamiltonian(p)
    rho = gibbs_state_numeric(h, p.temperature)
    assert np.max(np.abs(passive_state(rho, h) - rho)) <= 1e-12


def test_passive_state_of_maximally_mixed_is_itself(rng):
    h = random_hermitian(rng, 4)
    mixed = np.eye(4, dtype=complex) / 4
    assert np.max(np.abs(passive_state(mixed, h) - mixed)) <= 1e-12


def test_passive_state_two_level_sort():
    rho = np.diag([0.1, 0.9]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(passive_state(rho, h), np.diag([0.9, 0.1]), atol=1e-14)


def test_passive_state_commutes_with_hamiltonian(rng):
    for _ in range(20):
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        pi_state = passive_state(rho, h)
        comm = pi_state @ h - h @ pi_state
        assert np.max(np.abs(comm)) <= 1e-10


# ------------------------------------------------------------------- ergotropy

def test_ergotropy_of_passive_state_is_zero(rng):
    for _ in range(10):
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        assert abs(ergotropy(passive_state(rho, h), h)) <= 1e-10


def test_ergotropy_two_level_example():
    rho = np.diag([0.1, 0.9]).astype(complex)
    h = np.diag([0.0, 1.0]).astype(complex)
    assert ergotropy(rho, h) == pytest.approx(0.8, abs=1e-14)


def test_ergotropy_definitions_agree_on_charged_states(preset_params):
    taus = np.linspace(0.0, 2 * np.pi, 41)
    for p in preset_params:
        h = build_full_hamiltonian(p)
        rho = gibbs_state_numeric(h, p.temperature)
        for tau in taus:
            state = evolve(rho, charging_unitary(float(tau)))
            diff = ergotropy(state, h) - ergotropy_vs_reference(state, rho, h)
            assert abs(diff) <= 1e-10


def test_ergotropy_vs_reference_zero_and_linearity(rng):
    h = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    ref = random_density(rng, 4)
    assert ergotropy_vs_reference(rho, rho, h) == 0.0
    halfway = (rho + ref) / 2
    full = ergotropy_vs_reference(rho, ref, h)
    assert ergotropy_vs_reference(halfway, ref, h) == pytest.approx(full / 2, abs=1e-12)


def test_charged_state_regression_fixture():
    # fixed parameters xi1=1.5, xi2=2, xic=0.05, T=0.5: the tau series peaks
    # at pi/4 (value frozen from an independent matrix-exponential oracle)
    # and returns to zero at pi/2, where the drive has completed a double
    # flip that leaves the thermal state invariant.
    p = BatteryParams(xi1=1.5, xi2=2.0, xic=0.05, temperature=0.5)
    h, rho, state = evolved(p, np.pi / 4)
    peak = ergotropy_vs_reference(state, rho, h)
    assert peak == pytest.approx(0.002668632889174948, abs=1e-12)
    taus = np.linspace(0.0, 2 * np.pi, 161)
    series = [
        ergotropy_vs_reference(evolve(rho, charging_unitary(float(t))), rho, h)
        for t in taus
    ]
    assert max(series) <= peak + 1e-12
    _, _, state_half = evolved(p, np.pi / 2)
    assert abs(ergotropy_vs_reference(state_half, rho, h)) <= 1e-12


def test_ergotropy_closed_form_zeros_and_grid(preset_params):
    taus = np.linspace(0.0, 2 * np.pi, 101)
    for p in preset_params:
        assert ergotropy_closed_form(p, 0.0) == 0.0
        assert abs(ergotropy_closed_form(p, np.pi)) <= 1e-10
        h = build_full_hamiltonian(p)
        rho = gibbs_state_numeric(h, p.temperature)
        for tau in taus:
            state = evolve(rho, charging_unitary(float(tau)))
            diff = ergotropy_closed_form(p, float(tau)) - ergotropy(state, h)
            assert abs(diff) <= 1e-9


def test_ergotropy_non_negative_on_random_states(rng):
    for _ in range(1000):
        h = random_hermitian(rng, 4)
        rho = random_density(rng, 4)
        assert ergotropy(rho, h) >= -1e-10


def test_ergotropy_basis_invariance_under_degeneracy(rng):
    # the charging Hamiltonian has a doubly degenerate zero eigenvalue; any
    # orthonormal basis of that eigenspace must give the same ergotropy
    h = build_charging_hamiltonian(1.0)
    rho = random_density(rng, 4)
    base = ergotropy(rho, h)
    dec = hermitian_eigendecomposition(h)
    idx = np.where(np.abs(dec.eigenvalues) < 1e-12)[0]
    assert idx.size == 2
    for _ in range(10):
        angle = float(rng.uniform(0, 2 * np.pi))
        mix = np.array(
            [
                [np.cos(angle), -np.sin(angle)],
                [np.sin(angle), np.cos(angle)],
            ],
            dtype=complex,
        )
        vectors = np.array(dec.eigenvectors, copy=True)
        vectors[:, idx] = vectors[:, idx] @ mix
        rebuilt = (vectors * dec.eigenvalues) @ vectors.conj().T
        assert abs(ergotropy(rho, rebuilt) - base) <= 1e-9


# ------------------------------------------------------------------------ work

def test_work_extracted_against_self_and_passive(rng):
    h = random_hermitian(rng, 4)
    rho = random_density(rng, 4)
    assert ergotropy_vs_reference(rho, rho, h) == 0.0
    pi_state = passive_state(rho, h)
    assert ergotropy_vs_reference(rho, pi_state, h) == pytest.approx(
        ergotropy(rho, h), abs=1e-12
    )


def test_work_bounded_by_ergotropy_for_unitary_finals(rng, preset_params):
    p = preset_params[5]
    h, rho, _ = evolved(p, 0.0)
    bound = ergotropy(rho, h)
    for _ in range(25):
        tau = float(rng.uniform(0, 2 * np.pi))
        final = evolve(rho, charging_unitary(tau))
        assert ergotropy_vs_reference(rho, final, h) <= bound + 1e-10


# ----------------------------------------------------------------------- power

def test_power_closed_form_zeros(preset_params):
    for p in preset_params[:4]:
        assert power_closed_form(p, 0.0) == 0.0
        assert abs(power_closed_form(p, np.pi / 2)) <= 1e-10


def test_power_fd_zero_cases():
    p = BatteryParams(xi1=1.5, xi2=1.0, xic=0.3, temperature=0.5)
    assert abs(power_fd(p, 0.0)) <= 1e-8
    flat = BatteryParams(xi1=0.0, xi2=0.0, xic=0.0, temperature=1.0)
    assert abs(power_fd(flat, 0.7)) <= 1e-12


def test_power_matches_finite_difference(preset_params):
    taus = np.linspace(0.0, 2 * np.pi, 41)
    for p in preset_params:
        for tau in taus:
            fd = power_fd(p, float(tau))
            assert abs(power_closed_form(p, float(tau)) - fd) <= 1e-5


def test_power_fd_is_the_closed_form_on_the_presets(preset_params):
    # the exact derivative of the oracle's energy form, to rounding; the
    # central difference it replaced was 1.7e-7 off
    taus = np.linspace(0.0, 2 * np.pi, 401)
    for p in preset_params:
        bound = 64 * np.finfo(float).eps * np.abs(build_full_hamiltonian(p)).max()
        assert np.abs(power_fd(p, taus) - power_closed_form(p, taus)).max() <= bound


def test_power_fd_rejects_bad_step():
    p = BatteryParams(xi1=1.0, xi2=1.0, xic=0.1, temperature=0.5)
    with pytest.raises(ValueError, match="tolerance fd_step must be"):
        power_fd(p, 0.1, Tolerances(fd_step=0.0))


# -------------------------------------------------------------------- capacity

def test_capacity_definitional_examples(preset_params):
    for p in preset_params:
        assert capacity_definitional(build_full_hamiltonian(p)) == 0.0
    assert capacity_definitional(np.diag([0.0, 0, 0, 1.0])) == 1.0
    assert capacity_definitional(np.diag([-1.0, 0, 0, 1.0])) == 2.0


def test_capacity_closed_form_tanh_limit():
    for xi in (0.5, 1.5, 2.5):
        for temp in (0.1, 0.5, 2.0):
            p = BatteryParams(xi1=xi, xi2=xi, xic=0.0, temperature=temp)
            expected = xi * math.tanh(xi / (2 * temp))
            assert capacity_closed_form(p) == pytest.approx(expected, abs=1e-10)


def test_capacity_closed_form_high_temperature_limit():
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=0.8, temperature=1e7)
    assert abs(capacity_closed_form(p) - p.xic) < 1e-6


def test_capacity_reconciliation(preset_params):
    for p in preset_params:
        h = build_full_hamiltonian(p)
        rho = gibbs_state_numeric(h, p.temperature)
        reconciled = p.xic - float(np.trace(h @ rho).real)
        assert abs(capacity_closed_form(p) - reconciled) <= 1e-10


# alpha/2T >= 1e5, past exponent_bound, with exp(xm - xp) from 0.05 to 0.83:
# there xm - xp taken as a difference of two numbers near alpha/2T is off by
# about eps alpha/2T, which the thermal terms used to carry
SHIFTED = [(2.0, 2.0, 1724.0, 1.5e-3), (1.0, 3.0, 500.0, 1e-3), (3.0, 0.5, 2000.0, 2e-3)]


@pytest.mark.parametrize("xi1, xi2, xic, temp", SHIFTED)
def test_shifted_closed_forms_match_50_digits(xi1, xi2, xic, temp):
    taus = [0.3, 0.7, 1.1]
    with mpmath.workdps(50):
        x1, x2, xc, t = map(mpmath.mpf, (xi1, xi2, xic, temp))
        a_plus = mpmath.sqrt(4 * xc**2 + (x1 + x2) ** 2)
        a_minus = mpmath.sqrt(4 * xc**2 + (x1 - x2) ** 2)
        b_plus, b_minus = mpmath.sinh(a_plus / (2 * t)), mpmath.sinh(a_minus / (2 * t))
        d = mpmath.cosh(a_plus / (2 * t)) + mpmath.cosh(a_minus / (2 * t))
        rs_plus = b_plus / a_plus / d
        expected = {
            ergotropy_closed_form: [4 * xc**2 * rs_plus * mpmath.sin(2 * mpmath.mpf(tau)) ** 2
                                    for tau in taus],
            power_closed_form: [8 * xc**2 * rs_plus * mpmath.sin(4 * mpmath.mpf(tau))
                                for tau in taus],
            capacity_closed_form: [xc + (a_minus * b_minus + a_plus * b_plus) / (2 * d)],
        }
        p = BatteryParams(xi1, xi2, xic, temp)
        for fn, want in expected.items():
            got = fn(p) if fn is capacity_closed_form else fn(p, taus)
            errors = [abs((mpmath.mpf(g) - w) / w) for g, w in zip(np.atleast_1d(got), want)]
            assert max(errors) <= 1e-12, fn.__name__


# ------------------------------------------------------------------- coherence

def test_l1_coherence_diagonal_states_are_incoherent(rng):
    assert l1_coherence(np.eye(4, dtype=complex) / 4) == 0.0
    assert l1_coherence(np.diag(rng.dirichlet(np.ones(4))).astype(complex)) == 0.0


def test_l1_coherence_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert l1_coherence(rho) == pytest.approx(1.0, abs=1e-14)


def test_l1_coherence_periodicity(preset_params):
    p = preset_params[6]
    for tau in (0.2, 0.9, 1.7):
        a = l1_coherence(evolved(p, tau)[2])
        b = l1_coherence(evolved(p, tau + np.pi)[2])
        assert abs(a - b) <= 1e-10


# ------------------------------------------------------- verbatim closed forms

def test_verbatim_power_is_derivative_of_verbatim_ergotropy(preset_params):
    # internal consistency that fixes the ambiguous cosh factor to (A+ - A-):
    # with that reading the published power is d/dtau of the published
    # ergotropy with no extra scale factor
    step = 1e-6
    for p in preset_params:
        for tau in np.linspace(0.1, 3.0, 7):
            fd = (
                ergotropy_closed_form(p, tau + step, mode="verbatim")
                - ergotropy_closed_form(p, tau - step, mode="verbatim")
            ) / (2 * step)
            assert abs(power_closed_form(p, tau, mode="verbatim") - fd) <= 1e-6


def test_verbatim_ergotropy_peaks_at_half_pi():
    # the original closed form peaks at tau = pi/2 and grows with xi2
    # (the figure-facing behavior); the exact dynamics does neither
    taus = np.linspace(0.0, 2 * np.pi, 401)
    maxima = []
    for xi2 in (0.1, 0.5, 1.0, 2.0):
        p = BatteryParams(xi1=1.5, xi2=xi2, xic=0.05, temperature=0.5)
        series = [ergotropy_closed_form(p, float(t), mode="verbatim") for t in taus]
        k = int(np.argmax(series))
        assert abs(taus[k] - np.pi / 2) <= (taus[1] - taus[0]) + 1e-12
        maxima.append(max(series))
    assert all(a < b for a, b in zip(maxima, maxima[1:]))


def test_corrected_ergotropy_is_a_pure_double_frequency_oscillation(preset_params):
    # exact dynamics: E(tau) = Ebar sin^2(2 tau), peak at pi/4, zero at pi/2
    for p in preset_params[:6]:
        ebar = ergotropy_closed_form(p, np.pi / 4)
        for tau in (0.3, 0.9, 2.4):
            expected = ebar * math.sin(2 * tau) ** 2
            assert ergotropy_closed_form(p, tau) == pytest.approx(expected, abs=1e-12)
        assert abs(ergotropy_closed_form(p, np.pi / 2)) <= 1e-12


# -------------------------------------------------------------- sample builder

def test_compute_sample_cross_check_invariant(preset_params):
    for p in preset_params[:4]:
        curve = compute_sample(p, 0.8, metrics=ALL_METRICS)
        assert curve.flag == ""
        s = curve.columns
        assert s["ergotropy_numeric"][0] >= -1e-10
        assert abs(s["ergotropy_numeric"][0] - s["ergotropy_closed"][0]) <= 1e-9
        assert abs(s["power_closed"][0] - s["power_fd"][0]) <= 1e-5
        assert s["coherence_l1"][0] >= 0.0
        assert s["capacity_definitional"] == 0.0


def test_compute_sample_metric_selector():
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1)
    s = compute_sample(p, 0.5, metrics=("ergotropy_closed",))
    assert list(s.columns) == ["ergotropy_closed"] and len(s.columns["ergotropy_closed"]) == 1
    with pytest.raises(ValueError):
        compute_sample(p, 0.5, metrics=("energy",))


def test_compute_sample_oracle_only_mode():
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1)
    s = compute_sample(p, 0.5, mode="oracle-only", metrics=ALL_METRICS)
    assert set(s.columns) == {"ergotropy_numeric", "power_fd", "capacity_definitional",
                              "capacity_reconciled", "coherence_l1"}


@pytest.mark.parametrize("mode", ["corrected", "verbatim"])
def test_scalar_tau_curve_is_its_one_tau_sample(mode):
    # every per-tau column is an array, the closed forms' too
    p = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1)
    curve = compute_curve(p, 0.3, mode, ALL_METRICS)
    sample = compute_sample(p, 0.3, mode, ALL_METRICS)
    assert curve.columns.keys() == sample.columns.keys()
    for name, value in sample.columns.items():
        assert type(curve.columns[name]) is type(value), name
        assert np.asarray(curve.columns[name]).tobytes() == np.asarray(value).tobytes(), name
    assert summarize_curve(curve, mode, p) == summarize_curve(sample, mode, p)


def test_compute_sample_overflow_flagged_in_band():
    p = BatteryParams(xi1=1e200, xi2=0.0, xic=0.0, temperature=1.0)
    s = compute_sample(p, 0.5, metrics=ALL_METRICS)
    assert s.flag == "overflow" and s.columns == {}


# ------------------------------------------------- closed forms first, gate charges

def eigensolver_calls(monkeypatch):
    """The input shape and ``vectors`` of every eigensolver call made from here on."""
    calls = []

    def counting(m, tol=None, **kwargs):
        calls.append((np.shape(m), kwargs.get("vectors", True)))
        return hermitian_eigendecomposition(m, tol, **kwargs)

    for module in (model_mod, metrics_mod):
        monkeypatch.setattr(module, "hermitian_eigendecomposition", counting)
    return calls


def test_overflowing_curve_makes_no_eigensolver_call(monkeypatch):
    calls = eigensolver_calls(monkeypatch)
    p = BatteryParams(1e200, 0.5, 0.5, 0.1)
    curve = compute_curve(p, np.linspace(0.0, 2.0 * np.pi, 401), "corrected", ALL_METRICS)
    assert curve.flag == "overflow" and curve.columns == {}
    assert calls == []


def test_oracle_route_reads_the_gate_charges():
    # off the degeneracy point: the numeric route must use the full Hamiltonian
    p = BatteryParams(1.5, 1.5, 0.5, 0.1, xic1=1.0, ng1=0.2)
    step = 1e-4
    h = build_full_hamiltonian(p)
    w, v = np.linalg.eigh(h)
    weights = np.exp(-(w - w[0]) / p.temperature)
    rho = (v * (weights / weights.sum())) @ v.conj().T
    wc, vc = np.linalg.eigh(build_charging_hamiltonian(1.0))

    def reference(tau):
        u = (vc * np.exp(-1j * wc * tau)) @ vc.conj().T
        state = u @ rho @ u.conj().T
        passive = np.sort(np.linalg.eigvalsh(state))[::-1] @ np.linalg.eigvalsh(h)
        return state, np.trace(state @ h).real - passive

    state, energy = reference(0.7)
    sample = compute_sample(p, 0.7, mode="oracle-only", metrics=ALL_METRICS).columns
    assert abs(energy - 0.5349) < 1e-4
    assert abs(sample["ergotropy_numeric"][0] - energy) <= 1e-9
    coherence = np.abs(state).sum() - np.abs(np.diag(state)).sum()
    assert abs(sample["coherence_l1"][0] - coherence) <= 1e-9
    fd = (reference(0.7 + step)[1] - reference(0.7 - step)[1]) / (2 * step)
    assert abs(sample["power_fd"][0] - fd) <= 1e-6
    assert sample["capacity_definitional"] == h[3, 3].real - h[0, 0].real
    assert abs(sample["capacity_reconciled"] - (p.xic - np.trace(h @ rho).real)) <= 1e-9


# ------------------------------------------------------ one finite-difference path

def test_power_only_curve_decomposes_only_its_nodes(monkeypatch):
    # H once, with eigenvectors, for the Gibbs state, its passive energy and
    # its energy form; the power comes from that form's slopes at the taus,
    # so no state is formed or decomposed
    p = BatteryParams(1.5, 0.5, 0.5, 0.1)
    taus = np.linspace(0.0, 2.0 * np.pi, 401)
    calls = eigensolver_calls(monkeypatch)
    compute_curve(p, taus, "corrected", ("power_fd",))
    power_fd(p, taus)
    assert calls == [((1, 4, 4), True)] * 2


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_curve_makes_one_eigensolver_call(monkeypatch, mode):
    # every evolved state's spectrum is the Gibbs weights of H's one call
    calls = eigensolver_calls(monkeypatch)
    taus = np.linspace(0.0, 2.0 * np.pi, 401)
    compute_curve(BatteryParams(1.5, 0.5, 0.5, 0.1), taus, mode, ALL_METRICS)
    assert calls == [((1, 4, 4), True)]


def test_oracle_only_curve_without_numeric_columns_makes_no_eigensolver_call(monkeypatch):
    # the gap capacity is read off H's diagonal, so no numeric pass is run,
    # and the curve has no ill_conditioned flag, which describes numeric columns
    calls = eigensolver_calls(monkeypatch)
    curve = compute_curve(BatteryParams(1.5, 0.5, 0.5, 0.3), [0.1, 0.2], "oracle-only",
                          ("capacity_definitional",))
    assert calls == []
    assert (curve.columns, curve.flag) == ({"capacity_definitional": 0.0}, "")


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_oracle_columns_form_no_state(monkeypatch, mode):
    # ergotropy_numeric and power_fd come from each set's energy form, and
    # oracle-only coherence from its state form: no charging unitary is
    # built and no state is evolved
    built = counted(monkeypatch, dynamics_mod, "_unitary_stack")
    conjugated = counted(monkeypatch, dynamics_mod, "_conjugate")
    public = counted(monkeypatch, dynamics_mod, "charging_unitaries")
    params = (BatteryParams(1.5, 0.5, 0.5, 0.1), BatteryParams(1.0, 0.5, 0.3, 0.5))
    taus = np.linspace(0.0, 2.0 * np.pi, 401)
    list(metrics_mod.compute_curves(params, taus, mode, ALL_METRICS))
    assert built == conjugated == public == []


def test_non_finite_oracle_energy_is_rejected():
    # H's largest eigenvalue, about 2.5e308, is beyond float64, so the passive
    # energy is not finite, nor are the Gibbs state and the forms; with no
    # state formed to fail the eigensolver's input check, the oracle's check
    # names the set, the column and the first tau
    p = BatteryParams(1.79e308, 1.79e308, 1.79e308, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the eigenvalues overflow
        for mode, metrics in (("corrected", ("ergotropy_numeric", "power_fd")),
                              ("corrected", ("power_fd",)), ("oracle-only", ("coherence_l1",))):
            message = re.escape(f"oracle {metrics[0]} of {p} is not finite at tau 0.0")
            with pytest.raises(ValueError, match=message):
                compute_curve(p, [0.0, 0.7], mode, metrics)


def test_numeric_pass_states_and_hamiltonians_are_real():
    # the energy form reads real parts alone: H has only Z and X Pauli
    # terms, so it, its eigenvectors and its Gibbs state are real
    params = verify_mod.preset_param_sets() + verify_mod.random_cloud(200) + [
        BatteryParams(1.0, 0.0, 1e-9, 0.1), BatteryParams(0.0, 0.0, 0.0, 1.0),
        BatteryParams(1.0, 1.0, -2.0, 0.01)]
    hs, rhos, _, _ = metrics_mod._numeric_pass(params, DEFAULT_TOLERANCES)
    assert not hs.imag.any() and not rhos.imag.any()


def test_energy_form_is_the_trace_of_the_evolved_state():
    # at real symmetric rho and H, against the matmul route: every entry of
    # U rho U^dagger from the state form's six coefficient matrices, its l1
    # coherence, tr(U rho U^dagger H) from the energy form's four coefficients
    # and scale, and its tau derivative from the slopes, against the matmul
    # route's central difference
    rng = np.random.default_rng(7)
    rhos = np.array([random_density(rng, 4).real for _ in range(5)])
    hs = np.array([random_hermitian(rng, 4).real * 10.0 ** e for e in (-3, 0, 2, 150, -200)])
    taus, step = np.linspace(-4.0, 9.0, 53), 1e-5
    q, slopes = dynamics_mod.TauGrid(taus).expansion(DEFAULT_TOLERANCES)
    states = dynamics_mod._state_forms(rhos)
    forms = dynamics_mod._energy_forms(states, hs)
    eps = np.finfo(float).eps

    def matmul_energies(rho, h, at):
        return np.einsum("nij,ji->n", evolve(rho, charging_unitaries(at)), h).real

    for rho, h, state, form in zip(rhos, hs, states, forms):
        evolved = evolve(rho, charging_unitaries(taus))
        entries = np.einsum("kn,ke->ne", q[:4], state[:4]) + 1j * np.einsum(
            "kn,ke->ne", q[4:], state[4:])
        assert np.abs(entries - evolved.reshape(-1, 16)).max() <= 16 * eps
        coherence = dynamics_mod._evolved_coherence(q, state)
        reference = l1_coherence(evolved)
        assert np.abs(coherence - reference).max() <= 16 * eps * reference.max()
        scale = np.abs(h).max()
        energies = dynamics_mod._evolved_energies(q, form, 0.0)
        assert np.abs(energies - matmul_energies(rho, h, taus)).max() <= \
            64 * eps * scale
        fd = (matmul_energies(rho, h, taus + step) - matmul_energies(rho, h, taus - step)) / (
            (taus + step) - (taus - step))
        # E has frequencies up to 4 and weights up to 4 max|H| in all, so the
        # truncation is at most 256 max|H| step^2 / 6; then the rounding over 2 step
        power = dynamics_mod._evolved_energies(slopes, form, 0.0)
        assert np.abs(power - fd).max() <= (43 * step ** 2 + 1e-9) * scale


@settings(max_examples=150, deadline=None)
@given(xi1=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       xi2=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
       xic=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       log_t=st.floats(-3.0, 1.0),
       taus=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3))
def test_gibbs_weight_oracle_matches_the_sorted_spectrum(xi1, xi2, xic, log_t, taus):
    # the curve reads each evolved state's spectrum off the Gibbs weights;
    # the public ergotropy decomposes it
    p, tol = BatteryParams(xi1, xi2, xic, 10.0 ** log_t), DEFAULT_TOLERANCES
    curve = compute_curve(p, taus, "corrected", ("ergotropy_numeric", "power_fd"))
    assert curve.flag == ""
    h = build_full_hamiltonian(p)
    rho = gibbs_state_numeric(h, p.temperature)

    def spectral(nodes):
        return ergotropy(evolve(rho, charging_unitaries(nodes)), h)

    taus, step = np.array(taus), tol.fd_step
    error = np.abs(curve.columns["ergotropy_numeric"] - spectral(taus))
    assert error.max() <= tol.ergotropy_equivalence
    fd = (spectral(taus + step) - spectral(taus - step)) / (2.0 * step)
    assert np.abs(curve.columns["power_fd"] - fd).max() <= tol.power_equivalence


def test_power_fd_is_the_compute_curve_column():
    p = BatteryParams(1.5, 0.5, 0.5, 0.1)
    taus = np.linspace(0.0, 2.0 * np.pi, 401)
    column = compute_curve(p, taus, "corrected", ALL_METRICS).columns["power_fd"]
    assert power_fd(p, taus).tobytes() == column.tobytes()


def test_power_fd_serves_large_taus():
    # with nodes tau +/- 1e-4, which round apart by other than 2e-4 from 2**24
    # on, these taus were refused; unchecked, the oracle gave -0.5254 at 1e12
    # (closed form -0.4304) and 0.0 at 1e17
    p = BatteryParams(1.5, 0.5, 0.5, 0.1)
    taus = [0.5, 1e12, 1e17]
    bound = 64 * np.finfo(float).eps * np.abs(build_full_hamiltonian(p)).max()
    assert np.abs(power_fd(p, taus) - power_closed_form(p, taus)).max() <= bound
    assert compute_sample(p, 1e12, mode="corrected", metrics=ALL_METRICS).flag == ""


def test_power_fd_accepts_resolved_large_tau():
    p = BatteryParams(1.5, 0.5, 0.5, 0.1)
    assert abs(power_fd(p, 1e6) - power_closed_form(p, 1e6)) <= 1e-5
