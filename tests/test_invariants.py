"""Physical invariants of the charged battery over the whole parameter space.

Ergotropy is the work a cyclic unitary can extract (Allahverdyan, Balian &
Nieuwenhuizen, EPL 67, 565 (2004)): it is never negative, never exceeds the
energy above the ground state, vanishes on a Gibbs state (which is passive),
and follows the drive's period pi. Both routes must obey this and agree.
numpy's LAPACK ``eigvalsh`` serves only as the reference for the ground energy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    DEFAULT_TOLERANCES,
    BatteryParams,
    build_full_hamiltonian,
    charging_unitaries,
    compute_curve,
    ergotropy,
    evolve,
    gibbs_state_numeric,
)
from sqbattery.metrics import ALL_METRICS

EPS = DEFAULT_TOLERANCES.ergotropy_equivalence
ENERGY = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
TAUS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=6)


@st.composite
def battery_params(draw):
    xi1 = draw(ENERGY)
    xi2 = xi1 if draw(st.booleans()) else draw(ENERGY)
    xic = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    temperature = 10.0 ** draw(st.floats(-3.0, 1.0))
    return BatteryParams(xi1=xi1, xi2=xi2, xic=xic, temperature=temperature)


@settings(max_examples=100, deadline=None)
@given(battery_params(), TAUS)
def test_closed_forms_agree_with_the_numeric_route(p, taus):
    curve = compute_curve(p, taus, "corrected", ALL_METRICS)
    assert curve.flag == ""
    c = curve.columns
    assert np.max(np.abs(c["ergotropy_closed"] - c["ergotropy_numeric"])) <= EPS
    assert np.max(np.abs(c["power_closed"] - c["power_fd"])) <= (
        DEFAULT_TOLERANCES.power_equivalence)


@settings(max_examples=100, deadline=None)
@given(battery_params(), TAUS)
def test_ergotropy_lies_between_zero_and_the_energy_above_the_ground(p, taus):
    h = build_full_hamiltonian(p)
    states = evolve(gibbs_state_numeric(h, p.temperature), charging_unitaries(taus))
    ceiling = np.trace(states @ h, axis1=-2, axis2=-1).real - np.linalg.eigvalsh(h)[0]
    curve = compute_curve(p, taus, "corrected", ("ergotropy_numeric", "ergotropy_closed"))
    for energies in (curve.columns["ergotropy_numeric"], curve.columns["ergotropy_closed"]):
        assert np.all(energies >= -EPS)
        assert np.all(energies <= ceiling + EPS)


@settings(max_examples=100, deadline=None)
@given(battery_params(), TAUS)
def test_ergotropy_has_period_pi(p, taus):
    taus = np.array(taus)
    curve = compute_curve(p, np.concatenate([taus, taus + np.pi]), "corrected",
                          ("ergotropy_numeric", "ergotropy_closed"))
    n = len(taus)
    for energies in (curve.columns["ergotropy_numeric"], curve.columns["ergotropy_closed"]):
        assert np.max(np.abs(energies[n:] - energies[:n])) <= EPS


@settings(max_examples=100, deadline=None)
@given(battery_params())
def test_gibbs_state_is_passive(p):
    h = build_full_hamiltonian(p)
    assert abs(ergotropy(gibbs_state_numeric(h, p.temperature), h)) <= EPS
