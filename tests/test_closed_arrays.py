"""Closed forms over tau arrays: a whole curve equals its cells, bit for bit.

The closed forms evaluate their thermal terms once per call and take a tau
array; every element must carry exactly the bits of the one-tau call, which
is what keeps figure files byte-identical however a curve is batched.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqbattery import (
    BatteryParams,
    compute_curve,
    compute_sample,
    ergotropy_closed_form,
    evolved_state_closed_form,
    power_closed_form,
    thermal_terms,
)
from sqbattery.metrics import DEFAULT_METRICS
from reference import cell_bits

CLOSED_MODES = st.sampled_from(["corrected", "verbatim"])
ENERGY = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
TAUS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=12)


@st.composite
def closed_params(draw):
    xi1 = draw(ENERGY)
    xi2 = xi1 if draw(st.booleans()) else draw(ENERGY)
    xic = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    temperature = 10.0 ** draw(st.floats(-3.0, 1.0))
    return BatteryParams(xi1=xi1, xi2=xi2, xic=xic, temperature=temperature)


@settings(max_examples=60, deadline=None)
@given(closed_params(), TAUS, CLOSED_MODES)
def test_curve_columns_equal_single_cells(p, taus, mode):
    curve = compute_curve(p, taus, mode, DEFAULT_METRICS)
    assert curve.flag == ""
    for i, tau in enumerate(taus):
        assert cell_bits(curve, i) == cell_bits(compute_sample(p, tau, mode, DEFAULT_METRICS), 0)


@settings(max_examples=60, deadline=None)
@given(closed_params(), TAUS, CLOSED_MODES)
def test_array_closed_forms_equal_scalar_calls(p, taus, mode):
    states = evolved_state_closed_form(p, np.array(taus), mode)
    energies = ergotropy_closed_form(p, np.array(taus), mode)
    powers = power_closed_form(p, np.array(taus), mode)
    assert states.shape == (len(taus), 4, 4)
    for i, tau in enumerate(taus):
        assert states[i].tobytes() == evolved_state_closed_form(p, tau, mode).tobytes()
        assert energies[i] == ergotropy_closed_form(p, tau, mode)
        assert powers[i] == power_closed_form(p, tau, mode)


@settings(max_examples=20, deadline=None)
@given(closed_params())
def test_corrected_forms_keep_the_scalar_evaluation_order(p):
    # float coefficients first, then libm's sin and pow at each tau; numpy's
    # array square differs from libm's pow in the last bit about once per
    # thousand values, so the grid is dense
    taus = np.linspace(0.0, 1e3, 4001)
    t = thermal_terms(p)
    energies = ergotropy_closed_form(p, taus)
    powers = power_closed_form(p, taus)
    for i, tau in enumerate(taus.tolist()):
        assert energies[i] == 4.0 * p.xic**2 * t.rs_plus * math.sin(2 * tau) ** 2
        assert powers[i] == 8.0 * p.xic**2 * t.rs_plus * math.sin(4 * tau)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e160, 1e300), TAUS, CLOSED_MODES)
def test_overflowing_curve_flags_every_cell_without_warnings(xi1, taus, mode):
    p = BatteryParams(xi1=xi1, xi2=0.5, xic=0.5, temperature=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = compute_curve(p, taus, mode, DEFAULT_METRICS)
    assert len(curve) == len(taus)
    assert curve.flag == "overflow" and curve.columns == {}


SCALED_TAUS = (0.0, 0.3, 0.7, 1.1, 2.5)
REFERENCE_CURVE = compute_curve(BatteryParams(1.5, 0.5, 0.5, 0.1), SCALED_TAUS, "corrected")


@settings(max_examples=80, deadline=None)
@given(st.integers(-1070, 1023))
@example(-600)  # gaps and xic^2 underflow: ergotropy 0, coherence above 3
@example(-1064)  # subnormal energies: the terms are not finite
@example(-511)
@example(-510)
@example(510)
@example(511)
def test_closed_columns_scale_with_the_energies_or_are_flagged(k):
    # the closed forms are homogeneous in (xi1, xi2, xic, T), and a power of
    # 2 scales every intermediate exactly until it leaves the normal range
    s = 2.0**k
    p = BatteryParams(1.5 * s, 0.5 * s, 0.5 * s, 0.1 * s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = compute_curve(p, SCALED_TAUS, "corrected")
    if curve.flag:
        assert curve.flag == "overflow" and curve.columns == {}
        return
    expected = REFERENCE_CURVE.columns
    for name in ("ergotropy_closed", "power_closed", "capacity_closed"):
        assert np.array_equal(curve.columns[name], s * expected[name]), name
    assert np.array_equal(curve.columns["coherence_l1"], expected["coherence_l1"])
