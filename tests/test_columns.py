"""Columnar curves: the column view is the per-cell truth.

``compute_curve`` returns one array per metric, and every cell of it, as of
a sweep's ``Curve.samples``, must carry exactly the bits of the one-tau
curve ``compute_sample`` gives at that tau. Every numeric-route curve whose
Hamiltonian is too large for the ergotropy tolerance is flagged.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    BatteryParams,
    CurveColumns,
    SweepConfig,
    compute_curve,
    compute_sample,
    figure_preset,
    run_sweep,
)
from sqbattery import metrics as metrics_mod
from sqbattery import model as model_mod
from sqbattery import sweep as sweep_mod
from sqbattery.linalg import hermitian_eigendecomposition
from sqbattery.metrics import ALL_METRICS, DEFAULT_METRICS, ORACLE_METRICS, main_fields
from sqbattery.output import format_float
from sqbattery.sweep import PRESET_NAMES, _argmax_first
from reference import cell_bits

MODES = st.sampled_from(["corrected", "verbatim", "oracle-only"])
METRICS = st.sampled_from([DEFAULT_METRICS, ALL_METRICS, ("ergotropy_closed", "power_fd")])
ENERGY = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
TAUS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=5)


@st.composite
def params(draw):
    # the huge Josephson energies overflow the closed forms and make the
    # numeric route ill-conditioned
    xi1 = draw(st.one_of(ENERGY, st.floats(1e160, 1e300)))
    xi2 = xi1 if draw(st.booleans()) else draw(ENERGY)
    xic = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    temperature = 10.0 ** draw(st.floats(-3.0, 1.0))
    return BatteryParams(xi1=xi1, xi2=xi2, xic=xic, temperature=temperature)


def cells_bits(curve):
    return [cell_bits(curve, i) for i in range(len(curve))]


@settings(max_examples=40, deadline=None)
@given(params(), TAUS, MODES, METRICS)
def test_column_view_equals_single_cells_bit_for_bit(p, taus, mode, metrics):
    curve = compute_curve(p, taus, mode, metrics)
    assert len(curve) == len(taus)
    assert cells_bits(curve) == [cell_bits(compute_sample(p, tau, mode, metrics), 0)
                                 for tau in taus]

    cfg = SweepConfig(base=p, tau_start=0.0, tau_stop=7.0, tau_count=len(taus),
                      metrics=metrics, mode=mode)
    samples = run_sweep(cfg).curves[0].samples
    grid = cfg.tau_grid().tolist()
    assert len(samples) == len(grid)
    assert cells_bits(samples) == [cell_bits(compute_sample(p, tau, mode, metrics), 0)
                                   for tau in grid]


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                               1.7976931348623157e308, 0.1, np.float64(2.5), 3])
def test_shared_formatter_is_17_significant_digits(x):
    assert format_float(x) == format(float(x), ".17g")
    assert format_float(None) == ""


def test_oracle_only_sweep_decomposes_every_input_once(monkeypatch):
    # per block of curves: their Hs with eigenvectors, in one call; the
    # evolved states' spectra are the Gibbs weights, so none is decomposed
    inputs = []

    def counting(m, tol=None, **kwargs):
        m = np.asarray(m)
        inputs.append((m.shape, kwargs.get("vectors", True), m.tobytes()))
        return hermitian_eigendecomposition(m, tol, **kwargs)

    for module in (model_mod, metrics_mod):
        monkeypatch.setattr(module, "hermitian_eigendecomposition", counting)
    cfg = SweepConfig(base=BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1),
                      varied=(("xic", (0.5, 1.0)),), tau_count=5, mode="oracle-only")
    result = run_sweep(cfg)
    calls = [(shape[0] if len(shape) == 3 else 1, vectors) for shape, vectors, _ in inputs]
    assert calls == [(2, True)]
    assert len({(shape, data) for shape, _, data in inputs}) == len(inputs)
    for curve in result.curves:
        p = curve.params
        h = model_mod.build_full_hamiltonian(p)
        rho = model_mod.gibbs_state_numeric(h, p.temperature)
        assert curve.summary.capacity == metrics_mod.capacity_reconciled(p, h, rho)


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_oracle_figure_decomposes_its_four_hamiltonians_in_one_call(monkeypatch, mode):
    shapes = []

    def counting(m, tol=None, **kwargs):
        shapes.append(np.shape(m))
        return hermitian_eigendecomposition(m, tol, **kwargs)

    monkeypatch.setattr(metrics_mod, "hermitian_eigendecomposition", counting)
    result = run_sweep(figure_preset("fig3", mode, DEFAULT_METRICS + ORACLE_METRICS))
    assert len(result.curves) == 4
    assert shapes == [(4, 4, 4)]


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_ill_conditioned_numeric_cells_are_flagged_in_band(mode):
    # at xi1 = xi2 = 1e152 the closed forms are finite, while ||H|| eps
    # dwarfs the ergotropy tolerance and the numeric ergotropy cancels
    p = BatteryParams(xi1=1e152, xi2=1e152, xic=0.3, temperature=0.1)
    curve = compute_curve(p, [0.7, 1.9], mode, ALL_METRICS)
    assert curve.flag == "ill_conditioned"
    assert len(curve.columns["ergotropy_numeric"]) == len(curve.columns["power_fd"]) == 2
    closed = compute_curve(p, [0.7, 1.9], "corrected", DEFAULT_METRICS)
    assert closed.flag == ""


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_figure_presets_stay_unflagged_with_the_oracle(name, mode):
    result = run_sweep(figure_preset(name, mode, DEFAULT_METRICS + ORACLE_METRICS))
    assert [curve.samples.flag for curve in result.curves] == [""] * 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, math.nan])),
                max_size=8))
def test_summary_argmax_is_pythons_first_max(values):
    # the summaries kept Python's max over the cells: first of ties, a
    # leading NaN wins and later NaNs are passed over
    expected = max(range(len(values)), key=values.__getitem__, default=None)
    assert _argmax_first(np.array(values)) == expected


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_report_the_first_peak(name, mode):
    # equal peaks a period (or, verbatim, a reflection tau -> pi - tau) apart
    # differ in their last bits; the summary names the first, by pi/2
    for curve in run_sweep(figure_preset(name, mode, DEFAULT_METRICS + ORACLE_METRICS)).curves:
        energies = curve.samples.columns[main_fields(mode)["ergotropy"]]
        k = int(np.searchsorted(curve.samples.taus, curve.summary.tau_at_max))
        assert curve.samples.taus[k] == curve.summary.tau_at_max <= np.pi / 2 + 1e-12
        assert curve.summary.max_ergotropy == energies.max()
        assert energies[k] >= energies.max() - 1e-14
        assert (energies[:k] < energies.max() - 1e-9).all()


def test_perturbed_peaks_keep_their_tau_at_max():
    # peaks within half the tie tolerance of each other, either way, stay tied
    p = BatteryParams(1.5, 0.5, 0.5, 0.1)
    taus = np.linspace(0.0, 2.0 * np.pi, 401)
    curve = compute_curve(p, taus, "oracle-only", ALL_METRICS)
    energies = curve.columns["ergotropy_numeric"]
    m = energies.max()
    peaks = np.flatnonzero(energies >= m - 1e-12)
    assert len(peaks) == 4
    delta = sweep_mod.TIE_EPS * max(m, sweep_mod._energy_scale(p))
    expected = sweep_mod.summarize_curve(curve, "oracle-only", p).tau_at_max
    assert expected == taus[peaks[0]]
    for signs in itertools.product((-0.45, 0.45), repeat=len(peaks)):
        perturbed = energies.copy()
        perturbed[peaks] = m + delta * np.array(signs)
        moved = CurveColumns(taus, {**curve.columns, "ergotropy_numeric": perturbed})
        assert sweep_mod.summarize_curve(moved, "oracle-only", p).tau_at_max == expected


def test_weakly_coupled_closed_curve_keeps_its_peak():
    # the closed forms are accurate relative to their maximum, not to the
    # energy scale of H: an ergotropy of about 2e-18 against xi1 = 1, far
    # below 64 eps, still peaks at pi/4, not at tau = 0, where it is 0
    p = BatteryParams(xi1=1.0, xi2=0.0, xic=1e-9, temperature=0.1)
    curve = run_sweep(SweepConfig(p, mode="corrected")).curves[0]
    energies = curve.samples.columns["ergotropy_closed"]
    assert 0.0 < energies.max() < sweep_mod.TIE_EPS * sweep_mod._energy_scale(p)
    assert energies[0] == 0.0
    assert abs(curve.summary.tau_at_max - np.pi / 4) < 1e-12
