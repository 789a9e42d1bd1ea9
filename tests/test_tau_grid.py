"""One tau grid per sweep, one row template per curve.

Everything that depends on the taus alone (the libm factors, the terms of
the oracle's states, energies and power, and the checked charging unitaries) is
computed once per grid, however many curves share it, and the CSV writer's
one-``%`` template renders exactly what formatting every cell on its own
gives.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    BatteryParams,
    NotUnitaryError,
    SweepConfig,
    Tolerances,
    compute_curve,
    dynamics,
    figure_preset,
    linalg,
    run_sweep,
    run_verification,
)
from sqbattery.metrics import DEFAULT_METRICS, ORACLE_METRICS, CurveColumns
from sqbattery.tolerances import MAX_FD_STEP
from sqbattery import output
from sqbattery.output import (MAIN_COLUMNS, ORACLE_COLUMNS, _column, format_float, write_csv,
                              write_figure_files)
from sqbattery.sweep import Curve, CurveSummary, SweepResult
from reference import _text

BASE = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.3)


def counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` into the returned list."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def grid_work(monkeypatch):
    """Count the grid's tau work from here on: ``per_tau`` calls, the taus
    of each factor evaluation, the taus of each unitary stack built, and the
    product-based unitarity checks."""
    per_tau = counted(monkeypatch, dynamics, "per_tau")
    factors = counted(monkeypatch, dynamics, "_charging_factors")
    unitaries = counted(monkeypatch, dynamics, "_unitary_stack")
    checks = counted(monkeypatch, dynamics, "_unitarity_deviation")
    return lambda: (len(per_tau), [len(args[0]) for args in factors],
                    [args[0].shape[1] for args in unitaries], len(checks))


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_a_sweep_does_its_tau_work_once_however_many_curves(monkeypatch, mode):
    counts = {}
    for values in ((0.2, 0.9), tuple(np.linspace(0.1, 2.9, 16))):
        cfg = SweepConfig(base=BASE, varied=(("xi2", values),), tau_count=9,
                          metrics=DEFAULT_METRICS + ORACLE_METRICS, mode=mode)
        work = grid_work(monkeypatch)
        result = run_sweep(cfg)
        calls, factors, stacks, checks = work()
        assert factors == [9]  # once, at the taus alone
        # no unitaries: the engine forms no state, and the factors give every
        # tau's unitarity deviation
        assert stacks == []
        assert checks == 0
        counts[len(values)] = calls
        taus = {id(curve.samples.taus) for curve in result.curves}
        assert len(taus) == 1
        assert not result.curves[0].samples.taus.flags.writeable
    assert counts[2] == counts[16]


def test_verify_builds_and_checks_one_unitary_stack_for_all_presets(monkeypatch):
    # the factors at the 81 taus and at tau +/- fd_step, for the energies, the
    # power and the deviations; the unitaries at the 81 taus alone, for the states
    work = grid_work(monkeypatch)
    assert run_verification("quick").passed
    _, factors, stacks, checks = work()
    assert (sorted(factors), stacks, checks) == ([81, 3 * 81], [81], 0)


def test_grid_factors_are_the_scalar_expressions_and_read_only():
    taus = [0.0, 0.3, 2.5, 1e17, -4.0]
    grid = dynamics.TauGrid(taus)
    assert grid.taus.tolist() == taus
    squares = {"cos_sq": lambda x: math.cos(x) ** 2, "sin_sq": lambda x: math.sin(x) ** 2}
    for name, fn in {**dynamics.FACTORS, **squares}.items():
        factor = getattr(grid, name)
        assert factor.tolist() == [fn(t) for t in taus]
        assert getattr(grid, name) is factor
        assert not factor.flags.writeable
    with pytest.raises(AttributeError):
        grid.tan
    u = grid.unitaries
    assert u.tobytes() == dynamics.charging_unitaries(grid.taus).tobytes()
    for part in (u, grid.factors, grid.quadratics, grid.slopes, grid.deviation):
        assert not part.flags.writeable
    assert dynamics.TauGrid(0.3).scalar and not dynamics.TauGrid([0.3]).scalar


# the three matrices of U(tau) = a I + b J - i gamma K
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
EYE, J = np.eye(4), np.kron(PAULI_X, PAULI_X)
K = np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X)
WIDE_TAUS = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 401), np.linspace(-40.0, 1e4, 997),
                            [0.0, -0.0, np.pi / 2, np.pi, 1e17]])


def test_charging_unitary_is_its_three_matrix_expansion():
    # the oracle's energies rest on U being a I + b J - i gamma K exactly: the
    # same values in every entry, signed zeros aside (0.0 is added to both)
    assert (J @ J == EYE).all() and (J @ K == K @ J).all() and (K @ K == 2 * EYE + 2 * J).all()
    grid = dynamics.TauGrid(WIDE_TAUS)
    a, b, gamma = (row[:, None, None] for row in grid.factors[:3])
    expansion = a * EYE + b * J + (-1j * gamma) * K
    u = dynamics.charging_unitaries(grid.taus)
    assert (u + 0.0).tobytes() == (expansion + 0.0).tobytes()


def test_factor_deviation_is_the_unitarity_deviation():
    grid = dynamics.TauGrid(WIDE_TAUS)
    products = dynamics._unitarity_deviation(dynamics.charging_unitaries(grid.taus))
    assert np.abs(grid.deviation - products).max() <= 4 * np.finfo(float).eps
    # a NaN factor fails the check of every oracle request
    grid = dynamics.TauGrid([0.3, 0.7])
    factors = grid.factors.copy()
    factors[2, 1] = math.nan
    grid.factors = factors
    assert math.isnan(grid.deviation[1])
    for mode, metric in (("corrected", "ergotropy_numeric"), ("corrected", "power_fd"),
                         ("oracle-only", "coherence_l1")):
        with pytest.raises(NotUnitaryError, match="matrix 1 of the stack deviates"):
            compute_curve(BASE, grid, mode, (metric,))


def test_slopes_are_the_derivatives_of_the_quadratics():
    # a' = b' = -2 gamma and gamma' = a + b; against the central difference of
    # the quadratics, whose third derivatives are at most 12, so within 2 h^2
    taus = np.linspace(-40.0, 40.0, 997)
    slopes = dynamics.TauGrid(taus).slopes
    for step in (1e-3, 1e-4):
        ahead, behind = (dynamics.TauGrid(taus + s * step).quadratics for s in (1, -1))
        difference = (ahead[:4] - behind[:4]) / ((taus + step) - (taus - step))
        assert np.abs(slopes - difference).max() <= 2 * step ** 2 + 1e-11


@pytest.mark.parametrize("taus, message", [
    ([], "tau grid is empty"),
    ([0.3, math.nan], "taus must be finite"),
    ([math.inf], "taus must be finite"),
    ([-math.inf, 0.3], "taus must be finite"),
], ids=["empty", "nan", "inf", "-inf"])
def test_grids_without_finite_taus_are_rejected(taus, message):
    # nan gave unflagged nan cells, inf "math domain error" and [] a message
    # about the shape of the eigensolver's input
    with pytest.raises(ValueError, match=message):
        dynamics.TauGrid(taus)
    for metrics in (DEFAULT_METRICS, DEFAULT_METRICS + ORACLE_METRICS):
        with pytest.raises(ValueError, match=message):
            compute_curve(BASE, taus, "corrected", metrics)


@pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf])
def test_finite_difference_steps_must_be_finite_and_positive(step):
    # verify's central-difference step is the fd_step of a Tolerances, which
    # rejects a bad one where it is set
    message = "tolerance fd_step must be a finite number > 0"
    with pytest.raises(ValueError, match=message):
        Tolerances(fd_step=step)
    with pytest.raises(ValueError, match=message):
        Tolerances().replace(fd_step=step)


def test_steps_too_large_to_be_derivative_steps_are_rejected_so_nodes_stay_finite():
    # a step that once overflowed the nodes is refused where it is set, so
    # verify's nodes tau +/- fd_step stay finite
    message = "tolerance fd_step must be a finite number > 0 and <= 0.01, got 1e"
    with pytest.raises(ValueError, match=message):
        Tolerances(fd_step=1e308)
    assert Tolerances(fd_step=MAX_FD_STEP).fd_step == MAX_FD_STEP


def test_round_robin_schedule_is_built_once_and_read_only():
    linalg.hermitian_eigendecomposition(np.eye(4))
    rounds = linalg._round_robin(4)
    linalg.hermitian_eigendecomposition(np.eye(4))
    assert linalg._round_robin(4) is rounds
    assert rounds and not any(a.flags.writeable for r in rounds for a in r)
    assert all(not a.flags.writeable for r in linalg._round_robin(5) for a in r)


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
)


@st.composite
def columns(draw, count):
    """A curve's columns: arrays over the taus, constants, or missing."""
    out = {}
    for field in ("ergotropy_closed", "power_closed", "ergotropy_numeric", "power_fd",
                  "coherence_l1", "capacity_definitional", "capacity_closed",
                  "capacity_reconciled"):
        kind = draw(st.sampled_from(["array", "constant", "none", "missing"]))
        if kind == "array":
            out[field] = np.array(draw(st.lists(CELLS, min_size=count, max_size=count)))
        elif kind == "constant":
            out[field] = draw(CELLS)
        elif kind == "none":
            out[field] = None
    return out


@st.composite
def results(draw):
    count = draw(st.integers(1, 4))
    taus = np.array(draw(st.lists(CELLS, min_size=count, max_size=count)))
    mode = draw(st.sampled_from(["corrected", "verbatim", "oracle-only"]))
    curves = []
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(st.sampled_from(["", "overflow", "ill_conditioned", "100%"]))
        label = draw(st.sampled_from(["base", "xi2=0.5", "a%sb%%c", "%.17g"]))
        samples = CurveColumns(taus, draw(columns(count)), flag)
        summary = CurveSummary(None, None, None, draw(st.one_of(st.none(), CELLS)))
        curves.append(Curve(label, BASE, samples, summary))
    cfg = SweepConfig(base=BASE, mode=mode, tau_count=count)
    return SweepResult(cfg, tuple(curves), {})


def per_cell_csv(result, metric_columns):
    """The CSV as formatting each cell on its own makes it."""
    lines = [",".join(("label", "xi1", "xi2", "xic", "temperature", "tau")
                      + metric_columns + ("flag",))]
    for curve in result.curves:
        p = curve.params
        for i, tau in enumerate(curve.samples.taus):
            cells = [curve.label] + [format_float(v) for v in dataclasses.astuple(p)[:4]]
            cells.append(format_float(tau))
            for name in metric_columns:
                value = _column(curve, name, result.config.mode)
                cells.append(format_float(value[i] if isinstance(value, np.ndarray) else value))
            cells.append(curve.samples.flag)
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(results(), st.sampled_from([MAIN_COLUMNS, MAIN_COLUMNS + ORACLE_COLUMNS,
                                   ("capacity",), ("power", "power_fd")]))
def test_template_csv_equals_the_per_cell_formatting(result, metric_columns):
    text = _text(lambda stream: write_csv(result, metric_columns, stream))
    assert text == per_cell_csv(result, metric_columns)


def test_a_curve_longer_than_a_block_is_the_per_cell_formatting():
    # the rows of a long curve are formatted MAX_STACK at a time
    cfg = SweepConfig(base=BASE, varied=(("xi2", (0.5, 2.0)),),
                      tau_count=2 * linalg.MAX_STACK + 3, metrics=DEFAULT_METRICS + ORACLE_METRICS)
    result = run_sweep(cfg)
    columns = MAIN_COLUMNS + ORACLE_COLUMNS
    assert _text(lambda stream: write_csv(result, columns, stream)) == per_cell_csv(result, columns)


def test_a_figure_formats_its_tau_column_once(monkeypatch, tmp_path):
    result = run_sweep(figure_preset("fig1"))
    calls = counted(monkeypatch, output, "format_float")
    write_figure_files(result, "fig1", tmp_path)
    taus = result.curves[0].samples.taus.tolist()
    # the 401 taus once for all four panels, plus each curve's parameters and constants
    assert len(calls) < 2 * len(taus)
    assert sum(args == (taus[1],) for args in calls) == 1
