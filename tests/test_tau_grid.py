"""One tau grid per sweep, one row template per curve.

Everything that depends on the taus alone (the libm factors, the
finite-difference nodes and the checked charging unitaries) is computed once
per grid, however many curves share it, and the CSV writer's one-``%``
template renders exactly what formatting every cell on its own gives.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqbattery import (
    BatteryParams,
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


def grid_work(monkeypatch, cfg):
    per_tau = counted(monkeypatch, dynamics, "per_tau")
    unitaries = counted(monkeypatch, dynamics, "charging_unitaries")
    checks = counted(monkeypatch, dynamics, "_unitarity_deviation")
    result = run_sweep(cfg)
    return result, len(per_tau), [len(args[0]) for args in unitaries], len(checks)


@pytest.mark.parametrize("mode", ["corrected", "verbatim", "oracle-only"])
def test_a_sweep_does_its_tau_work_once_however_many_curves(monkeypatch, mode):
    counts = {}
    for values in ((0.2, 0.9), tuple(np.linspace(0.1, 2.9, 16))):
        cfg = SweepConfig(base=BASE, varied=(("xi2", values),), tau_count=9,
                          metrics=DEFAULT_METRICS + ORACLE_METRICS, mode=mode)
        result, calls, stacks, checks = grid_work(monkeypatch, cfg)
        assert stacks == [27]  # one stack: the taus and both finite-difference nodes
        assert checks == 1  # and one unitarity check
        counts[len(values)] = calls
        taus = {id(curve.samples.taus) for curve in result.curves}
        assert len(taus) == 1
        assert not result.curves[0].samples.taus.flags.writeable
    assert counts[2] == counts[16]


def test_verify_builds_and_checks_one_unitary_stack_for_all_presets(monkeypatch):
    unitaries = counted(monkeypatch, dynamics, "charging_unitaries")
    checks = counted(monkeypatch, dynamics, "_unitarity_deviation")
    assert run_verification("quick").passed
    assert [len(args[0]) for args in unitaries] == [3 * 81]
    assert len(checks) == 1


def test_grid_factors_are_the_scalar_expressions_and_read_only():
    taus = [0.0, 0.3, 2.5, 1e17, -4.0]
    grid = dynamics.TauGrid(taus, Tolerances(fd_step=1e-3))
    assert grid.nodes.tolist() == taus + [t + 1e-3 for t in taus] + [t - 1e-3 for t in taus]
    for name, fn in dynamics.FACTORS.items():
        factor = getattr(grid, name)
        assert factor.tolist() == [fn(t) for t in taus]
        assert getattr(grid, name) is factor
        assert not factor.flags.writeable
    with pytest.raises(AttributeError):
        grid.tan
    u, dev = grid.unitaries
    assert u.tobytes() == dynamics.charging_unitaries(grid.nodes).tobytes()
    assert not (u.flags.writeable or dev.flags.writeable)
    assert dynamics.TauGrid(0.3).scalar and not dynamics.TauGrid([0.3]).scalar


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
    # the step of every tau grid, and so of power_fd, is the fd_step of a
    # Tolerances, which rejects a bad one where it is set
    message = "tolerance fd_step must be a finite number > 0"
    with pytest.raises(ValueError, match=message):
        Tolerances(fd_step=step)
    with pytest.raises(ValueError, match=message):
        Tolerances().replace(fd_step=step)


def test_grids_whose_nodes_overflow_are_rejected():
    with pytest.raises(ValueError, match="nodes tau \\+/- 1e\\+308 are not finite"):
        dynamics.TauGrid([1e308], Tolerances(fd_step=1e308))


def test_round_robin_schedule_is_built_once_and_read_only():
    linalg.hermitian_eigendecomposition(np.eye(4))
    rounds = linalg._ROUNDS[4]
    linalg.hermitian_eigendecomposition(np.eye(4))
    assert linalg._ROUNDS[4] is rounds
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
