import dataclasses

import numpy as np
import pytest

from sqbattery import (
    BatteryParams,
    SweepConfig,
    UnknownPresetError,
    compute_sample,
    figure_preset,
    run_sweep,
)
from sqbattery import sweep as sweep_mod
from sqbattery.metrics import ALL_METRICS, DEFAULT_METRICS
from sqbattery.output import (CURVE_COLUMNS, MAIN_COLUMNS, ORACLE_COLUMNS, sweep_csv_text,
                              write_figure_files, write_json)
from reference import _text, cell_bits


BASE = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(base=BASE, tau_count=0)
    with pytest.raises(ValueError):
        SweepConfig(base=BASE, tau_start=1.0, tau_stop=0.5, tau_count=5)
    with pytest.raises(ValueError):
        SweepConfig(base=BASE, varied=(("ng1", (0.1,)),))
    with pytest.raises(ValueError):
        SweepConfig(base=BASE, varied=(("xi1", ()),))
    with pytest.raises(ValueError):
        SweepConfig(base=BASE, mode="other")


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3", None])
def test_tau_count_must_be_an_integer(count):
    # 2.5 failed later inside numpy, and True ran a one-point sweep
    with pytest.raises(ValueError, match=f"tau_count must be an integer, got {count!r}"):
        SweepConfig(base=BASE, tau_count=count)


def test_tau_count_takes_numpy_integers():
    cfg = SweepConfig(base=BASE, tau_count=np.int64(3))
    assert len(run_sweep(cfg).curves[0].samples) == 3


def test_parameter_varied_twice_rejected():
    # every curve would be computed at the last value only, under a label
    # naming both
    with pytest.raises(ValueError, match="'xi2' is varied more than once"):
        SweepConfig(base=BASE, varied=(("xi2", (1.0, 2.0)), ("xi2", (3.0,))))


@pytest.mark.parametrize("field", ["tau_start", "tau_stop"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("count", [1, 3])
def test_non_finite_tau_rejected(field, value, count):
    # a one-point grid reads only tau_start, but neither end may be non-finite
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SweepConfig(base=BASE, tau_count=count, **{field: value})


def test_single_point_sweep_equals_direct_call():
    cfg = SweepConfig(
        base=BASE, tau_start=0.7, tau_stop=0.7, tau_count=1, metrics=ALL_METRICS
    )
    result = run_sweep(cfg)
    assert len(result.curves) == 1
    assert len(result.curves[0].samples) == 1
    direct = compute_sample(BASE, 0.7, "corrected", ALL_METRICS)
    assert cell_bits(result.curves[0].samples, 0) == cell_bits(direct, 0)


def test_cell_independence_bit_for_bit():
    cfg = SweepConfig(base=BASE, varied=(("xi2", (0.5, 2.0)),), tau_count=31)
    result = run_sweep(cfg)
    taus = cfg.tau_grid()
    curve = result.curves[1]
    redo = compute_sample(curve.params, float(taus[17]), cfg.mode, cfg.metrics)
    assert cell_bits(redo, 0) == cell_bits(curve.samples, 17)


def test_determinism_of_serialized_output():
    cfg = SweepConfig(base=BASE, varied=(("xic", (0.1, 1.0)),), tau_count=21)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert sweep_csv_text(a) == sweep_csv_text(b)
    assert _text(lambda stream: write_json(a, stream)) == _text(lambda stream: write_json(b, stream))


@pytest.mark.parametrize("metrics, oracle", [
    (DEFAULT_METRICS, False), (ALL_METRICS, True), (("power_fd",), True),
])
def test_oracle_columns_are_written_exactly_when_selected(tmp_path, metrics, oracle):
    # the config's metrics alone decide the columns, the panels' companions too
    result = run_sweep(SweepConfig(base=BASE, tau_count=3, metrics=metrics))
    header, *rows = (line.split(",") for line in sweep_csv_text(result).splitlines())
    assert header == [*CURVE_COLUMNS, "tau", *MAIN_COLUMNS,
                      *(ORACLE_COLUMNS if oracle else ()), "flag"]
    if oracle:
        assert all(row[header.index("power_fd")] for row in rows)
    panel = write_figure_files(result, "fig", tmp_path)[1].read_text("utf-8")
    assert panel.split("\n")[0].endswith(",power,power_fd,flag" if oracle else ",power,flag")


def test_summary_consistent_with_series():
    cfg = SweepConfig(base=BASE, tau_count=101)
    result = run_sweep(cfg)
    curve = result.curves[0]
    columns = curve.samples.columns
    energies = list(columns["ergotropy_closed"])
    k = int(np.argmax(energies))
    assert curve.summary.max_ergotropy == energies[k]
    assert curve.summary.tau_at_max == pytest.approx(float(cfg.tau_grid()[k]), abs=0)
    assert curve.summary.max_power == max(columns["power_closed"])
    assert curve.summary.capacity == columns["capacity_closed"]


def test_argmax_tie_goes_to_first_occurrence():
    cfg = SweepConfig(
        base=BatteryParams(xi1=0.0, xi2=0.0, xic=0.0, temperature=1.0),
        tau_count=11,
    )
    result = run_sweep(cfg)
    # flat zero series: the first grid point wins
    assert result.curves[0].summary.tau_at_max == 0.0


def test_multi_parameter_cross_product_labels():
    cfg = SweepConfig(
        base=BASE,
        varied=(("xi2", (0.5, 1.0)), ("temperature", (0.1, 0.2))),
        tau_count=3,
    )
    result = run_sweep(cfg)
    labels = [c.label for c in result.curves]
    assert labels == [
        "xi2=0.5,temperature=0.1",
        "xi2=0.5,temperature=0.2",
        "xi2=1.0,temperature=0.1",
        "xi2=1.0,temperature=0.2",
    ]
    assert result.curves[3].params.xi2 == 1.0
    assert result.curves[3].params.temperature == 0.2


@pytest.mark.parametrize("metrics", [DEFAULT_METRICS, ALL_METRICS], ids=["closed", "numeric"])
def test_sweep_walks_its_curve_cases_once(monkeypatch, metrics):
    # one walk gives both the labels and the params the engine evaluates, so
    # each varied set is built once
    walks = []
    curve_cases = sweep_mod._curve_cases

    def counting(cfg):
        walks.append(cfg)
        return curve_cases(cfg)

    monkeypatch.setattr(sweep_mod, "_curve_cases", counting)
    cfg = SweepConfig(BASE, (("xi2", (0.5, 1.0)), ("temperature", (0.1, 0.2))),
                      tau_count=3, metrics=metrics)
    result = run_sweep(cfg)
    assert walks == [cfg]
    assert [(c.label, c.params) for c in result.curves] == list(curve_cases(cfg))
    for curve in result.curves:  # each curve's cells are its own params'
        assert cell_bits(curve.samples, 0) == cell_bits(
            compute_sample(curve.params, 0.0, metrics=metrics), 0)


def test_overflow_cells_flagged_not_fatal():
    base = BatteryParams(xi1=1.0, xi2=1.0, xic=0.5, temperature=1.0)
    cfg = SweepConfig(
        base=base, varied=(("temperature", (1.0, 4e-324)),), tau_count=3
    )
    result = run_sweep(cfg)
    clean, broken = result.curves
    assert clean.samples.flag == "" and len(clean.samples.columns["ergotropy_closed"]) == 3
    assert broken.samples.flag == "overflow" and broken.samples.columns == {}
    assert broken.summary.max_ergotropy is None


def test_figure_presets_exact_grids():
    with pytest.raises(UnknownPresetError):
        figure_preset("fig9")
    cfg = figure_preset("fig1")
    assert cfg.mode == "verbatim"
    assert cfg.varied == (("xi2", (0.1, 0.5, 1.0, 2.0)),)
    assert cfg.base.xi1 == 1.5 and cfg.base.xic == 0.05
    assert cfg.base.temperature == 0.5
    assert cfg.tau_count == 401 and cfg.tau_stop == pytest.approx(2 * np.pi)
    cfg2 = figure_preset("fig2")
    assert cfg2.varied[0][0] == "xi1" and cfg2.base.xi2 == 1.5
    assert cfg2.base.xic == 0.5 and cfg2.base.temperature == 0.1
    cfg3 = figure_preset("fig3")
    assert cfg3.varied[0][0] == "xic"
    assert cfg3.base.xi1 == 1.5 and cfg3.base.xi2 == 1.5
    cfg4 = figure_preset("fig4")
    assert cfg4.varied[0][0] == "xic"
    assert cfg4.base.xi1 == 1.5 and cfg4.base.xi2 == 0.5


def test_fig1_ordering_claim_on_figure_pipeline():
    result = run_sweep(figure_preset("fig1"))
    maxima = [c.summary.max_ergotropy for c in result.curves]
    assert all(a < b for a, b in zip(maxima, maxima[1:]))


def test_fig4_suppressed_below_fig3_on_figure_pipeline():
    r3 = run_sweep(figure_preset("fig3"))
    r4 = run_sweep(figure_preset("fig4"))
    for c3, c4 in zip(r3.curves, r4.curves):
        assert c4.summary.max_ergotropy < c3.summary.max_ergotropy


def test_corrected_mode_peak_structure():
    # exact dynamics: every curve peaks at the first quarter-period pi/4
    # with value Ebar = E(pi/4); grid point 50 of 401 is exactly pi/4
    result = run_sweep(figure_preset("fig1", mode="corrected"))
    for curve in result.curves:
        ebar = compute_sample(
            curve.params, np.pi / 4, "corrected", ("ergotropy_closed",)
        ).columns["ergotropy_closed"][0]
        assert curve.summary.max_ergotropy == pytest.approx(ebar, abs=1e-12)
        assert curve.summary.tau_at_max == pytest.approx(np.pi / 4, abs=1e-9)


def test_oracle_only_sweep_summary():
    cfg = SweepConfig(
        base=BASE,
        tau_count=9,
        mode="oracle-only",
        metrics=ALL_METRICS,
    )
    result = run_sweep(cfg)
    curve = result.curves[0]
    assert "ergotropy_closed" not in curve.samples.columns
    assert curve.summary.max_ergotropy == max(curve.samples.columns["ergotropy_numeric"])
    # capacity falls back to the numeric reconciliation xic - tr(H R_th)
    from sqbattery import build_full_hamiltonian, gibbs_state_numeric

    h = build_full_hamiltonian(BASE)
    rho = gibbs_state_numeric(h, BASE.temperature)
    assert curve.summary.capacity == pytest.approx(
        BASE.xic - float(np.trace(h @ rho).real), abs=1e-12
    )


def test_provenance_block():
    result = run_sweep(SweepConfig(base=BASE, tau_count=3))
    prov = result.provenance
    assert prov["package"] == "sqbattery"
    assert prov["mode"] == "corrected"
    assert "tolerances" in prov and prov["tolerances"]["gibbs_equivalence"] == 1e-10


def test_replace_preset_mode():
    cfg = dataclasses.replace(figure_preset("fig3"), mode="oracle-only")
    assert cfg.mode == "oracle-only"


def test_oracle_only_capacity_needs_capacity_closed():
    # the reconciled capacity is the numeric counterpart of capacity_closed,
    # so it is computed only when that column is selected
    cfg = SweepConfig(base=BASE, tau_count=3, mode="oracle-only",
                      metrics=("ergotropy_closed", "power_closed"))
    assert run_sweep(cfg).curves[0].summary.capacity is None
