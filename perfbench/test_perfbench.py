"""Tests of the benchmark's own code: checker, tracer and child runner."""

import itertools
import sys
import time

import numpy as np
import pytest

import checker
import run
import tracing
from sqbattery import BatteryParams, SweepConfig, run_sweep
from sqbattery.output import sweep_csv_text

BASE = dict(xi1=1.5, xic=0.5, temperature=0.2)


def _sweep(varied) -> tuple[str, np.ndarray]:
    cfg = SweepConfig(base=BatteryParams(xi2=0.5, **BASE), varied=varied,
                      tau_count=checker.TAU_COUNT)
    names = [name for name, _ in varied]
    cells = checker.grid_cells([
        {**BASE, "xi2": 0.5, **dict(zip(names, combo))}
        for combo in itertools.product(*(values for _, values in varied))
    ])
    return sweep_csv_text(run_sweep(cfg)), cells


def _edit_row(text: str, row: int, edit) -> str:
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    lines[row + 1] = ",".join(edit(fields))
    return "\n".join(lines)


def test_checker_accepts_program_output():
    text, cells = _sweep((("xi2", (0.5, 2.0)),))
    result = checker.check_sweep(text, cells)
    assert (result.attempted, result.failed, result.wrong) == (len(cells), 0, 0)


def test_checker_rejects_corrupted_value():
    text, cells = _sweep((("xi2", (0.5, 2.0)),))
    ergotropy = text.split("\n")[0].split(",").index("ergotropy")

    def corrupt(fields):
        fields[ergotropy] = repr(float(fields[ergotropy]) + 1e-7)
        return fields

    result = checker.check_sweep(_edit_row(text, 100, corrupt), cells)
    assert (result.failed, result.wrong) == (1, 1)
    assert result.reasons["ergotropy_tolerance"] == 1


@pytest.mark.parametrize("edit, reason", [
    (lambda f: f[:-3], "missing_fields"),
    (lambda f: f[:6] + ["nan?"] + f[7:], "unparsable"),
    (lambda f: f[:-1] + ["overflow"], "flagged"),
])
def test_checker_rejects_malformed_row(edit, reason):
    text, cells = _sweep((("xi2", (0.5,)),))
    result = checker.check_sweep(_edit_row(text, 7, edit), cells)
    assert (result.failed, result.wrong) == (1, 1)
    assert result.reasons[reason] == 1


def test_unquoted_label_rows_fail_but_their_values_are_still_checked():
    text, cells = _sweep((("xi2", (0.5, 2.0)), ("temperature", (0.01, 3.0))))
    result = checker.check_sweep(text, cells)
    assert (result.failed, result.wrong) == (len(cells), 0)
    assert result.reasons["extra_fields"] == len(cells)

    coherence = text.split("\n")[0].split(",").index("coherence_l1") + 1  # label split in two

    def corrupt(fields):
        fields[coherence] = "0.5"
        return fields

    result = checker.check_sweep(_edit_row(text, 3, corrupt), cells)
    assert result.wrong == 1


def test_checker_holds_power_fd_to_the_power_column():
    cells = checker.grid_cells([dict(xi2=0.5, **BASE)])[:3]
    rows = ["label,xi1,xi2,xic,temperature,tau,power,power_fd,flag"]
    for i, cell in enumerate(cells.tolist()):
        fd = 0.25 + (2e-5 if i == 1 else 0.0)
        rows.append(",".join(["xi2=0.5", *map(repr, cell), "0.25", repr(fd), ""]))
    failed, wrong, reasons = checker.check_csv(
        "\n".join(rows) + "\n", cells, {}, ("power", "power_fd"))
    assert list(failed) == [False, True, False] and reasons["power_tolerance"] == 1


def test_verify_checker_counts_points_of_failing_suites():
    lines = [f"[PASS] {prefix} suite: max residual 1e-15 (tolerance 1e-9)"
             for prefix, _ in checker.VERIFY_QUICK_SUITES] + ["overall: PASS"]
    assert checker.check_verify(0, "\n".join(lines)).failed == 0
    lines[3] = lines[3].replace("PASS", "FAIL")
    lines[-1] = "overall: FAIL"
    result = checker.check_verify(1, "\n".join(lines))
    assert result.failed == result.wrong == checker.VERIFY_QUICK_POINTS


def test_self_time_subtracts_direct_children():
    spans = np.array([
        [0, 0, 100, -1],
        [1, 10, 40, 0],
        [2, 15, 25, 1],
        [1, 50, 60, 0],
    ])
    assert list(tracing.self_times(spans)) == [60, 20, 10, 10]


def test_tracer_records_nested_spans_and_restores_originals():
    from sqbattery import metrics

    namespaces = {n: dict(vars(m)) for n, m in sys.modules.items()
                  if n == "sqbattery" or n.startswith("sqbattery.")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert metrics.compute_sample is not namespaces["sqbattery.metrics"]["compute_sample"]
        metrics.compute_sample(BatteryParams(xi2=0.7, **BASE), 0.3, "corrected",
                               ("ergotropy_numeric", "coherence_l1"))
    finally:
        tracer.restore()
    for name, snapshot in namespaces.items():
        current = vars(sys.modules[name])
        assert all(current[key] is value for key, value in snapshot.items()), name

    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "metrics.compute_sample" and tracer.spans[0][3] == -1
    assert all(0 <= s[3] < i for i, s in enumerate(tracer.spans) if i)
    assert names.count(tracing.EIGENSOLVER) == len(tracer.eig_inputs) > 0
    assert "model.thermal_terms" in names


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    args = ["sweep", "--oracle", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.2",
            "--vary", "xi2=0.5,2.0", "--tau-count", "5", "--out", f"{run.OUT}/s.csv"]
    job = run.Job(args, 10, lambda out, stdout, code: checker.CheckResult(10))
    deadline = time.monotonic() + 60
    plain = run.execute(job, tmp_path / "plain", False, deadline)
    traced = run.execute(job, tmp_path / "traced", True, deadline)
    assert plain["exit"] == traced["exit"] == 0
    assert plain["digests"] == traced["digests"] and "s.csv" in plain["digests"]
    assert plain["setup_s"] < plain["wall_s"]
    assert traced["layers"]["linalg.calls"] > 0
    assert traced["layers"]["eig.matrices"] > 0
