import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sqbattery import EigenConvergenceError, sweep
from sqbattery.cli import main
from sqbattery.tolerances import DEFAULT, Tolerances, from_env


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sqbattery", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def parse_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    assert rows, f"no data rows in output: {text!r}"
    return rows


POINT_ARGS = ("point", "--xi1", "1.5", "--xi2", "1.5", "--xic", "0.5", "--temp", "0.1")


def test_point_at_tau_zero_has_zero_ergotropy():
    proc = run_cli(*POINT_ARGS, "--tau", "0")
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0]
    assert header == "label,xi1,xi2,xic,temperature,tau,ergotropy,power,capacity,coherence_l1,flag"
    row = parse_csv(proc.stdout)[0]
    assert float(row["ergotropy"]) == 0.0
    assert float(row["tau"]) == 0.0


def test_point_near_pi_is_periodic():
    proc = run_cli(*POINT_ARGS, "--tau", "3.14159265358979")
    assert proc.returncode == 0, proc.stderr
    row = parse_csv(proc.stdout)[0]
    assert abs(float(row["ergotropy"])) <= 1e-10


def test_point_oracle_columns_agree():
    proc = run_cli(*POINT_ARGS, "--tau", "0.7", "--oracle")
    assert proc.returncode == 0, proc.stderr
    row = parse_csv(proc.stdout)[0]
    assert abs(float(row["ergotropy"]) - float(row["ergotropy_numeric"])) <= 1e-9
    assert abs(float(row["power"]) - float(row["power_fd"])) <= 1e-5
    assert float(row["capacity_definitional"]) == 0.0


def test_point_json_format():
    proc = run_cli(*POINT_ARGS, "--tau", "0.7", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    sample = obj["curves"][0]["samples"][0]
    assert sample["tau"] == 0.7
    assert sample["ergotropy"] > 0


def test_invalid_argument_exits_2():
    proc = run_cli("point", "--xi1", "abc")
    assert proc.returncode == 2


def test_negative_josephson_energy_exits_2():
    proc = run_cli("point", "--xi1", "-3", "--tau", "0")
    assert proc.returncode == 2
    assert "non-negative" in proc.stderr


def test_unknown_preset_exits_2():
    proc = run_cli("figure", "fig9")
    assert proc.returncode == 2


@pytest.mark.parametrize("mode, flag", [("oracle-only", "ill_conditioned"),
                                        ("corrected", "overflow")])
def test_huge_coupling_builds_its_hamiltonian_without_a_warning(mode, flag):
    # H is finite at xic = 1e308, so the xic = 1 curve is written and the
    # huge one flagged, with no numpy warning on the way
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sqbattery", "sweep",
         "--mode", mode, "--oracle", "--tau-count", "2", "--vary", "xic=1,1e308"],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [row["flag"] for row in parse_csv(proc.stdout)] == ["", "", flag, flag]


def test_overflow_exits_3():
    proc = run_cli("point", "--xi1", "1e200", "--tau", "0.5")
    assert proc.returncode == 3


def test_unwritable_output_exits_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    proc = run_cli("figure", "fig1", "--out", str(blocker / "sub"))
    assert proc.returncode == 4


def test_sweep_command_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.1",
        "--vary", "xi2=0.5,1.0", "--tau-count", "5", "--tau-stop", "3.0",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 10
    assert {r["label"] for r in rows} == {"xi2=0.5", "xi2=1.0"}


ORACLE_ONLY_SWEEP = (
    "sweep", "--mode", "oracle-only", "--xi1", "1.5", "--xi2", "0.5", "--xic", "0.5",
    "--temp", "0.1", "--tau-count", "9", "--tau-stop", "3.0",
)


def test_oracle_only_main_columns_carry_the_numeric_route():
    plain = run_cli(*ORACLE_ONLY_SWEEP)
    oracle = run_cli(*ORACLE_ONLY_SWEEP, "--oracle")
    assert plain.returncode == 0 and oracle.returncode == 0, plain.stderr + oracle.stderr
    rows, oracle_rows = parse_csv(plain.stdout), parse_csv(oracle.stdout)
    assert all(row["ergotropy"] and row["power"] for row in rows)
    assert [r["ergotropy"] for r in rows] == [r["ergotropy_numeric"] for r in oracle_rows]
    assert [r["power"] for r in rows] == [r["power_fd"] for r in oracle_rows]
    as_json = json.loads(run_cli(*ORACLE_ONLY_SWEEP, "--format", "json").stdout)
    summary = as_json["curves"][0]["summary"]
    assert summary["max_ergotropy"] == max(float(r["ergotropy"]) for r in rows)
    assert summary["max_power"] == max(float(r["power"]) for r in rows)


def test_figure_writes_panels_and_manifest(tmp_path):
    proc = run_cli("figure", "fig1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    expected = [
        "fig1_a_ergotropy.csv",
        "fig1_b_power.csv",
        "fig1_c_capacity.csv",
        "fig1_d_coherence_l1.csv",
        "fig1_manifest.json",
    ]
    for name in expected:
        assert (tmp_path / name).is_file(), name
    manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert manifest["config"]["mode"] == "verbatim"
    assert len(manifest["curves"]) == 4


def test_figure_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        proc = run_cli("figure", "fig2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_figure_json_format(tmp_path):
    proc = run_cli("figure", "fig3", "--format", "json", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    obj = json.loads((tmp_path / "fig3_a_ergotropy.json").read_text())
    assert len(obj["curves"]) == 4
    samples = obj["curves"][0]["samples"]
    assert len(samples) == 401
    assert set(samples[0]) == {"tau", "flag", "ergotropy"}


def test_json_writes_non_finite_numbers_as_null():
    # xic - tr(H rho_th), about 2e308, is beyond float64: JSON (RFC 8259) has
    # no Infinity, so the sample and summary capacity are null; the CSV keeps inf
    args = ("sweep", "--mode", "oracle-only", "--oracle", "--tau-count", "2",
            "--vary", "xic=1,1e308")
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr

    def no_constant(name):
        raise ValueError(f"not JSON: {name}")

    curves = json.loads(proc.stdout, parse_constant=no_constant)["curves"]
    assert curves[1]["summary"]["capacity"] is None
    assert [sample["capacity"] for sample in curves[1]["samples"]] == [None, None]
    assert curves[0]["summary"]["capacity"] == curves[0]["samples"][0]["capacity"] > 0
    rows = parse_csv(run_cli(*args).stdout)
    assert [row["capacity"] for row in rows[2:]] == ["inf", "inf"]


def test_csv_round_trip_reproduces_manifest_summaries(tmp_path):
    proc = run_cli("figure", "fig4", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "fig4_manifest.json").read_text())
    rows = parse_csv((tmp_path / "fig4_a_ergotropy.csv").read_text(encoding="utf-8"))
    by_label = {}
    for row in rows:
        by_label.setdefault(row["label"], []).append(
            (float(row["tau"]), float(row["ergotropy"]))
        )
    for entry in manifest["curves"]:
        series = by_label[entry["label"]]
        best_tau, best_e = max(series, key=lambda te: te[1])
        assert best_e == entry["summary"]["max_ergotropy"]
        # the first tau that ties with the maximum under the summary's tie rule
        floor = best_e - sweep.TIE_EPS * max(abs(best_e), sweep._energy_scale(
            sweep.BatteryParams(**entry["params"])))
        first = next(te for te in series if te[1] >= floor)
        assert first[0] == entry["summary"]["tau_at_max"]


def test_csv_uses_lf_line_endings(tmp_path):
    proc = run_cli("figure", "fig1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    raw = (tmp_path / "fig1_a_ergotropy.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi1": 2.0, "xi2": 1.0, "xic": 0.5, "temp": 0.1}))
    proc = run_cli("point", "--config", str(cfg), "--tau", "0.5")
    assert proc.returncode == 0, proc.stderr
    assert float(parse_csv(proc.stdout)[0]["xi1"]) == 2.0
    proc = run_cli("point", "--config", str(cfg), "--tau", "0.5", "--xi1", "1.5")
    assert proc.returncode == 0, proc.stderr
    assert float(parse_csv(proc.stdout)[0]["xi1"]) == 1.5


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    proc = run_cli("point", "--config", str(cfg))
    assert proc.returncode == 2
    cfg.write_text(json.dumps({"unknown_key": 1}))
    proc = run_cli("point", "--config", str(cfg))
    assert proc.returncode == 2
    # a config file holds the keys of its own command's flags, no others
    out = tmp_path / "sub" / "out.csv"
    for command, text, message in [
        ("point", None, "cannot read config file"),
        ("point", "[1]", "must hold a flat JSON object"),
        ("point", '{"xi1": 1.5, "tau_count": 7, "tau_stop": 3}',
         "has unknown keys: ['tau_count', 'tau_stop']"),
        ("sweep", '{"tau": 0.7}', "has unknown keys: ['tau']"),
    ]:
        cfg.unlink(missing_ok=True)
        if text is not None:
            cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.parent.exists()


@pytest.mark.parametrize("entry", [
    {"tau_count": 2.7}, {"tau_count": True}, {"tau_count": "3"},
    {"xi1": True}, {"temp": None}, {"tau_stop": "6"}, {"mode": 1},
], ids=lambda entry: "-".join(f"{k}={v!r}" for k, v in entry.items()))
def test_config_value_read_unfaithfully_exits_2(tmp_path, capsys, entry):
    # a boolean would be read as 1.0 and 2.7 taus as 2, so both are refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi1": 1.5, "xic": 0.5, "temp": 0.1, **entry}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{next(iter(entry))} must be" in captured.err


def test_config_integer_beyond_float_range_exits_2(tmp_path, capsys):
    # read as a float, as the flag --xi1 1e400 is: refused as non-finite,
    # not reported as an overflow of the closed forms (exit 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"xi1": 1' + "0" * 400 + ', "xic": 0.5, "temp": 0.1}')
    assert main(["point", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: battery parameters must be finite\n"


def test_config_integral_float_tau_count_is_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi1": 1.5, "xic": 0.5, "temp": 0.1, "tau_count": 3.0}))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert len(parse_csv(capsys.readouterr().out)) == 3


@pytest.mark.parametrize("args", [
    ("--tau", "nan"), ("--tau", "nan", "--oracle"), ("--tau", "inf"), ("--tau=-inf", "--oracle"),
], ids=["nan", "nan-oracle", "inf", "-inf-oracle"])
def test_point_non_finite_tau_exits_2(capsys, args):
    assert main(["point", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.1", *args]) == 2
    assert capsys.readouterr() == ("", "error: tau must be finite\n")


@pytest.mark.parametrize("args, field", [
    (("--tau-stop", "inf", "--tau-count", "3"), "tau_stop"),
    (("--tau-start", "nan", "--tau-count", "3"), "tau_start"),
], ids=["stop-inf", "start-nan"])
def test_sweep_non_finite_tau_exits_2(capsys, args, field):
    # the grid is refused before linspace, so numpy warns of nothing either
    assert main(["sweep", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.1", *args]) == 2
    assert capsys.readouterr() == ("", f"error: {field} must be finite\n")


@pytest.mark.parametrize("module, frozen", [("sqbattery.cli", True), ("sqbattery", False)])
def test_only_the_cli_freezes_the_import_heap(module, frozen):
    # the CLI moves its import-time heap out of the shutdown collection's way;
    # the library must leave a host process's collector untouched
    proc = subprocess.run(
        [sys.executable, "-c", f"import gc, {module}; print(gc.get_freeze_count())"],
        capture_output=True, text=True, check=True,
    )
    assert (int(proc.stdout) > 0) is frozen


def test_cli_never_imports_numpy_random(tmp_path):
    # numpy loads numpy.random lazily; verify draws its cloud without it, and
    # no command may import it, nor may the import of the CLI
    argvs = [["verify", "quick"], ["figure", "fig1", "--oracle", "--out", str(tmp_path)],
             ["sweep", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.1", "--tau-count", "5"],
             list(POINT_ARGS)]
    script = (
        "import contextlib, io, json, sys\n"
        "import sqbattery.cli\n"
        "seen = [('import', 'numpy.random' in sys.modules)]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = sqbattery.cli.main(argv)\n"
        "    seen.append((argv[0], code, 'numpy.random' in sys.modules))\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == [["import", False], ["verify", 0, False],
                                       ["figure", 0, False], ["sweep", 0, False],
                                       ["point", 0, False]]


def test_verify_quick_passes_and_reports_decisions():
    proc = run_cli("verify", "quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert out.count("[PASS]") == 5
    assert "(A+ - A-)" in out
    assert "power_global_scale: 1.0" in out
    assert "overall: PASS" in out


def test_verify_exit_1_under_impossible_tolerance():
    # env override tightens the power tolerance below the finite-difference
    # truncation floor, so the suite must fail and exit 1
    env = dict(os.environ)
    env["SQBATTERY_TOLERANCES"] = '{"power_equivalence": 1e-30}'
    proc = subprocess.run(
        [sys.executable, "-m", "sqbattery", "verify", "quick"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "[FAIL] power closed form vs finite-difference derivative" in proc.stdout


def test_tolerance_env_parsing():
    assert from_env({}) is DEFAULT
    tol = from_env({"SQBATTERY_TOLERANCES": '{"power_equivalence": 0.001}'})
    assert tol.power_equivalence == 0.001
    assert tol.gibbs_equivalence == DEFAULT.gibbs_equivalence
    with pytest.raises(ValueError):
        from_env({"SQBATTERY_TOLERANCES": "{bad"})
    with pytest.raises(ValueError):
        from_env({"SQBATTERY_TOLERANCES": '{"nope": 1}'})
    with pytest.raises(ValueError, match="must hold a JSON object"):
        from_env({"SQBATTERY_TOLERANCES": "[1]"})


def test_tolerances_reject_values_that_are_not_positive_numbers():
    # Tolerances alone sets the finite-difference step of verify's power
    # check and refuses a step too large to read a derivative (see MAX_FD_STEP)
    for field, value in [("fd_step", 0), ("fd_step", "x"), ("fd_step", 0.0), ("fd_step", -1e-4),
                         ("fd_step", float("nan")), ("fd_step", float("inf")), ("fd_step", 0.5),
                         ("fd_step", 1e300), ("hermitian", None),
                         ("hermitian", True), ("unitary", float("nan")), ("unitary", 10**400),
                         ("jacobi_offdiag", -1e-13), ("jacobi_max_sweeps", 2.5),
                         ("jacobi_max_sweeps", -1)]:
        with pytest.raises(ValueError, match=f"tolerance {field} must be"):
            Tolerances(**{field: value})
    assert Tolerances(jacobi_max_sweeps=0, exponent_bound=700).exponent_bound == 700
    assert Tolerances(fd_step=1e-2).fd_step == 1e-2


TOL_POINT_ARGS = ["point", "--xi1", "1", "--xi2", "1", "--xic", "0.5", "--temp", "0.1",
                  "--tau", "0.7", "--oracle"]


@pytest.mark.parametrize("overrides, message", [
    ('{"fd_step": 0}', "tolerance fd_step must be"),
    ('{"fd_step": "x"}', "tolerance fd_step must be"),
    ('{"hermitian": null}', "tolerance hermitian must be"),
    ('{"jacobi_max_sweeps": 2.5}', "tolerance jacobi_max_sweeps must be"),
    ('{"jacobi_offdiag": 0}', "tolerance jacobi_offdiag must be"),
    ('{"density": 1e-9}', "unknown keys: ['density']"),
])
def test_invalid_tolerance_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                       overrides, message):
    monkeypatch.setenv("SQBATTERY_TOLERANCES", overrides)
    out = tmp_path / "sub" / "out.csv"
    assert main([*TOL_POINT_ARGS, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("args", [
    ["--xi1", "1.5e-200", "--xi2", "0.5e-200", "--xic", "0.5e-200", "--temp", "1e-201",
     "--tau", "0.7", "--oracle"],
    ["--xi1", "1e-320", "--xi2", "0", "--xic", "0", "--temp", "1e-320", "--oracle",
     "--format", "json"],
], ids=["underflowing-gaps", "subnormal-energies-json"])
def test_point_at_tiny_energy_scales_exits_3_and_writes_nothing(tmp_path, capsys, args):
    # the squares in the gaps and in xic^2 leave the normal float range, so the
    # closed forms would print 0 ergotropy, l1 coherence above 3, or bare NaN
    out = tmp_path / "sub" / "out"
    assert main(["point", *args, "--out", str(out)]) == 3
    assert "overflows or underflows the thermal closed forms" in capsys.readouterr().err
    assert not out.parent.exists()


def test_verify_detects_corrupted_closed_form(monkeypatch):
    # fault injection: a wrong sign in the ergotropy closed form must trip
    # the equivalence suite with a large residual
    import sqbattery.metrics as metrics_mod
    import sqbattery.verify as verify_mod

    # verify reads the closed columns that compute_curve writes
    original = metrics_mod._THERMAL_BODIES["ergotropy_closed"]

    def corrupted(p, t, grid, mode):
        value = original(p, t, grid, mode)
        return -value if mode == "corrected" else value

    monkeypatch.setitem(metrics_mod._THERMAL_BODIES, "ergotropy_closed", corrupted)
    report = verify_mod.run_verification("quick")
    failed = {s.name: s for s in report.suites if not s.passed}
    assert any("ergotropy" in name for name in failed)
    worst = max(s.max_residual for s in failed.values())
    assert worst > 1e-3
    assert not report.passed


def test_point_flags_cancellation_at_huge_energies():
    # ||H|| eps far above the ergotropy tolerance: the numeric ergotropy is
    # swamped by cancellation, so the cell says so but keeps its values
    proc = run_cli("point", "--xi1", "1e200", "--xi2", "0.5", "--xic", "0.3",
                   "--temp", "1e-100", "--tau", "0.7", "--mode", "oracle-only")
    assert proc.returncode == 0, proc.stderr
    row = parse_csv(proc.stdout)[0]
    assert row["flag"] == "ill_conditioned"
    assert row["ergotropy"] == "-8.4982078850682736e+183"


def test_point_flags_the_eigenvalue_error_over_a_low_temperature():
    # max|H| eps is 1.2e-10, under the ergotropy tolerance, but over T = 0.056
    # it moves the Gibbs weights: the numeric ergotropy is off by 2.7e-4
    proc = run_cli("point", "--mode", "oracle-only", "--xi1", "994.6", "--xi2", "0.0021",
                   "--xic=-5.18e5", "--temp", "0.056", "--tau", "0.7")
    assert proc.returncode == 0, proc.stderr
    assert parse_csv(proc.stdout)[0]["flag"] == "ill_conditioned"


@pytest.mark.parametrize("args, column, value", [
    (("point", "--xi1", "1.5", "--xic", "-5e-1", "--temp", "0.1"), "xic", "-0.5"),
    (("point", "--tau", "-1e-3"), "tau", "-0.001"),
    (("sweep", "--tau-start", "-1e-3", "--tau-count", "2"), "tau", "-0.001"),
])
def test_negative_values_in_scientific_notation_are_values(args, column, value):
    # argparse alone takes "-1e-3" for an option string, though "-0.001" for a value
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert parse_csv(proc.stdout)[0][column] == value


def test_oracle_sweep_serves_every_finite_tau():
    # power_fd is the exact derivative of the oracle's energy form, with no
    # nodes at tau +/- a step to round together: tau 5e7 and 1e8 were refused
    proc = run_cli("sweep", "--oracle", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.1",
                   "--tau-start", "0", "--tau-stop", "1e8", "--tau-count", "3")
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(proc.stdout)
    assert [row["tau"] for row in rows] == ["0", "50000000", "100000000"]
    for row in rows:
        assert abs(float(row["power"]) - float(row["power_fd"])) <= DEFAULT.power_equivalence


@pytest.mark.parametrize("args, code, message", [
    (("point", "--xi1", "1e200"), 3, "overflows or underflows"),
    (("sweep", "--xi1", "1", "--xic", "0.5", "--vary", "xi2=1,2", "--vary", "xi2=3"), 2,
     "varied more than once"),
    (("sweep", "--xi1", "1.5", "--tau-count", "2", "--vary", "temperature=1,0"), 2,
     "temperature must be positive"),
    (("sweep", "--vary", "xi2"), 2, "--vary expects NAME=V1,V2,..."),
    (("sweep", "--vary", "xi2=a,b"), 2, "--vary xi2: bad value list"),
    (("sweep", "--vary", "xi2=,"), 2, "--vary xi2: empty value list"),
], ids=["overflow", "vary-twice", "vary-invalid-value", "vary-no-values",
        "vary-bad-value", "vary-empty"])
def test_rejected_request_writes_nothing(tmp_path, capsys, args, code, message):
    # the whole request is evaluated before its output is opened
    out = tmp_path / "sub" / "out.csv"
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == code
    assert not out.parent.exists()
    # nor is a row printed to stdout before the request fails
    assert main(list(args)) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


SWEEP_ARGS = ("sweep", "--xi1", "1.5", "--xic", "0.5", "--temp", "0.1", "--vary", "xi2=0.5,1.0")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("args, errno", [
    (SWEEP_ARGS, "[Errno 28]"),
    ((*SWEEP_ARGS, "--format", "json"), "[Errno 28]"),
    (("figure", "fig1"), "[Errno 17]"),
], ids=["sweep-csv", "sweep-json", "figure"])
def test_full_disk_exits_4(args, errno):
    # a sweep fills several write buffers, so the first failure comes from
    # a write part-way through; a figure fails making its directory
    proc = run_cli(*args, "--out", "/dev/full")
    assert proc.returncode == 4
    assert "cannot write" in proc.stderr and errno in proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_stdout_on_full_disk_exits_4():
    # stdout to a file is block-buffered unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sqbattery", *POINT_ARGS],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 4
    assert "cannot write" in proc.stderr and "[Errno 28]" in proc.stderr


def test_closed_stdout_pipe_exits_4_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "sqbattery", *POINT_ARGS],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == ""


def test_unconverged_eigensolver_exits_3_and_writes_nothing(tmp_path):
    out = tmp_path / "x.csv"
    env = dict(os.environ, SQBATTERY_TOLERANCES='{"jacobi_max_sweeps": 0}')
    proc = subprocess.run(
        [sys.executable, "-m", "sqbattery", *SWEEP_ARGS, "--oracle", "--tau-count", "3",
         "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: Jacobi sweeps exhausted (0)")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def square_sweep(n: int) -> list[str]:
    """An n x n xi2-by-temperature sweep over 401 taus, written to the null device."""
    xi2 = ",".join(repr(0.1 + 0.2 * i) for i in range(n))
    temps = ",".join(repr(10.0 ** (-3.0 + 0.25 * i)) for i in range(n))
    return ["sweep", "--xi1", "1.5", "--xic", "0.5", "--vary", f"xi2={xi2}",
            "--vary", f"temperature={temps}", "--out", os.devnull]


def test_sweep_memory_is_one_block_however_many_curves():
    # a closed sweep takes CURVE_BLOCK (16) curves at a time too: 16 curves
    # are one block, 256 are sixteen blocks
    peaks = {}
    for n in (4, 16):
        assert main(square_sweep(n)) == 0  # imports and first-use caches settle
        tracemalloc.start()
        try:
            assert main(square_sweep(n)) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= 1.1 * peaks[4], peaks
    assert peaks[16] <= 1e6, peaks
    assert Path(os.devnull).is_char_device()  # written in place, never renamed onto


def test_oracle_sweep_memory_is_one_block_however_many_curves():
    # the curve engine evaluates an oracle sweep CURVE_BLOCK (16) curves at
    # a time: 16 curves are one block, 256 are sixteen blocks
    peaks = {}
    for n in (4, 16):
        args = [*square_sweep(n), "--mode", "oracle-only"]
        assert main(args) == 0  # imports and first-use caches settle
        tracemalloc.start()
        try:
            assert main(args) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= 1.1 * peaks[4], peaks
    assert peaks[4] <= 1.1 * peaks[16], peaks


def test_out_file_is_replaced_whole_and_keeps_its_mode(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    assert main([*POINT_ARGS, "--out", str(out)]) == 0
    assert out.read_text().startswith("label,")
    assert out.stat().st_mode & 0o777 == 0o600
    assert list(tmp_path.iterdir()) == [out]


def fail_on_second_curve(monkeypatch):
    # the curve engine yields the first curve, then fails to draw the second
    compute_curves = sweep.compute_curves

    def failing(*args):
        yield next(compute_curves(*args))
        raise EigenConvergenceError("no convergence on the second curve")

    monkeypatch.setattr(sweep, "compute_curves", failing)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["new", "existing"])
def test_failure_part_way_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, fmt, existing):
    out = tmp_path / "out"
    if existing is not None:
        out.write_bytes(existing)
    fail_on_second_curve(monkeypatch)
    assert main([*SWEEP_ARGS, "--format", fmt, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: no convergence on the second curve\n"
    # no partial file and no temporary one beside it
    assert list(tmp_path.iterdir()) == ([] if existing is None else [out])
    if existing is not None:
        assert out.read_bytes() == existing


def test_figure_file_that_cannot_be_written_leaves_each_panel_whole(tmp_path, capsys):
    # each figure file is replaced whole, as an --out file is; the set of
    # them is not written all or nothing
    assert main(["figure", "fig1", "--out", str(tmp_path)]) == 0
    panels = {f: f.read_bytes() for f in tmp_path.iterdir() if f.suffix == ".csv"}
    manifest = tmp_path / "fig1_manifest.json"
    manifest.unlink()
    manifest.mkdir()
    capsys.readouterr()
    assert main(["figure", "fig1", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(manifest) in err
    assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == panels


def test_failure_part_way_on_stdout_keeps_the_rows_written(monkeypatch, capsys):
    fail_on_second_curve(monkeypatch)
    assert main(list(SWEEP_ARGS)) == 3
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert {row["label"] for row in rows} == {"xi2=0.5"} and len(rows) == 401
    assert captured.err == "error: no convergence on the second curve\n"
