"""Outputs are written curve by curve, as the curve engine yields them.

The engine evaluates every request one block of ``CURVE_BLOCK`` curves at
a time, a request with numeric columns (``ergotropy_numeric``, ``power_fd``,
or any oracle-only column but ``capacity_definitional``) in one numeric
pass per block; each block is written before the next is evaluated. Stdout carries the bytes of an
``--out`` file, writing a sweep holds about one curve's rows rather than the
document, and the closed-form columns of a curve share one evaluation of the
thermal terms.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sqbattery import BatteryParams, SweepConfig, cli, dynamics, metrics, model, run_sweep
from sqbattery.output import (figure_file_names, sweep_csv_text, write_figure_files,
                              write_json)

from reference import _text
from test_golden_outputs import ORACLE_FIGURE_SHA256

POINT = ["point", "--xi1", "1.5", "--xi2", "0.5", "--xic", "0.3", "--temp", "0.1", "--tau", "0.7"]
SWEEP = ["sweep", "--xi1", "1.5", "--xic", "0.3", "--temp", "0.2",
         "--vary", "xi2=0.1,0.5,2", "--tau-count", "57"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", [POINT, SWEEP], ids=["point", "sweep"])
def test_stdout_matches_out_file(tmp_path, capsys, args, fmt):
    out = tmp_path / "out"
    assert cli.main([*args, "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main([*args, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def run_child(*args):
    # no PYTHONUNBUFFERED, and stdout a pipe: the child's stdout is block
    # buffered, so its last bytes leave only as the process shuts down
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "sqbattery", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True)


def test_child_stdout_matches_out_file(tmp_path):
    sweep = ["sweep", "--xi1", "1.5", "--xic", "0.3", "--temp", "0.2",
             "--vary", "xi2=0.1,0.5,2", "--tau-count", "401"]
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert run_child(*sweep, "--format", fmt, "--out", str(out)).stdout == b""
        assert run_child(*sweep, "--format", fmt).stdout == out.read_bytes()


def test_child_figure_matches_golden_digest(tmp_path):
    run_child("figure", "fig1", "--mode", "corrected", "--oracle", "--out", str(tmp_path))
    digests = {("corrected", f.name): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert digests == {k: v for k, v in ORACLE_FIGURE_SHA256.items() if k[0] == "corrected"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_manifest_object_is_the_written_manifest(tmp_path, fmt):
    base = BatteryParams(xi1=1.5, xi2=0.5, xic=0.3, temperature=0.1)
    result = run_sweep(SweepConfig(base=base, varied=(("xi2", (0.5, 2.0)),), tau_count=5))
    paths = write_figure_files(result, "fig", tmp_path, fmt)
    names = figure_file_names("fig", fmt)[:-1]
    manifest = _text(lambda stream: write_json(result, stream, None, names))
    assert json.loads(manifest) == json.loads(paths[-1].read_text("utf-8"))


def test_figure_files_take_only_csv_or_json(tmp_path):
    result = run_sweep(SweepConfig(base=BatteryParams(1.5, 0.5, 0.3, 0.1), tau_count=3))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="format must be one of"):
        figure_file_names("fig", "xml")
    with pytest.raises(ValueError, match="format must be one of"):
        write_figure_files(result, "fig", out, "xml")
    assert not out.exists()


def benchmark_shaped_sweep(n: int):
    """An n x n xi2-by-temperature sweep over 401 taus, as the benchmark runs."""
    rng = np.random.default_rng(7)
    xi2 = tuple(float(v) for v in rng.uniform(0.0, 3.0, n))
    temps = tuple(float(v) for v in 10.0 ** rng.uniform(-3.0, 1.0, n))
    base = BatteryParams(xi1=1.5, xi2=0.0, xic=0.5, temperature=1.0)
    return run_sweep(SweepConfig(base=base, varied=(("xi2", xi2), ("temperature", temps))))


@pytest.mark.parametrize("fmt, n, bound", [("csv", 8, 3e6), ("json", 4, 5e6)])
def test_writing_a_sweep_holds_about_one_curve(tmp_path, fmt, n, bound):
    # the whole 64-curve CSV is 5.1 MB and the 16-curve JSON 2.3 MB
    result = benchmark_shaped_sweep(n)
    out = tmp_path / f"sweep.{fmt}"
    tracemalloc.start()
    try:
        code = cli._emit_result(result, argparse.Namespace(fmt=fmt, out=str(out)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    text = sweep_csv_text(result) if fmt == "csv" else _text(lambda s: write_json(result, s))
    assert out.read_bytes() == text.encode("utf-8")
    assert peak < bound, f"writing peaked at {peak / 1e6:.1f} MB"


def test_json_sweep_holds_one_block_of_samples():
    # a 4001-tau curve's sample objects, built and dumped at once, peaked at
    # 10.5 MB; dumped MAX_STACK at a time they peak at about 2 MB. The peak is
    # one curve's, so four curves show it as well as the 64 of the benchmark
    args = ["sweep", "--xi1", "1.5", "--xic", "0.5", "--vary", "xi2=0.5,2.5",
            "--vary", "temperature=0.01,1", "--tau-count", "4001",
            "--format", "json", "--out", os.devnull]
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3e6, f"writing peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("mode", ["corrected", "verbatim"])
def test_thermal_terms_once_per_closed_form_curve(monkeypatch, mode):
    seen = []
    thermal_terms = model.thermal_terms

    def counted(p, tol=None):
        seen.append(p.temperature)
        return thermal_terms(p, tol)

    for module in (model, dynamics, metrics):
        monkeypatch.setattr(module, "thermal_terms", counted)
    base = BatteryParams(xi1=1.5, xi2=0.5, xic=0.5, temperature=0.1)
    cfg = SweepConfig(base=base, varied=(("temperature", (0.1, 0.5, 2.0)),),
                      tau_count=21, mode=mode)
    assert len(run_sweep(cfg).curves) == 3
    assert seen == [0.1, 0.5, 2.0]
