"""Benchmark of the sqbattery command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Every CLI call runs in a fresh child process, one at a time (no threads,
single-threaded BLAS), so the eigensolver memo starts cold each time, as in
a user's run. Workloads:

  figures-oracle  ``figure figN --mode corrected --oracle`` (CSV) over the
                  four presets in a seeded order; about three uncached 4x4
                  eigensolves per cell, so the numeric route dominates.
  sweep-closed    ``sweep --mode corrected`` with ``--vary xi2=..`` (8 values,
                  uniform in [0, 3]) and ``--vary temperature=..`` (8 values,
                  log-uniform in [1e-3, 10]) over 401 tau (CSV); closed forms
                  and output only, never the eigensolver. New values are
                  drawn for every call.
  verify          ``verify quick``; built-in inputs, one matrix per
                  eigensolver call with little repetition.

With ``--trace 0`` the run repeats whole passes over the workload's calls
until S seconds have passed and reports end-to-end metrics as medians over
the calls: wall_s (spawn to exit), setup_s (spawn until sqbattery is
imported and the arguments are parsed), cells_per_s (cells / (wall_s -
setup_s)) and peak_rss_mb. With ``--trace 1`` it runs untraced passes for
half of S, then replays the first pass with span-recording wrappers and
reports per-layer metrics.

Every output is checked against an independent numpy reference (see
checker.py). The run prints machine info and a table of every metric (unit,
samples, median, quartiles), writes all records with the sha256 of every
output file to ``perfbench/.work/results/``, and prints one JSON object as
its last line. It exits non-zero without a result when the program cannot
be found or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checker
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
OUT = "{out}"  # replaced by the call's output directory
RUN_DEADLINE_S = 160.0  # children still running then are killed; a run must end within 180 s
CHILD_ENV_OVERRIDES = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER_UNITS = {
    "linalg.calls": "count",
    "linalg.matrices": "count",
    "linalg.self_s": "s",
    "linalg.us_per_matrix": "us",
    "linalg.repeat_frac": "ratio",
    "linalg.ref_us_per_matrix": "us",
    "model.calls": "count",
    "model.self_s": "s",
    "model.thermal_terms_per_cell": "calls/cell",
    "dynamics.calls": "count",
    "dynamics.self_s": "s",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "metrics.us_per_cell": "us",
    "sweep.self_s": "s",
    "sweep.curve_ms_p50": "ms",
    "sweep.curves": "count",
    "output.self_s": "s",
    "output.bytes": "bytes",
    "output.rows": "count",
    "output.us_per_row": "us",
    "verify.self_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


@dataclass
class Job:
    """One CLI call: its arguments (with ``OUT`` placeholders) and its checker."""

    args: list[str]
    cells: int
    check: Callable[[Path, str, int], checker.CheckResult]

    def argv(self, out: Path) -> list[str]:
        return [a.replace(OUT, str(out)) for a in self.args]


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _exit_failure(cells: int, code: int) -> checker.CheckResult:
    result = checker.CheckResult(cells, cells, cells)
    result.reasons[f"exit_{code}"] += 1
    return result


def figure_job(name: str) -> Job:
    cells = checker.TAU_COUNT * len(checker.GRID)

    def check(out: Path, stdout: str, code: int) -> checker.CheckResult:
        if code != 0:
            return _exit_failure(cells, code)
        texts = {stem: _read(out / f"{name}_{stem}.csv") for stem, _ in checker.PANELS}
        return checker.check_figure(name, texts)

    args = ["figure", name, "--mode", "corrected", "--oracle", "--out", OUT]
    return Job(args, cells, check)


def sweep_job(rng: np.random.Generator) -> Job:
    xi2 = [float(v) for v in rng.uniform(0.0, 3.0, 8)]
    temps = [float(v) for v in 10.0 ** rng.uniform(-3.0, 1.0, 8)]
    curves = [dict(xi1=1.5, xi2=a, xic=0.5, temperature=t) for a in xi2 for t in temps]
    expected = checker.grid_cells(curves)

    def check(out: Path, stdout: str, code: int) -> checker.CheckResult:
        if code != 0:
            return _exit_failure(len(expected), code)
        return checker.check_sweep(_read(out / "sweep.csv"), expected)

    args = [
        "sweep", "--mode", "corrected", "--xi1", "1.5", "--xic", "0.5",
        "--vary", "xi2=" + ",".join(map(repr, xi2)),
        "--vary", "temperature=" + ",".join(map(repr, temps)),
        "--tau-count", str(checker.TAU_COUNT), "--out", f"{OUT}/sweep.csv",
    ]
    return Job(args, len(expected), check)


def verify_job() -> Job:
    return Job(
        ["verify", "quick"],
        checker.VERIFY_QUICK_POINTS,
        lambda out, stdout, code: checker.check_verify(code, stdout),
    )


WORKLOADS: dict[str, Callable[[np.random.Generator], list[Job]]] = {
    "figures-oracle": lambda rng: [
        figure_job(name) for name in rng.permutation(sorted(checker.PRESETS))
    ],
    "sweep-closed": lambda rng: [sweep_job(rng)],
    "verify": lambda rng: [verify_job()],
}


def _wait(proc: subprocess.Popen, timeout: float) -> int:
    """Reap the child and return its exit code; kill it on timeout."""
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status = os.waitpid(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode


def run_child(argv: list[str], job_dir: Path, trace: bool, deadline: float) -> dict:
    """Run one CLI call in a fresh process; returns its timings and exit code."""
    job_dir.mkdir(parents=True, exist_ok=True)
    marker = job_dir / "marker.json"
    trace_path = job_dir / "trace.npz" if trace else "-"
    cmd = [sys.executable, str(HERE / "child.py"), str(marker), str(trace_path), *argv]
    # the program comes from this checkout's src and runs with its default tolerances
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SQBATTERY_TOLERANCES")}
    env.update(CHILD_ENV_OVERRIDES)
    with open(job_dir / "stdout.txt", "wb") as out, open(job_dir / "stderr.txt", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=job_dir)
        try:
            code = _wait(proc, deadline - spawn)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    stamps = json.loads(_read(marker) or "{}")
    setup_end = stamps.get("parsed", stamps.get("imported"))
    return {
        "argv": argv,
        "exit": code,
        "wall_s": end - spawn,
        "setup_s": None if setup_end is None else setup_end - spawn,
        "main_s": None if "main_end" not in stamps else stamps["main_end"] - spawn,
        "rss_mb": None if stamps.get("peak_rss_kib") is None else stamps["peak_rss_kib"] / 1024.0,
    }


def _digests(out: Path, stdout: Path) -> dict[str, str]:
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [stdout]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def _output_rows_bytes(out: Path) -> tuple[int, int]:
    rows = size = 0
    for p in out.rglob("*") if out.is_dir() else ():
        data = p.read_bytes()
        size += len(data)
        if p.suffix == ".csv":
            rows += max(data.count(b"\n") - 1, 0)
    return rows, size


def execute(job: Job, job_dir: Path, trace: bool, deadline: float) -> dict:
    """Run, check, digest and (if traced) summarize one job, then delete its files."""
    out = job_dir / "out"
    record = run_child(job.argv(out), job_dir, trace, deadline)
    stdout = _read(job_dir / "stdout.txt") or ""
    result = job.check(out, stdout, record["exit"])
    record.update(
        traced=trace,
        cells=job.cells,
        failed=result.failed,
        wrong=result.wrong,
        reasons=dict(result.reasons),
        digests=_digests(out, job_dir / "stdout.txt"),
        stderr_tail=(_read(job_dir / "stderr.txt") or "")[-2000:],
    )
    if trace:
        record["output_rows"], record["output_bytes"] = _output_rows_bytes(out)
        trace_file = job_dir / "trace.npz"
        if trace_file.is_file():
            record["layers"] = tracing.summarize(trace_file, checker.TAU_COUNT)
    shutil.rmtree(job_dir)
    return record


def _stats(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def end_to_end(records: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    for r in records:
        if r["setup_s"] is None or r["rss_mb"] is None:
            continue
        samples["wall_s"].append(r["wall_s"])
        samples["setup_s"].append(r["setup_s"])
        samples["cells_per_s"].append(r["cells"] / (r["wall_s"] - r["setup_s"]))
        samples["peak_rss_mb"].append(r["rss_mb"])
    return samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: list[dict], baseline_main_s: float, failed_frac: float) -> dict[str, float]:
    sums: Counter = Counter()
    curve_ns: list[int] = []
    for r in traced:
        layers = dict(r.get("layers") or {})
        curve_ns += layers.pop("curve_ns", [])
        sums.update(layers)
    cells = sum(r["cells"] for r in traced)
    eig = tracing.EIGENSOLVER
    rows = sum(r.get("output_rows", 0) for r in traced)
    metrics = {
        "linalg.matrices": sums["eig.matrices"],
        "linalg.us_per_matrix": _ratio(sums[f"{eig}.incl_ns"] / 1e3, sums["eig.matrices"]),
        "linalg.repeat_frac": _ratio(sums["eig.repeats"], sums[f"{eig}.calls"]),
        "linalg.ref_us_per_matrix": _ratio(sums["eig.ref_ns"] / 1e3, sums["eig.matrices"]),
        "model.thermal_terms_per_cell": _ratio(sums["model.thermal_terms.calls"], cells),
        "metrics.us_per_cell": _ratio(sums["metrics.compute_sample.incl_ns"] / 1e3,
                                      sums["metrics.compute_sample.calls"]),
        "sweep.curve_ms_p50": statistics.median(curve_ns) / 1e6 if curve_ns else 0.0,
        "sweep.curves": len(curve_ns),
        "output.bytes": sum(r.get("output_bytes", 0) for r in traced),
        "output.rows": rows,
        "output.us_per_row": _ratio(sums["output.incl_ns"] / 1e3, rows),
        "trace.overhead_frac": _ratio(sum(r["main_s"] or 0.0 for r in traced), baseline_main_s) - 1.0,
        "failed_frac": failed_frac,
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = sums[f"{layer}.calls"]
        metrics[f"{layer}.self_s"] = sums[f"{layer}.self_ns"] / 1e9
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def _git_sha() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(git / ref)
    if loose:
        return loose.strip()
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_info() -> dict:
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git_sha(),
        "loadavg": list(os.getloadavg()),
    }


def print_report(args, machine, records, samples, layer_metrics) -> None:
    attempted = sum(r["cells"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"calls: {len(records)}  cells attempted {attempted}  failed {failed}  "
          f"failed_frac {_ratio(failed, attempted):.4g}  "
          f"wrong {sum(r['wrong'] for r in records)}")
    reasons = sum((Counter(r["reasons"]) for r in records), Counter())
    if reasons:
        print("failure reasons: " + ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())))
    print(f"{'metric':<30}{'unit':>9}{'n':>5}{'median':>14}{'q1':>14}{'q3':>14}")
    for name, unit in END_TO_END:
        if samples[name]:
            med, q1, q3 = _stats(samples[name])
            print(f"{name:<30}{unit:>9}{len(samples[name]):>5}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}")
    for name, value in (layer_metrics or {}).items():
        print(f"{name:<30}{PER_LAYER_UNITS[name]:>9}{'':>5}{value:>14.6g}")
    for r in records:
        tag = "traced " if r["traced"] else ""
        digests = " ".join(f"{k}:{v[:12]}" for k, v in r["digests"].items())
        print(f"  {tag}exit={r['exit']} wall={r['wall_s']:.3f}s {digests}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqbattery" / "__init__.py").is_file():
        print(f"error: no sqbattery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S
    machine = machine_info()
    rng = np.random.default_rng(args.seed)
    make_pass = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        # untimed: writes bytecode, warms the file cache, proves the program imports
        for i in range(2):
            warm = run_child(["--help"], run_dir / f"warm{i}", False, deadline)
            if warm["exit"] != 0:
                print("error: sqbattery does not start:\n"
                      + (_read(run_dir / f"warm{i}" / "stderr.txt") or ""), file=sys.stderr)
                return 3
        budget = args.seconds / 2 if args.trace else args.seconds
        records: list[dict] = []
        passes: list[list[Job]] = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < budget:
            passes.append(make_pass(rng))
            for job in passes[-1]:
                records.append(execute(job, run_dir / f"job{len(records)}", False, deadline))
        samples = end_to_end(records)
        traced = []
        if args.trace:
            # replay the first pass traced; tracing must not change any output
            for i, job in enumerate(passes[0]):
                record = execute(job, run_dir / f"traced{i}", True, deadline)
                if record["digests"] != records[i]["digests"]:
                    record["wrong"] += record["cells"]
                    record["reasons"]["digest_differs_when_traced"] = 1
                traced.append(record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced, records = records, records + traced
    attempted = sum(r["cells"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = all(r["wrong"] == 0 and r["setup_s"] is not None for r in records)
    if args.trace:
        per_pass = len(passes[0])
        pass_main_s = [
            sum(r["main_s"] or 0.0 for r in untraced[i:i + per_pass])
            for i in range(0, len(untraced), per_pass)
        ]
        layer_metrics = per_layer(traced, statistics.median(pass_main_s),
                                  _ratio(failed, attempted))
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer_metrics.items()}
    else:
        layer_metrics = None
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END if samples[name]
        }
    print_report(args, machine, records, samples, layer_metrics)
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "records": records,
        "samples": samples, "metrics": metrics,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"results: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
