"""Command-line front end.

Subcommands: ``point`` (metrics at one charging time), ``sweep`` (grid over
tau and varied parameters), ``figure`` (preset reproduction, one data file
per panel plus a manifest), ``verify`` (cross-check suites).

Exit codes: 0 success, 1 verification failure, 2 invalid arguments or
unknown preset, 3 the requested regime cannot be computed (the thermal terms
overflow or underflow, or the eigensolver does not converge), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

from . import output
from .dynamics import MODES
from .exceptions import EigenConvergenceError
from .metrics import DEFAULT_METRICS, ORACLE_METRICS
from .model import BatteryParams
from .sweep import PRESET_NAMES, SweepConfig, SweepResult, figure_preset, stream_sweep
from .tolerances import from_env
from .verify import run_verification

# A CLI process exits right after main(), and CPython's shutdown collection
# would otherwise walk and free the whole import-time heap (numpy's, mostly):
# about 20 ms of a 90 ms figure call. Freezing moves every object alive now
# into the permanent generation, which that collection skips. Only the CLI
# does this; importing the library leaves the collector alone.
gc.freeze()

EPILOG = (
    "Numeric tolerances may be overridden through the SQBATTERY_TOLERANCES "
    "environment variable (a JSON object of tolerance fields); unset, the "
    "documented defaults apply."
)


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--xi1", type=float, default=None, help="Josephson energy of qubit 1")
    sp.add_argument("--xi2", type=float, default=None, help="Josephson energy of qubit 2")
    sp.add_argument("--xic", type=float, default=None, help="mutual coupling energy")
    sp.add_argument("--temp", type=float, default=None, help="reservoir temperature (> 0)")
    sp.add_argument("--config", type=str, default=None,
                    help="flat key-value JSON file; flags override its entries")
    sp.add_argument("--mode", choices=MODES, default=None,
                    help="closed-form variant (default: corrected; figure presets default to verbatim)")
    sp.add_argument("--oracle", action="store_true",
                    help="add numeric-oracle columns to the output")
    sp.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    sp.add_argument("--out", type=str, default=None, help="output file or directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqbattery", epilog=EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="metrics at a single charging time", epilog=EPILOG)
    _add_param_flags(p_point)
    p_point.add_argument("--tau", type=float, default=None, help="charging time (default 0)")

    p_sweep = sub.add_parser("sweep", help="grid over tau and varied parameters", epilog=EPILOG)
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--tau-start", type=float, default=None)
    p_sweep.add_argument("--tau-stop", type=float, default=None)
    p_sweep.add_argument("--tau-count", type=int, default=None)
    p_sweep.add_argument("--vary", action="append", default=[],
                         metavar="NAME=V1,V2,...",
                         help="vary one of xi1,xi2,xic,temperature (repeatable)")

    p_fig = sub.add_parser("figure", help="reproduce one figure preset", epilog=EPILOG)
    p_fig.add_argument("name", choices=PRESET_NAMES)
    p_fig.add_argument("--mode", choices=MODES, default=None,
                       help="closed-form variant (presets default to verbatim)")
    p_fig.add_argument("--oracle", action="store_true")
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p_fig.add_argument("--out", type=str, default=".")

    p_ver = sub.add_parser("verify", help="run the cross-check suites", epilog=EPILOG)
    p_ver.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")

    return parser


# each key's JSON type, as (description, test): a value of any other type
# would be coerced (true to 1.0, 2.7 taus to 2), so it is rejected instead.
# Every JSON number is read as a float, as the flags are.
_CONFIG_TYPES = {
    **dict.fromkeys(("xi1", "xi2", "xic", "temp", "tau", "tau_start", "tau_stop"),
                    ("a number", lambda v: isinstance(v, float))),
    "tau_count": ("an integer", lambda v: isinstance(v, float) and v.is_integer()),
    "mode": ("a string", lambda v: isinstance(v, str)),
}


def _load_config(args) -> dict:
    """The object in ``args.config``: the settings of the command's own flags."""
    path = args.config
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a flat JSON object")
    unknown = set(data) - (set(_CONFIG_TYPES) & set(vars(args)))
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        kind, valid = _CONFIG_TYPES[key]
        if not valid(value):
            raise ValueError(f"config file {path}: {key} must be {kind}, got {value!r}")
    return data


def _setting(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    return config.get(key, default) if value is None else value


def _sweep_config(args, config: dict, **grid) -> SweepConfig:
    """A point's or sweep's parameters, mode and metrics, over the tau ``grid``."""
    base = BatteryParams(
        xi1=float(_setting(args, config, "xi1", 0.0)),
        xi2=float(_setting(args, config, "xi2", 0.0)),
        xic=float(_setting(args, config, "xic", 0.0)),
        temperature=float(_setting(args, config, "temp", 1.0)),
    )
    return SweepConfig(base=base, metrics=_metric_selection(args.oracle),
                       mode=_setting(args, config, "mode", "corrected"), **grid)


def _parse_vary(vary_args: list[str]) -> tuple:
    varied = []
    for item in vary_args:
        if "=" not in item:
            raise ValueError(f"--vary expects NAME=V1,V2,... (got {item!r})")
        name, _, values = item.partition("=")
        name = name.strip()
        try:
            parsed = tuple(float(v) for v in values.split(",") if v.strip())
        except ValueError as exc:
            raise ValueError(f"--vary {name}: bad value list {values!r}") from exc
        if not parsed:
            raise ValueError(f"--vary {name}: empty value list")
        varied.append((name, parsed))
    return tuple(varied)


def _metric_selection(oracle: bool) -> tuple[str, ...]:
    return DEFAULT_METRICS + ORACLE_METRICS if oracle else DEFAULT_METRICS


def _write(out: str | None, write) -> int:
    """Call ``write`` on the file ``out``, by :func:`output.write_file`, or on
    stdout; exit 4 on ``OSError``, quietly when the reader of stdout has gone."""
    try:
        if out is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            output.write_file(out, write)
    except OSError as exc:
        if out is not None or not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write {out or 'output'}: {exc}", file=sys.stderr)
        if out is None:  # else the exit flush of stdout's buffer fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4
    return 0


def _emit_result(result, args) -> int:
    if args.fmt == "csv":
        columns = output.sweep_columns(result.config)
        return _write(args.out, lambda stream: output.write_csv(result, columns, stream))
    return _write(args.out, lambda stream: output.write_json(result, stream))


def _cmd_point(args, tol) -> int:
    config = _load_config(args)
    tau = float(_setting(args, config, "tau", 0.0))
    if not math.isfinite(tau):  # else the one-point sweep would name its tau_start
        raise ValueError("tau must be finite")
    cfg = _sweep_config(args, config, tau_start=tau, tau_stop=tau, tau_count=1)
    result = stream_sweep(cfg, tol)
    curve = next(result.curves)
    if curve.samples.flag == "overflow":
        print("error: parameter regime overflows or underflows the thermal closed forms",
              file=sys.stderr)
        return 3
    return _emit_result(SweepResult(cfg, (curve,), result.provenance), args)


def _cmd_sweep(args, tol) -> int:
    config = _load_config(args)
    # only the tau settings given; SweepConfig holds the defaults
    grid = {key: kind(value) for key, kind in
            (("tau_start", float), ("tau_stop", float), ("tau_count", int))
            if (value := _setting(args, config, key, None)) is not None}
    cfg = _sweep_config(args, config, varied=_parse_vary(args.vary), **grid)
    return _emit_result(stream_sweep(cfg, tol), args)


def _cmd_figure(args, tol) -> int:
    mode = args.mode if args.mode is not None else "verbatim"
    cfg = figure_preset(args.name, mode=mode, metrics=_metric_selection(args.oracle))
    result = stream_sweep(cfg, tol)
    try:
        paths = output.write_figure_files(result, args.name, args.out, args.fmt)
    except OSError as exc:  # a figure file failed, not stdout
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    return _write(None, lambda stdout: stdout.write("".join(f"{p}\n" for p in paths)))


def _cmd_verify(args, tol) -> int:
    report = run_verification(args.level, tol)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "point":
            return _cmd_point(args, tol)
        if args.command == "sweep":
            return _cmd_sweep(args, tol)
        if args.command == "figure":
            return _cmd_figure(args, tol)
        return _cmd_verify(args, tol)
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 3
    except EigenConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
