"""Command-line front end.

Subcommands: ``point`` (metrics at one charging time), ``sweep`` (grid over
tau and varied parameters), ``figure`` (preset reproduction, one data file
per panel plus a manifest), ``verify`` (cross-check suites).

Exit codes: 0 success, 1 verification failure, 2 invalid arguments or
unknown preset, 3 overflow at a requested point, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import output
from .dynamics import MODES
from .exceptions import UnknownPresetError
from .metrics import DEFAULT_METRICS, ORACLE_METRICS
from .model import BatteryParams
from .sweep import PRESET_NAMES, SweepConfig, figure_preset, run_sweep
from .tolerances import from_env
from .verify import run_verification

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


_CONFIG_KEYS = {
    "xi1", "xi2", "xic", "temp", "tau",
    "tau_start", "tau_stop", "tau_count", "mode",
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a flat JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return data


def _setting(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _params_from(args, config: dict) -> BatteryParams:
    return BatteryParams(
        xi1=float(_setting(args, config, "xi1", 0.0)),
        xi2=float(_setting(args, config, "xi2", 0.0)),
        xic=float(_setting(args, config, "xic", 0.0)),
        temperature=float(_setting(args, config, "temp", 1.0)),
    )


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


def _metric_selection(include_oracle: bool) -> tuple[str, ...]:
    return DEFAULT_METRICS + ORACLE_METRICS if include_oracle else DEFAULT_METRICS


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        path = Path(out)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _cmd_point(args, tol) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    tau = float(_setting(args, config, "tau", 0.0))
    mode = _setting(args, config, "mode", "corrected")
    cfg = SweepConfig(
        base=params,
        varied=(),
        tau_start=tau,
        tau_stop=tau,
        tau_count=1,
        metrics=_metric_selection(args.oracle),
        mode=mode,
    )
    result = run_sweep(cfg, tol)
    sample = result.curves[0].samples[0]
    if sample.flag == "overflow":
        print("error: parameter regime overflows the thermal closed forms",
              file=sys.stderr)
        return 3
    if args.fmt == "csv":
        text = output.sweep_csv_text(result, include_oracle=args.oracle)
    else:
        text = output.sweep_json_text(result)
    return _emit(text, args.out)


def _cmd_sweep(args, tol) -> int:
    config = _load_config(args.config)
    params = _params_from(args, config)
    mode = _setting(args, config, "mode", "corrected")
    cfg = SweepConfig(
        base=params,
        varied=_parse_vary(args.vary),
        tau_start=float(_setting(args, config, "tau_start", 0.0)),
        tau_stop=float(_setting(args, config, "tau_stop", 6.283185307179586)),
        tau_count=int(_setting(args, config, "tau_count", 401)),
        metrics=_metric_selection(args.oracle),
        mode=mode,
    )
    result = run_sweep(cfg, tol)
    if args.fmt == "csv":
        text = output.sweep_csv_text(result, include_oracle=args.oracle)
    else:
        text = output.sweep_json_text(result)
    return _emit(text, args.out)


def _cmd_figure(args, tol) -> int:
    mode = args.mode if args.mode is not None else "verbatim"
    cfg = figure_preset(args.name, mode=mode, metrics=_metric_selection(args.oracle))
    result = run_sweep(cfg, tol)
    try:
        paths = output.write_figure_files(
            result, args.name, args.out, fmt=args.fmt, include_oracle=args.oracle
        )
    except OSError as exc:
        print(f"error: cannot write figure data under {args.out}: {exc}",
              file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


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
    except UnknownPresetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
