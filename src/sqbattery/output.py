"""CSV/JSON serialization of sweep results.

Formats are pinned for byte-identical reproducibility: comma-separated CSV
with a header row, LF line endings, UTF-8, '.' decimals, floats at 17
significant digits (lossless round trip for float64); JSON objects are
emitted with sorted keys and two-space indentation.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .metrics import main_fields
from .sweep import Curve, SweepConfig, SweepResult

__all__ = [
    "PANELS",
    "csv_text",
    "figure_file_names",
    "format_float",
    "manifest_object",
    "sweep_csv_text",
    "sweep_json_text",
    "write_figure_files",
]

CURVE_COLUMNS = ("label", "xi1", "xi2", "xic", "temperature")
MAIN_COLUMNS = ("ergotropy", "power", "capacity", "coherence_l1")
ORACLE_COLUMNS = ("ergotropy_numeric", "power_fd", "capacity_definitional")
SAMPLE_KEYS = ("tau", "flag") + MAIN_COLUMNS + ORACLE_COLUMNS

# panel letter -> (title metric column, oracle companion column)
PANELS = (
    ("a", "ergotropy", "ergotropy_numeric"),
    ("b", "power", "power_fd"),
    ("c", "capacity", "capacity_definitional"),
    ("d", "coherence_l1", None),
)


def format_float(x: float | None) -> str:
    """One CSV cell: 17 significant digits, or empty for None."""
    return "" if x is None else format(float(x), ".17g")


def _column(curve: Curve, name: str, mode: str):
    """One output column of a curve: an array over its taus, or one value for all."""
    columns = curve.samples
    if name in ("tau", "flag"):
        return columns.taus if name == "tau" else columns.flag
    return columns.columns.get(main_fields(mode).get(name, name))


def _series(value, count: int):
    """``count`` cells of a column: an array's elements, or one value repeated."""
    return value.tolist() if isinstance(value, np.ndarray) else repeat(value, count)


def csv_text(result: SweepResult, metric_columns: tuple[str, ...]) -> str:
    """One CSV document: curve columns, tau, the given metric columns, flag.

    Each curve is one ``%`` over a template of its rows. The curve columns
    (label and parameters), the tau-independent columns and the flag are
    formatted once per curve and written into the template (the label and
    flag with ``%`` escaped; formatted floats hold none); the tau cells,
    formatted once per tau grid, fill ``%s`` slots and every other column
    ``%.17g`` slots, which format like :func:`format_float`.
    """
    mode = result.config.mode
    lines = [",".join(CURVE_COLUMNS + ("tau",) + metric_columns + ("flag",))]
    tau_cells = {}
    for curve in result.curves:
        p, taus = curve.params, curve.samples.taus
        key = taus.tobytes()
        if key not in tau_cells:
            tau_cells[key] = list(map(format_float, taus.tolist()))
        cells = [curve.label.replace("%", "%%"),
                 *map(format_float, (p.xi1, p.xi2, p.xic, p.temperature)), "%s"]
        columns = [tau_cells[key]]
        for value in (_column(curve, name, mode) for name in metric_columns):
            array = isinstance(value, np.ndarray)
            if array:
                columns.append(value.tolist())
            cells.append("%.17g" if array else format_float(value))
        row = ",".join(cells + [curve.samples.flag.replace("%", "%%")])
        values = [None] * (len(taus) * len(columns))
        for i, column in enumerate(columns):
            values[i::len(columns)] = column
        lines.append("\n".join([row] * len(taus)) % tuple(values))
    return "\n".join(lines) + "\n"


def sweep_csv_text(result: SweepResult, include_oracle: bool = False) -> str:
    """Full sweep as one CSV document (all main metric columns)."""
    return csv_text(result, MAIN_COLUMNS + (ORACLE_COLUMNS if include_oracle else ()))


def config_object(cfg: SweepConfig) -> dict:
    return {
        "base": dataclasses.asdict(cfg.base),
        "varied": [[name, list(values)] for name, values in cfg.varied],
        "tau_start": cfg.tau_start,
        "tau_stop": cfg.tau_stop,
        "tau_count": cfg.tau_count,
        "metrics": list(cfg.metrics),
        "mode": cfg.mode,
    }


def sweep_json_object(result: SweepResult, sample_keys=SAMPLE_KEYS) -> dict:
    """Config, provenance and curves; ``sample_keys=None`` leaves out the samples."""
    curves = []
    for curve in result.curves:
        entry = {
            "label": curve.label,
            "params": dataclasses.asdict(curve.params),
            "summary": dataclasses.asdict(curve.summary),
        }
        if sample_keys is not None:
            count = len(curve.samples)
            columns = [_series(_column(curve, key, result.config.mode), count)
                       for key in sample_keys]
            entry["samples"] = [dict(zip(sample_keys, values)) for values in zip(*columns)]
        curves.append(entry)
    return {
        "config": config_object(result.config),
        "provenance": result.provenance,
        "curves": curves,
    }


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sweep_json_text(result: SweepResult) -> str:
    return json_text(sweep_json_object(result))


def manifest_object(result: SweepResult, files: list[str]) -> dict:
    return dict(sweep_json_object(result, sample_keys=None), files=files)


def figure_file_names(name: str, fmt: str) -> list[str]:
    ext = "csv" if fmt == "csv" else "json"
    files = [f"{name}_{letter}_{metric}.{ext}" for letter, metric, _ in PANELS]
    files.append(f"{name}_manifest.json")
    return files


def write_figure_files(
    result: SweepResult,
    name: str,
    out_dir: str | Path,
    fmt: str = "csv",
    include_oracle: bool = False,
) -> list[Path]:
    """Write one data file per panel plus a manifest; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    file_names = figure_file_names(name, fmt)
    for (letter, metric, oracle), fname in zip(PANELS, file_names):
        path = out / fname
        companion = (oracle,) if include_oracle and oracle else ()
        if fmt == "csv":
            text = csv_text(result, (metric,) + companion)
        else:
            text = json_text(sweep_json_object(result, ("tau", "flag", metric) + companion))
        path.write_text(text, encoding="utf-8", newline="")
        paths.append(path)
    manifest = out / file_names[-1]
    manifest.write_text(
        json_text(manifest_object(result, file_names[:-1])),
        encoding="utf-8",
        newline="",
    )
    paths.append(manifest)
    return paths
