"""CSV/JSON serialization of sweep results.

Formats are pinned for byte-identical reproducibility: comma-separated CSV
with a header row, LF line endings, UTF-8, '.' decimals, floats at 17
significant digits (lossless round trip for float64); JSON objects are
emitted with sorted keys and two-space indentation.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from itertools import repeat
from pathlib import Path

import numpy as np

from .linalg import MAX_STACK
from .metrics import ORACLE_METRICS, main_fields
from .sweep import Curve, SweepConfig, SweepResult

__all__ = [
    "PANELS",
    "figure_file_names",
    "format_float",
    "sweep_csv_text",
    "sweep_columns",
    "write_csv",
    "write_figure_files",
    "write_file",
    "write_json",
]

CURVE_COLUMNS = ("label", "xi1", "xi2", "xic", "temperature")
MAIN_COLUMNS = ("ergotropy", "power", "capacity", "coherence_l1")
ORACLE_COLUMNS = ("ergotropy_numeric", "power_fd", "capacity_definitional")
SAMPLE_KEYS = ("tau", "flag") + MAIN_COLUMNS + ORACLE_COLUMNS

# panel letter -> (title metric column, oracle companion column)
PANELS = tuple(zip("abcd", MAIN_COLUMNS, ORACLE_COLUMNS + (None,)))


def format_float(x: float | None) -> str:
    """One CSV cell: 17 significant digits, or empty for None."""
    return "" if x is None else format(float(x), ".17g")


def _column(curve: Curve, name: str, mode: str):
    """One output column of a curve: an array over its taus, or one value for all."""
    columns = curve.samples
    if name in ("tau", "flag"):
        return columns.taus if name == "tau" else columns.flag
    return columns.columns.get(main_fields(mode).get(name, name))


def write_csv(result: SweepResult, metric_columns: tuple[str, ...], stream) -> None:
    """Write the header (curve columns, tau, the given metric columns, flag),
    then the rows of each curve as it is read, to ``stream``."""
    _write_csv(result, metric_columns, stream, {})


def _write_csv(result, metric_columns, stream, tau_cells: dict) -> None:
    stream.write(",".join(CURVE_COLUMNS + ("tau",) + metric_columns + ("flag",)) + "\n")
    for curve in result.curves:
        stream.writelines(_csv_rows(curve, result.config.mode, metric_columns, tau_cells))


def _csv_rows(curve: Curve, mode: str, metric_columns, tau_cells: dict):
    """Yield one curve's rows, each block of ``MAX_STACK`` rows one ``%`` over
    a template of its rows, so a long curve's text is bounded.

    The curve columns (label and parameters), the tau-independent columns
    and the flag are formatted once per curve into the template (the label
    and flag with ``%`` escaped; formatted floats hold none); the tau cells,
    formatted once per tau grid into ``tau_cells``, which a figure's panels
    share, fill ``%s`` slots and every other column ``%.17g`` slots, which
    format like :func:`format_float`.
    """
    p, taus = curve.params, curve.samples.taus
    key = taus.tobytes()
    if key not in tau_cells:
        tau_cells[key] = list(map(format_float, taus.tolist()))
    cells = [curve.label.replace("%", "%%"),
             *map(format_float, (p.xi1, p.xi2, p.xic, p.temperature)), "%s"]
    arrays = []
    for value in (_column(curve, name, mode) for name in metric_columns):
        array = isinstance(value, np.ndarray)
        if array:
            arrays.append(value)
        cells.append("%.17g" if array else format_float(value))
    row = ",".join(cells + [curve.samples.flag.replace("%", "%%")]) + "\n"
    for lo in range(0, len(taus), MAX_STACK):
        block = [tau_cells[key][lo:lo + MAX_STACK],
                 *(array[lo:lo + MAX_STACK].tolist() for array in arrays)]
        values = [None] * (len(block[0]) * len(block))
        for i, column in enumerate(block):
            values[i::len(block)] = column
        yield (row * len(block[0])) % tuple(values)


def sweep_columns(config: SweepConfig) -> tuple[str, ...]:
    """The metric columns of a sweep: the main ones, then the oracle ones if
    ``config`` selects an oracle metric."""
    oracle = not set(config.metrics).isdisjoint(ORACLE_METRICS)
    return MAIN_COLUMNS + (ORACLE_COLUMNS if oracle else ())


def sweep_csv_text(result: SweepResult) -> str:
    """Full sweep as one CSV document, in the columns of :func:`sweep_columns`."""
    stream = io.StringIO()
    write_csv(result, sweep_columns(result.config), stream)
    return stream.getvalue()


def _curve_text(curve: Curve, mode: str, sample_keys):
    """Yield one curve's label, params, summary and, unless ``sample_keys`` is
    None, samples as text, re-indented to its place in the curves list.

    The samples are dumped ``MAX_STACK`` at a time into the slot of an empty
    ``"samples"`` list, so only one block of sample objects is held.
    """
    entry = {
        "label": curve.label,
        "params": dataclasses.asdict(curve.params),
        "summary": dataclasses.asdict(curve.summary),
    }
    if sample_keys is not None:
        entry["samples"] = []
    text = json.dumps(entry, sort_keys=True, indent=2).replace("\n", "\n    ")
    if sample_keys is None:
        yield text
        return
    # labels are dumped escaped, so the key is the only '"samples": []'
    head, _, tail = text.partition('"samples": []')
    yield head + '"samples": ['
    columns = [_column(curve, key, mode) for key in sample_keys]
    for lo in range(0, len(curve.samples), MAX_STACK):
        hi = min(lo + MAX_STACK, len(curve.samples))
        cells = [c[lo:hi].tolist() if isinstance(c, np.ndarray) else repeat(c, hi - lo)
                 for c in columns]
        block = json.dumps([dict(zip(sample_keys, row)) for row in zip(*cells)],
                           sort_keys=True, indent=2)
        # the block's objects without its brackets, each at the samples' indent
        yield ("," if lo else "") + block[1:-2].replace("\n", "\n      ")
    yield "\n      ]" + tail


def write_json(result: SweepResult, stream, sample_keys=SAMPLE_KEYS,
               files: list[str] | None = None) -> None:
    """Write config, provenance, curves and, if given, a manifest's ``files``
    to ``stream`` as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    would. Each curve is written as it is read, by :func:`_curve_text`, so
    only one block of one curve's samples is held at a time;
    ``sample_keys=None`` leaves them out."""
    top = dict(config=dataclasses.asdict(result.config), curves=[], provenance=result.provenance)
    if files is not None:
        top["files"] = files
    # the top-level empty list is the only '"curves": []' of the dump
    head, _, tail = json.dumps(top, sort_keys=True, indent=2).partition('"curves": []')
    stream.write(head + '"curves": [')
    count = 0
    for count, curve in enumerate(result.curves, 1):
        stream.write(("," if count > 1 else "") + "\n    ")
        stream.writelines(_curve_text(curve, result.config.mode, sample_keys))
    stream.write(("\n  ]" if count else "]") + tail + "\n")


def figure_file_names(name: str, fmt: str) -> list[str]:
    ext = "csv" if fmt == "csv" else "json"
    files = [f"{name}_{letter}_{metric}.{ext}" for letter, metric, _ in PANELS]
    files.append(f"{name}_manifest.json")
    return files


def write_file(path: str | Path, write) -> None:
    """Call ``write`` on a text stream to the file ``path``, its directories
    made first.

    A regular file is written beside ``path`` and renamed onto it once
    complete, keeping the mode bits of the file it replaces, so a failure
    part-way leaves ``path`` as it was; a special file (``/dev/null``, a
    FIFO) is written in place, never renamed onto.
    """
    path = Path(path).resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists() and not path.is_file():
        with path.open("w", encoding="utf-8", newline="") as stream:
            write(stream)
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    stream = temporary.open("x", encoding="utf-8", newline="")
    try:
        with stream:
            if path.exists():
                temporary.chmod(path.stat().st_mode & 0o7777)
            write(stream)
        temporary.replace(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_figure_files(
    result: SweepResult,
    name: str,
    out_dir: str | Path,
    fmt: str = "csv",
) -> list[Path]:
    """Write one data file per panel plus a manifest, each by
    :func:`write_file`; returns the paths. A panel carries its oracle
    companion column when :func:`sweep_columns` has it. The curves (a
    figure has four) are collected before ``out_dir`` is made."""
    result = dataclasses.replace(result, curves=tuple(result.curves))
    file_names = figure_file_names(name, fmt)
    paths = [Path(out_dir) / fname for fname in file_names]
    wanted, tau_cells = sweep_columns(result.config), {}
    for path, (_, metric, oracle) in zip(paths, PANELS):
        columns = (metric, oracle) if oracle in wanted else (metric,)
        if fmt == "csv":
            write_file(path, lambda stream: _write_csv(result, columns, stream, tau_cells))
        else:
            write_file(path, lambda stream: write_json(result, stream, ("tau", "flag") + columns))
    write_file(paths[-1], lambda stream: write_json(result, stream, None, file_names[:-1]))
    return paths
