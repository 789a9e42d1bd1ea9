"""CSV/JSON serialization of sweep results.

Formats are pinned for byte-identical reproducibility: comma-separated CSV
with a header row, LF line endings, UTF-8, '.' decimals, floats at 17
significant digits (lossless round trip for float64); JSON objects are
emitted with sorted keys and two-space indentation, every non-finite
number as ``null`` (JSON, RFC 8259, has no Infinity or NaN; the CSV keeps
``inf`` and ``nan``).

A CSV cell is CPython's ``format(x, ".17g")``, byte for byte. The array
columns are formatted on arrays by :func:`_format_cells`: exactly for
1e-4 <= |x| < 1e17 (the exponent from threshold doubles, the rounding made
exact by Dekker's two-product), and through ``format`` for every other
value; per-curve cells (parameters, constant columns) go through
:func:`format_float`.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import os
from itertools import repeat
from pathlib import Path

import numpy as np

from .linalg import MAX_STACK
from .metrics import ORACLE_METRICS, main_fields
from .sweep import Curve, SweepConfig, SweepResult

__all__ = [
    "FORMATS",
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

FORMATS = ("csv", "json")
CURVE_COLUMNS = ("label", "xi1", "xi2", "xic", "temperature")
MAIN_COLUMNS = ("ergotropy", "power", "capacity", "coherence_l1")
ORACLE_COLUMNS = ("ergotropy_numeric", "power_fd", "capacity_definitional")
SAMPLE_KEYS = ("tau", "flag") + MAIN_COLUMNS + ORACLE_COLUMNS

# panel letter -> (title metric column, oracle companion column)
PANELS = tuple(zip("abcd", MAIN_COLUMNS, ORACLE_COLUMNS + (None,)))


def format_float(x: float | None) -> str:
    """One CSV cell: 17 significant digits, or empty for None."""
    return "" if x is None else format(float(x), ".17g")


def _json_value(x):
    """``x``, or None for a non-finite float, which JSON cannot hold."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _json_cells(values: np.ndarray) -> list:
    """A block of a column as JSON values: its floats, non-finite ones as None."""
    cells = values.tolist()
    return cells if np.isfinite(values).all() else list(map(_json_value, cells))


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


# A cell record is ``format(x, ".17g") + ","`` laid out in CELL bytes: the
# sign, the "0." and zeros before the first digit of a number below 1, then
# 17 (digit, slot) pairs, a slot holding the point, the closing comma or PAD.
# PAD (0xFF, never a byte of UTF-8) fills every unused byte and is dropped
# when the rows are joined; ROW_MARK (0xFE, never one either) marks where a
# row's label and parameters go.
CELL, PAD, ROW_MARK = 40, 0xFF, 0xFE
# the least doubles >= 10**j, j = -4..17: the literals below 1 round up, the
# powers from 1 on are exact; i = searchsorted(|x|) is 1..21 on the exact
# range [1e-4, 1e17), where the decade is k = i - 5
_DECADES = np.array([1e-4, 1e-3, 1e-2, 0.1] + [float(10 ** j) for j in range(18)])
_IN_RANGE = np.array([False] + [True] * 21 + [False])
# by i: 10**(16 - k), exact up to 10**22, so |x| * scale has 17 digits before the point
_SCALES = np.array([1.0] + [float(10 ** m) for m in range(20, -1, -1)] + [1.0])


def _veltkamp(v: np.ndarray):
    """``v`` as hi + lo, each of at most 26 significant bits."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


_SCALE_HI, _SCALE_LO = _veltkamp(_SCALES)


@functools.cache
def _cell_tables():
    """The words of the digits, the significant-digit counts and the masks,
    read-only, built on the first CSV write by slicing and indexing alone.

    ``digits[g]`` for g < 10000 is g's four (digit, 0) pairs; ``digits[10000
    + 10 * negative + d]`` the sign and the lead digit d. ``sig[10000 * j +
    g]`` is how many digits are significant through g as the group j of four
    after the lead digit, 0 for 0000. ``masks[18 * i + sig]`` is OR-ed into
    the words: it puts in the zeros before the first digit, the point and the
    comma, and pads what is left of each slot and every digit after both the
    significant ones and the ones before the point.
    """
    digits = np.zeros((10020, 8), np.uint8)
    groups = digits[:10000].reshape(10, 10, 10, 10, 8)
    last = np.zeros((10, 10, 10, 10), np.uint8)  # the place of the last nonzero digit
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for place in range(4):
        groups[..., 2 * place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
        last[(slice(None),) * place + (slice(1, None),)] = place + 1
    lead = digits[10000:].reshape(2, 10, 8)
    lead[..., 0] = np.array([[PAD], [ord("-")]], np.uint8)
    lead[..., 6] = ascii_digits
    # by group j and the place of its last nonzero digit
    through = np.array([[0] + [4 * j + 1 + place for place in range(1, 5)] for j in range(4)],
                       np.uint8)
    sig = through.take(last.ravel(), axis=1)
    keep = np.full((18, 17), PAD, np.uint8)  # by digits kept
    for n in range(1, 18):
        keep[n, :n] = 0
    points = np.full((17, 17), PAD, np.uint8)  # by the digit the point follows, 16 for none
    points[range(16), range(16)] = ord(".")
    # by i and the significant digits n: the digits kept, max(n, k + 1, 1),
    # and the digit the point follows, k while n > k + 1 (16 for none)
    kept, point = np.empty((23, 18), np.intp), np.full((23, 18), 16, np.intp)
    kept[:] = np.arange(18)
    for k in range(-5, 18):
        kept[k + 5, :max(k + 2, 1)] = min(max(k + 1, 1), 17)
        if k >= 0:
            point[k + 5, k + 2:] = k
    masks = np.zeros((23, 18, CELL), np.uint8)
    masks[..., 1:6] = PAD
    for k in range(-4, 0):
        prefix = b"0." + b"0" * (-k - 1)
        masks[k + 5, :, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
    masks[..., 6::2] = keep.take(kept, axis=0)
    masks[..., 7::2] = points.take(point, axis=0)
    masks[..., -1] = ord(",")
    tables = digits.view(np.uint64).ravel(), sig.ravel(), masks.reshape(-1, CELL).view(np.uint64)
    for table in tables:
        table.flags.writeable = False
    return tables


def _rounded(a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The integer nearest a * 10**(21 - i), ties to even, for each value.

    Dekker's two-product splits the exact product into p + e; where it is
    at least 1e16 > 2**53, p is an even integer, so p + rint(e) rounds it.
    """
    p = a * _SCALES.take(i)
    a_hi, a_lo = _veltkamp(a)
    s_hi, s_lo = _SCALE_HI.take(i), _SCALE_LO.take(i)
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    return d


def _digit_groups(d: np.ndarray) -> np.ndarray:
    """The lead digit and the four groups of four digits of each 17-digit
    ``d``, as rows of a (5, n) array."""
    groups = np.empty((5, len(d)), np.int64)
    np.floor_divide(d, 10 ** 16, out=groups[0])
    tail = d - groups[0] * 10 ** 16
    halves = np.empty((2, len(d)), np.int64)
    np.floor_divide(tail, 10 ** 8, out=halves[0])
    np.subtract(tail, halves[0] * 10 ** 8, out=halves[1])
    np.floor_divide(halves, 10 ** 4, out=groups[1::2])
    np.subtract(halves, groups[1::2] * 10 ** 4, out=groups[2::2])
    return groups


def _format_cells(values: np.ndarray) -> np.ndarray:
    """``format(x, ".17g") + ","`` of every value of ``values`` as a record
    of CELL bytes, PAD where unused: shape ``(values.size, CELL)``, uint8.

    For 1e-4 <= |x| < 1e17 the bytes are computed on arrays: the decade k
    from the thresholds, never from ``log10``; |x| * 10**(16 - k) rounded to
    a 17-digit integer exactly (:func:`_rounded`); then its digits laid out
    as ``%.17g`` does in fixed notation. Every other value (zeros,
    subnormals, large values, inf and nan) goes through ``format`` itself.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    i = np.searchsorted(_DECADES, a, side="right")
    in_range = _IN_RANGE.take(i)
    all_in_range = in_range.all()
    # d < 10**17: the double below each power of ten is at least 8 units of
    # the 17th digit below it, so no value rounds up to the next decade
    d = _rounded(a if all_in_range else np.where(in_range, a, 1.0), i)
    groups = _digit_groups(d)
    digits, sig, masks = _cell_tables()
    sig = np.maximum(np.maximum(sig[:10000].take(groups[1]), sig[10000:20000].take(groups[2])),
                     np.maximum(sig[20000:30000].take(groups[3]), sig[30000:].take(groups[4])))
    groups[0] += 10000 + 10 * np.signbit(x)
    words = masks.take(i * 18 + sig, axis=0)
    words |= digits.take(groups).T
    cells = words.view(np.uint8)
    if not all_in_range:
        slow = np.flatnonzero(~in_range)
        text = b"".join(format(v, ".17g").encode().ljust(CELL - 1, bytes([PAD])) + b","
                        for v in x[slow].tolist())
        cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, CELL)
    return cells


def _csv_rows(curve: Curve, mode: str, metric_columns, tau_cells: dict):
    """Yield one curve's rows, ``MAX_STACK`` rows at a time, so a long
    curve's text is bounded.

    Each block is laid out in one byte array, a row to a line: a mark, the
    tau records, then each metric column's records (its array's, from one
    :func:`_format_cells` call on all the curve's array columns of the
    block) or its constant cell, and the flag. The records are CPython's
    ``%.17g`` bytes, computed on arrays for 1e-4 <= |x| < 1e17 and through
    ``format`` for the rest. The tau records are made once per tau grid
    into ``tau_cells``, which a figure's panels share; the constant cells
    are formatted once per curve by :func:`format_float`. Dropping the PAD
    bytes and putting the curve's label and parameters in place of each
    mark gives the rows.
    """
    p, taus = curve.params, curve.samples.taus
    key = taus.tobytes()
    if key not in tau_cells:
        tau_cells[key] = _format_cells(taus)
    head = ",".join([curve.label, *map(format_float, (p.xi1, p.xi2, p.xic, p.temperature))])
    head = (head + ",").encode()
    # a row's segments: constant bytes, or the index of its records in the block
    segments, arrays = [bytes([ROW_MARK]), 0], []
    for value in (_column(curve, name, mode) for name in metric_columns):
        if isinstance(value, np.ndarray):
            arrays.append(value)
            segments.append(len(arrays))
        else:
            segments.append((format_float(value) + ",").encode())
    segments.append(curve.samples.flag.encode() + b"\n")
    width = sum(len(s) if isinstance(s, bytes) else CELL for s in segments)
    for lo in range(0, len(taus), MAX_STACK):
        hi = min(lo + MAX_STACK, len(taus))
        records = [tau_cells[key][lo:hi]]
        if arrays:
            cells = _format_cells(np.stack([array[lo:hi] for array in arrays]))
            records.extend(cells.reshape(len(arrays), hi - lo, CELL))
        rows = np.empty((hi - lo, width), np.uint8)
        at = 0
        for segment in segments:
            part = np.frombuffer(segment, np.uint8) if isinstance(segment, bytes) else records[segment]
            rows[:, at:at + part.shape[-1]] = part
            at += part.shape[-1]
        text = rows.tobytes().translate(None, bytes([PAD])).replace(bytes([ROW_MARK]), head)
        yield text.decode()


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
    entry = {"label": curve.label}
    for key in ("params", "summary"):
        entry[key] = {k: _json_value(v) for k, v in dataclasses.asdict(getattr(curve, key)).items()}
    if sample_keys is not None:
        entry["samples"] = []
    text = json.dumps(entry, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n    ")
    if sample_keys is None:
        yield text
        return
    # labels are dumped escaped, so the key is the only '"samples": []'
    head, _, tail = text.partition('"samples": []')
    yield head + '"samples": ['
    columns = [_column(curve, key, mode) for key in sample_keys]
    for lo in range(0, len(curve.samples), MAX_STACK):
        hi = min(lo + MAX_STACK, len(curve.samples))
        cells = [_json_cells(c[lo:hi]) if isinstance(c, np.ndarray)
                 else repeat(_json_value(c), hi - lo) for c in columns]
        block = json.dumps([dict(zip(sample_keys, row)) for row in zip(*cells)],
                           sort_keys=True, indent=2, allow_nan=False)
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
    head, _, tail = json.dumps(top, sort_keys=True, indent=2,
                               allow_nan=False).partition('"curves": []')
    stream.write(head + '"curves": [')
    count = 0
    for count, curve in enumerate(result.curves, 1):
        stream.write(("," if count > 1 else "") + "\n    ")
        stream.writelines(_curve_text(curve, result.config.mode, sample_keys))
    stream.write(("\n  ]" if count else "]") + tail + "\n")


def figure_file_names(name: str, fmt: str) -> list[str]:
    """The panel files of figure ``name`` in ``fmt``, one of :data:`FORMATS`,
    then its manifest; ``ValueError`` for any other format."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    files = [f"{name}_{letter}_{metric}.{fmt}" for letter, metric, _ in PANELS]
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
    companion column when :func:`sweep_columns` has it. The format is
    checked (see :func:`figure_file_names`) and the curves (a figure has
    four) are collected before ``out_dir`` is made."""
    file_names = figure_file_names(name, fmt)
    result = dataclasses.replace(result, curves=tuple(result.curves))
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
