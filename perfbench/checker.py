"""Independent output checker for the benchmark workloads.

The reference route uses numpy's LAPACK ``eigh`` (allowed as a bench
reference only) on the battery Hamiltonian built from Pauli products, so it
shares no code with the program's Jacobi kernel or closed forms.

An operation is one (params, tau) cell of a CSV output, or one checked
(params, tau) point of ``verify quick``. An operation *fails* when its row
breaks the output spec in any way: unparsable, a field count that does not
match the header, a flag, a missing cell or a value out of tolerance. A
failure is also *wrong* when a number is missing or out of tolerance; a row
whose fields can still be recovered and whose numbers agree with the
reference fails without being wrong. ``correct`` means that nothing was
wrong.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Copies of sqbattery.tolerances.Tolerances fields the outputs are held to.
ERGOTROPY_TOL = 1e-9  # ergotropy_equivalence, also used for l1 coherence
POWER_TOL = 1e-5  # power_equivalence
TAU_TOL = 1e-12  # grid points may differ by rounding, not by a step

TAU_COUNT = 401
TAU_STOP = 2.0 * math.pi

# The figure presets as documented in the README: fixed knobs, varied knob.
GRID = (0.1, 0.5, 1.0, 2.0)
PRESETS = {
    "fig1": (dict(xi1=1.5, xic=0.05, temperature=0.5), "xi2"),
    "fig2": (dict(xi2=1.5, xic=0.5, temperature=0.1), "xi1"),
    "fig3": (dict(xi1=1.5, xi2=1.5, temperature=0.1), "xic"),
    "fig4": (dict(xi1=1.5, xi2=0.5, temperature=0.1), "xic"),
}
PANELS = (
    ("a_ergotropy", ("ergotropy", "ergotropy_numeric")),
    ("b_power", ("power", "power_fd")),
    ("c_capacity", ("capacity", "capacity_definitional")),
    ("d_coherence_l1", ("coherence_l1",)),
)
PARAM_COLUMNS = ("xi1", "xi2", "xic", "temperature")

# verify quick: suite name prefix -> checked (params, tau) points.
# 16 preset + 100 random parameter sets; 16 presets x 81 taus for the
# state, ergotropy and power suites; 16 presets + 9 tanh-limit points.
VERIFY_QUICK_SUITES = (
    ("thermal state", 116),
    ("evolved state", 16 * 81),
    ("ergotropy", 16 * 81),
    ("power", 16 * 81),
    ("capacity", 25),
)
VERIFY_QUICK_POINTS = sum(points for _, points in VERIFY_QUICK_SUITES)

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_EYE2 = np.eye(2)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)


def tau_grid() -> np.ndarray:
    return np.linspace(0.0, TAU_STOP, TAU_COUNT)


def preset_cells(name: str) -> np.ndarray:
    """Expected (xi1, xi2, xic, temperature, tau) rows of a figure, in file order."""
    fixed, vary = PRESETS[name]
    curves = [dict(fixed, **{vary: v}) for v in GRID]
    return grid_cells(curves)


def grid_cells(curves: list[dict]) -> np.ndarray:
    taus = tau_grid()
    rows = [
        [c["xi1"], c["xi2"], c["xic"], c["temperature"], t]
        for c in curves
        for t in taus
    ]
    return np.array(rows, dtype=float)


def reference(cells: np.ndarray) -> dict[str, np.ndarray]:
    """Ergotropy and l1 coherence of the charged Gibbs state, per cell.

    H = -(xi1 X(x)I + xi2 I(x)X)/2 + xic Z(x)Z; the state exp(-H/T)/Z is
    charged by exp(-i tau (X(x)I + I(x)X)).
    """
    xi1, xi2, xic, temp, tau = cells.T
    sx1 = np.kron(_PAULI_X, _EYE2)
    sx2 = np.kron(_EYE2, _PAULI_X)
    szz = np.kron(_PAULI_Z, _PAULI_Z)
    h = (
        -0.5 * (xi1[:, None, None] * sx1 + xi2[:, None, None] * sx2)
        + xic[:, None, None] * szz
    )
    energies, vecs = np.linalg.eigh(h)
    weights = np.exp(-(energies - energies[:, :1]) / temp[:, None])
    weights /= weights.sum(axis=1, keepdims=True)
    rho = (vecs * weights[:, None, :]) @ vecs.transpose(0, 2, 1)

    drive_e, drive_v = np.linalg.eigh(sx1 + sx2)
    phases = np.exp(-1j * tau[:, None] * drive_e[None, :])
    u = (drive_v[None] * phases[:, None, :]) @ drive_v.T[None]
    state = u @ rho @ u.conj().transpose(0, 2, 1)

    populations = np.linalg.eigvalsh(state)[:, ::-1]
    mean_energy = np.einsum("nij,nji->n", state, h).real
    ergotropy = mean_energy - np.sum(populations * energies, axis=1)
    mags = np.abs(state)
    coherence = mags.sum(axis=(1, 2)) - np.trace(mags, axis1=1, axis2=2)
    return {"ergotropy": ergotropy, "coherence_l1": coherence}


def _parse_rows(text: str):
    """Split a CSV document into its header and (fields, reason) per data row.

    ``reason`` is '' for a clean row; ``fields`` is None for a short row.

    A row with more fields than the header keeps its last len(header) - 1
    fields, so an unquoted comma inside the leading label can still be read.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) == len(header):
            rows.append((fields, ""))
        elif len(fields) > len(header):
            keep = len(header) - 1
            rows.append(([",".join(fields[:-keep])] + fields[-keep:], "extra_fields"))
        else:
            rows.append((None, "missing_fields"))
    return header, rows


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def check_csv(
    text: str,
    cells: np.ndarray,
    ref: dict[str, np.ndarray],
    value_columns: tuple[str, ...],
) -> tuple[np.ndarray, np.ndarray, Counter]:
    """Check one CSV document against the expected cells.

    Returns per-cell boolean arrays (failed, wrong) and a Counter of reasons.
    ``value_columns`` names the columns that must be present; those with a
    reference (ergotropy, coherence) or a pair rule (power vs power_fd) are
    compared numerically.
    """
    n = len(cells)
    failed = np.zeros(n, dtype=bool)
    wrong = np.zeros(n, dtype=bool)
    reasons: Counter = Counter()

    def mark(i: int, reason: str, is_wrong: bool) -> None:
        failed[i] = True
        wrong[i] |= is_wrong
        reasons[reason] += 1

    header, rows = _parse_rows(text)
    needed = PARAM_COLUMNS + ("tau", "flag") + value_columns
    if any(c not in header for c in needed):
        failed[:] = wrong[:] = True
        reasons["bad_header"] += n
        return failed, wrong, reasons
    col = {name: header.index(name) for name in needed}
    if len(rows) > n:
        mark(n - 1, "extra_rows", True)
    for i in range(n):
        if i >= len(rows):
            mark(i, "missing_row", True)
            continue
        fields, shape = rows[i]
        if fields is None:
            mark(i, shape, True)
            continue
        if shape:
            mark(i, shape, False)
        if fields[col["flag"]]:
            mark(i, "flagged", True)
            continue
        params = [_number(fields[col[c]]) for c in PARAM_COLUMNS + ("tau",)]
        if any(v is None for v in params):
            mark(i, "unparsable", True)
            continue
        if params[:4] != list(cells[i, :4]) or abs(params[4] - cells[i, 4]) > TAU_TOL:
            mark(i, "params_mismatch", True)
            continue
        values = {c: _number(fields[col[c]]) for c in value_columns}
        if any(v is None for v in values.values()):
            mark(i, "unparsable", True)
            continue
        for c, v in values.items():
            key = "ergotropy" if c.startswith("ergotropy") else c
            if key in ref and not abs(v - ref[key][i]) <= ERGOTROPY_TOL:
                mark(i, f"{c}_tolerance", True)
        if "power_fd" in values and not abs(values["power_fd"] - values["power"]) <= POWER_TOL:
            mark(i, "power_tolerance", True)
    return failed, wrong, reasons


def check_figure(name: str, panel_texts: dict[str, str | None]) -> CheckResult:
    """Check the four CSV panels of ``figure <name> --oracle`` (keys: panel stems)."""
    cells = preset_cells(name)
    ref = reference(cells)
    failed = np.zeros(len(cells), dtype=bool)
    wrong = np.zeros(len(cells), dtype=bool)
    reasons: Counter = Counter()
    for stem, columns in PANELS:
        text = panel_texts.get(stem)
        if text is None:
            failed[:] = wrong[:] = True
            reasons[f"missing_{stem}"] += 1
            continue
        f, w, r = check_csv(text, cells, ref, columns)
        failed |= f
        wrong |= w
        reasons.update(r)
    return CheckResult(len(cells), int(failed.sum()), int(wrong.sum()), reasons)


def check_sweep(text: str | None, cells: np.ndarray) -> CheckResult:
    """Check a ``sweep`` CSV (main columns, no oracle columns)."""
    if text is None:
        return CheckResult(len(cells), len(cells), len(cells), Counter(missing_file=1))
    columns = ("ergotropy", "power", "capacity", "coherence_l1")
    f, w, r = check_csv(text, cells, reference(cells), columns)
    return CheckResult(len(cells), int(f.sum()), int(w.sum()), r)


_SUITE_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*): max residual")


def check_verify(exit_code: int, stdout: str) -> CheckResult:
    """``verify quick`` passes when it exits 0 and every suite prints PASS."""
    status = {}
    for line in stdout.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            status[m.group(2)] = m.group(1)
    result = CheckResult(attempted=VERIFY_QUICK_POINTS)
    for prefix, points in VERIFY_QUICK_SUITES:
        found = [s for name, s in status.items() if name.startswith(prefix)]
        if found != ["PASS"]:
            result.failed += points
            result.wrong += points
            result.reasons[f"suite_{prefix.replace(' ', '_')}"] += 1
    if exit_code != 0 or "overall: PASS" not in stdout.splitlines():
        result.failed = result.wrong = VERIFY_QUICK_POINTS
        result.reasons["exit_or_overall"] += 1
    return result
