"""Battery figures of merit.

Ergotropy comes in three routes: the sorted-spectrum definition, the
thermal-reference trace formula, and a closed form. Power is the tau
derivative of ergotropy (closed form plus a finite-difference oracle).
Capacity is exposed in both of its published guises, which disagree: the
energy-gap definition evaluated on the battery Hamiltonian is identically 0
because both extreme diagonal entries equal xic, while the thermal-referenced
closed form equals xic minus the thermal mean energy. Both are kept.

Closed forms accept a mode: ``corrected`` (matches the numeric oracle; the
default) or ``verbatim`` (the originally published expressions; see README).

The closed forms take tau arrays or grids and the numeric routes take stacks:
:func:`compute_curve` evaluates one parameter set over a whole tau grid,
every column once per curve, and :func:`compute_sample` is its one-tau case.
Its oracle reads each evolved state's spectrum off its Gibbs weights, so a
curve decomposes only H; ``verify``'s spectral leg checks that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import TauGrid, _closed_coherence, as_grid, validate_mode
from .linalg import MAX_STACK, _check_input, hermitian_eigendecomposition
from .model import (
    BatteryParams,
    ThermalTerms,
    _gibbs_state,
    build_full_hamiltonian,
    thermal_terms,
)
from .tolerances import Tolerances, resolve

__all__ = [
    "ALL_METRICS",
    "DEFAULT_METRICS",
    "ORACLE_METRICS",
    "CurveColumns",
    "capacity_closed_form",
    "capacity_definitional",
    "capacity_reconciled",
    "compute_curve",
    "compute_sample",
    "ergotropy",
    "ergotropy_closed_form",
    "ergotropy_vs_reference",
    "l1_coherence",
    "power_closed_form",
    "power_fd",
]


def _energies(m: np.ndarray, h: np.ndarray):
    """Re tr(m h) of a matrix or stack, h Hermitian: sum of Re m_ij Re h_ij + Im m_ij Im h_ij."""
    m, h = (np.ascontiguousarray(a, dtype=complex).view(float) for a in (m, h))
    t = (m * h).sum(axis=(-2, -1))
    return float(t) if t.ndim == 0 else t


def ergotropy(state: np.ndarray, h: np.ndarray, tol: Tolerances | None = None):
    """Maximum cyclic-unitary work: tr(state h) - tr(passive h).

    Computed from sorted spectra (descending populations against ascending
    energies), which makes the value independent of basis choices inside
    degenerate eigenspaces. ``state`` may be a stack ``(N, n, n)``, giving
    an array of N values; the states and h are decomposed in one call,
    eigenvalues only.
    """
    state = np.asarray(state, dtype=complex)
    states = state.reshape(-1, *state.shape[-2:])
    h = np.asarray(h, dtype=complex)
    spectra = hermitian_eigendecomposition(
        np.concatenate([states, h[None]]), tol, vectors=False).eigenvalues
    values = _ergotropies(states, h, spectra[:-1], spectra[-1])
    return float(values[0]) if state.ndim == 2 else values


def _ergotropies(states: np.ndarray, h: np.ndarray, spectra: np.ndarray, levels: np.ndarray):
    """:func:`ergotropy` of a stack, from its and h's ascending ``spectra`` and ``levels``."""
    return _energies(states, h) - (spectra[:, ::-1] * levels).sum(axis=-1)


def ergotropy_vs_reference(state: np.ndarray, reference: np.ndarray, h: np.ndarray):
    """tr((state - reference) h): extractable work against a fixed reference."""
    return _energies(state - reference, h)


def ergotropy_closed_form(
    p: BatteryParams,
    tau,
    mode: str = "corrected",
    tol: Tolerances | None = None,
):
    """Closed-form ergotropy of the charged thermal state at time tau.

    corrected: 4 xic^2 (B+/alpha+) sin^2(2 tau) / (A+ + A-), which matches
    the numeric route exactly (the evolved state's passive state is the
    thermal state itself).

    verbatim: the originally published expression, with its ambiguous
    cosh factor resolved to (A+ - A-); with that reading the published
    power is exactly its tau derivative. It does not agree with the
    numeric route (see README).

    ``tau`` is one charging time (gives a float), or an array or a
    ``TauGrid`` (an array); the thermal terms are evaluated once.
    """
    validate_mode(mode)
    g = as_grid(tau, tol)
    values = _ergotropy_closed(p, thermal_terms(p, tol), g, mode)
    return float(values[0]) if g.scalar else values


def _ergotropy_closed(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str):
    if mode == "corrected":
        return 4.0 * p.xic**2 * t.rs_plus * g.sin2_sq
    xc = p.xic
    return g.sin_sq * (
        4 * xc * (xc * g.cos2 * (t.rs_minus + t.rs_plus) + g.cos_sq * (t.ra_plus - t.ra_minus))
        + t.alpha_minus * t.rb_minus
        + t.alpha_plus * t.rb_plus
    )


def power_closed_form(
    p: BatteryParams,
    tau,
    mode: str = "corrected",
    tol: Tolerances | None = None,
):
    """Closed-form instantaneous charging power dE/dtau.

    Each variant is the exact tau derivative of the matching ergotropy
    closed form; no additional scale factor is involved. Takes one tau or an
    array of them, like :func:`ergotropy_closed_form`.
    """
    validate_mode(mode)
    g = as_grid(tau, tol)
    values = _power_closed(p, thermal_terms(p, tol), g, mode)
    return float(values[0]) if g.scalar else values


def _power_closed(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str):
    if mode == "corrected":
        return 8.0 * p.xic**2 * t.rs_plus * g.sin4
    xc, x1, x2, c2 = p.xic, p.xi1, p.xi2, g.cos2
    return g.sin2 * (
        4 * xc * c2 * (t.ra_plus - t.ra_minus)
        + t.rs_plus * (8 * xc * xc * c2 + (x1 + x2) ** 2)
        + t.rs_minus * (8 * xc * xc * c2 + (x1 - x2) ** 2)
    )


def _numeric_pass(params, grid: TauGrid, tol: Tolerances, evolved: int | None = None):
    """The numeric route of a stack of parameter sets over one tau grid.

    Every full Hamiltonian H, gate charges included, is decomposed in one
    call, with eigenvectors, for its Gibbs state rho_th and passive energy.
    Returns the H and rho_th stacks and ``chunks(nodes, spectral=False)``:
    :func:`_evolved_chunks` of the first ``evolved`` sets (by default all).
    """
    hs = np.array([build_full_hamiltonian(p) for p in params])
    dec = hermitian_eigendecomposition(hs, tol)
    rhos, passive = _gibbs_state(dec, [p.temperature for p in params])
    sets = len(hs) if evolved is None else evolved
    return hs, rhos, partial(_evolved_chunks, grid, hs[:sets], dec.eigenvalues, passive, rhos, tol)


def _evolved_chunks(grid: TauGrid, hs, levels, passive, rhos, tol: Tolerances, nodes: slice,
                    spectral: bool = False):
    """Yield ``(i, lo, states, energies, spectral)``: the states U(tau) rho_i
    U(tau)^dagger of set ``i`` at the grid nodes from ``lo`` on, within
    ``nodes``, their ergotropies and, if ``spectral``, their sorted-spectrum
    ergotropies against the ``levels`` of H_i (else None).

    A unitary keeps rho_i's spectrum, its Gibbs weights, so each ergotropy is
    tr(state H_i) - ``passive[i]`` and no state is decomposed but for the
    ``spectral`` leg, which checks that identity; each chunk still passes the
    eigensolver's input check. The (set, node) pairs are evolved in chunks of
    at most ``MAX_STACK`` that share one buffer: each yielded ``states`` is
    overwritten by the next chunk. Every value is that of its matrix alone.
    """
    start, width = nodes.start, nodes.stop - nodes.start
    total = len(hs) * width
    buffer = np.empty((min(total, MAX_STACK), *hs.shape[1:]), dtype=complex)
    for first in range(0, total, MAX_STACK):
        last, k, runs = min(first + MAX_STACK, total), first, []
        while k < last:  # the chunk's runs of one set's nodes: (i, lo, size, offset)
            i, j = divmod(k, width)
            runs.append((i, start + j, min(width - j, last - k), k - first))
            k += runs[-1][2]
        for i, lo, size, at in runs:
            grid.evolve(rhos[i], slice(lo, lo + size), tol, out=buffer[at:at + size])
        stack = buffer[:last - first]
        _check_input(stack, 0, tol)
        if spectral:
            eigs = hermitian_eigendecomposition(stack, tol, vectors=False).eigenvalues
        for i, lo, size, at in runs:
            states = stack[at:at + size]
            yield i, lo, states, _energies(states, hs[i]) - passive[i], (
                _ergotropies(states, hs[i], eigs[at:at + size], levels[i]) if spectral else None)


def power_fd(p: BatteryParams, tau, tol: Tolerances | None = None):
    """Central-difference dE/dtau through the fully numeric ergotropy route:
    the ``power_fd`` column of :func:`compute_curve` on ``TauGrid(tau, tol)``,
    whose step is the ``fd_step`` of ``tol``.

    ``tau`` is one charging time (gives a float) or an array of them (gives
    an array).
    """
    grid = TauGrid(tau, tol)
    fd = compute_curve(p, grid, "corrected", ("power_fd",), tol).columns["power_fd"]
    return float(fd[0]) if grid.scalar else fd


def capacity_definitional(h: np.ndarray) -> float:
    """Energy gap tr(h |11><11|) - tr(h |00><00|) of a 4x4 Hamiltonian."""
    return float(h[3, 3].real - h[0, 0].real)


def capacity_closed_form(p: BatteryParams, tol: Tolerances | None = None) -> float:
    """Thermal-referenced capacity xic + (a- B- + a+ B+)/(2 (A+ + A-)).

    Equals xic minus the thermal mean energy, and is independent of tau.
    """
    return _capacity_closed(p, thermal_terms(p, tol))


def _capacity_closed(p: BatteryParams, t: ThermalTerms) -> float:
    return p.xic + 0.5 * (t.alpha_minus * t.rb_minus + t.alpha_plus * t.rb_plus)


def capacity_reconciled(p: BatteryParams, h: np.ndarray, rho: np.ndarray) -> float:
    """xic - tr(h rho) for the Hamiltonian h of p and its Gibbs state rho.

    The numeric counterpart of :func:`capacity_closed_form`.
    """
    return p.xic - _energies(rho, h)


def l1_coherence(state: np.ndarray):
    """Sum of off-diagonal entry magnitudes in the computational basis.

    A stack ``(N, n, n)`` gives an array of N values.
    """
    mags = np.abs(np.asarray(state))
    n = mags.shape[-1]
    mags[..., range(n), range(n)] = 0.0
    if mags.ndim == 2:
        return float(mags.sum())
    return mags.sum(axis=(-2, -1))


ALL_METRICS = (
    "ergotropy_numeric",
    "ergotropy_closed",
    "power_closed",
    "power_fd",
    "capacity_definitional",
    "capacity_closed",
    "coherence_l1",
)
DEFAULT_METRICS = (
    "ergotropy_closed",
    "power_closed",
    "capacity_definitional",
    "capacity_closed",
    "coherence_l1",
)
ORACLE_METRICS = ("ergotropy_numeric", "power_fd")
# the curve column behind each main output column: the closed forms, or in
# oracle-only mode their numeric counterparts
CLOSED_FIELDS = {"ergotropy": "ergotropy_closed", "power": "power_closed",
                 "capacity": "capacity_closed"}
NUMERIC_FIELDS = {"ergotropy": "ergotropy_numeric", "power": "power_fd",
                  "capacity": "capacity_reconciled"}


def main_fields(mode: str) -> dict:
    """:data:`CLOSED_FIELDS`, or :data:`NUMERIC_FIELDS` in oracle-only mode."""
    return NUMERIC_FIELDS if mode == "oracle-only" else CLOSED_FIELDS


@dataclass(frozen=True, eq=False)
class CurveColumns:
    """One curve: ``columns`` maps each computed metric (``capacity_reconciled``
    too, in oracle-only mode) to an array over ``taus``, or to one value if
    it is tau-independent.

    ``flag`` is empty for a clean curve, "overflow" when the parameter regime
    defeated the hyperbolic terms (``columns`` is then empty), and
    "ill_conditioned" for a numeric-route curve whose max |H_ij| * eps exceeds
    the ergotropy tolerance, where cancellation can swamp the kept values.
    """

    taus: np.ndarray
    columns: dict
    flag: str = ""

    def __len__(self) -> int:
        return len(self.taus)


def compute_sample(
    p: BatteryParams,
    tau: float,
    mode: str = "corrected",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    tol: Tolerances | None = None,
) -> CurveColumns:
    """The one-tau curve of :func:`compute_curve`: a cell recomputed alone
    is bit-identical to the same cell of a whole curve."""
    return compute_curve(p, (tau,), mode, metrics, tol)


def compute_curve(
    p: BatteryParams,
    taus,
    mode: str = "corrected",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    tol: Tolerances | None = None,
) -> CurveColumns:
    """Evaluate the selected metrics at every tau of one parameter set.

    ``taus`` is an array or a ``TauGrid``, which a sweep shares between its
    curves. Every column is evaluated once per curve. The Hamiltonian is
    built and decomposed once (the curve's one eigensolver call), for its
    Gibbs state and the passive energy every evolved state shares; the
    numeric columns (``ergotropy_numeric``, ``power_fd`` at tau +/- the
    grid's step, and coherence in oracle-only mode) come from one
    :func:`_numeric_pass`, which evolves at most ``MAX_STACK`` states at a
    time and reads their spectrum off the Gibbs weights; each
    closed form is one call over the whole tau array, and the
    tau-independent capacities are computed once. In
    oracle-only mode each closed-form metric gives way to its numeric
    counterpart in :data:`NUMERIC_FIELDS`; otherwise coherence is read off
    the mode's closed-form states. Overflow comes from the tau-independent
    thermal terms, so it flags the whole curve in-band rather than raising;
    the closed forms go first, so such a curve makes no eigensolver call.
    A ``power_fd`` column, or in oracle-only mode the power column it stands
    in for, raises ``ValueError`` at a tau too large for the grid's step
    (see :meth:`TauGrid.require_resolved`), before any overflow is flagged.
    """
    validate_mode(mode, allow_oracle_only=True)
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    tol = resolve(tol)
    if mode == "oracle-only":
        counterparts = dict(zip(CLOSED_FIELDS.values(), NUMERIC_FIELDS.values()))
        metrics = tuple(counterparts.get(m, m) for m in metrics)
    grid = as_grid(taus, tol)
    if "power_fd" in metrics:
        grid.require_resolved(tol)
    try:
        closed = _closed_columns(p, grid, mode, metrics, tol)
        numeric = _numeric_columns(p, grid, mode, metrics, tol)
    except OverflowError:
        # covers ParameterOverflowError and raw float overflow alike
        return CurveColumns(grid.taus, {}, "overflow")
    numeric.columns.update(closed)
    return numeric


def _closed_columns(
    p: BatteryParams,
    grid: TauGrid,
    mode: str,
    metrics: tuple[str, ...],
    tol: Tolerances,
) -> dict:
    """The gap capacity of H and the closed-form columns of one curve (none
    in oracle-only mode): arrays over the taus or constants, all from one
    evaluation of the thermal terms."""
    columns = {}
    if "capacity_definitional" in metrics:
        columns["capacity_definitional"] = capacity_definitional(build_full_hamiltonian(p))
    if mode == "oracle-only":
        return columns
    wanted = [name for name in _THERMAL_BODIES if name in metrics]
    t = thermal_terms(p, tol) if wanted else None
    columns.update((name, _THERMAL_BODIES[name](p, t, grid, mode)) for name in wanted)
    return columns


# closed column -> its body over (params, thermal terms, tau grid, mode)
_THERMAL_BODIES = {
    "ergotropy_closed": _ergotropy_closed,
    "power_closed": _power_closed,
    "capacity_closed": lambda p, t, grid, mode: _capacity_closed(p, t),
    "coherence_l1": _closed_coherence,
}


def _numeric_columns(
    p: BatteryParams,
    grid: TauGrid,
    mode: str,
    metrics: tuple[str, ...],
    tol: Tolerances,
) -> CurveColumns:
    """The oracle columns of one curve, each an array over the taus, flagged
    if ill-conditioned; in oracle-only mode also the coherence and the
    reconciled capacity of the numeric route. Only the nodes whose columns
    are selected are evolved."""
    count, columns = len(grid.taus), {}
    coherence = "coherence_l1" in metrics and mode == "oracle-only"
    numeric, power = "ergotropy_numeric" in metrics, "power_fd" in metrics
    if not (numeric or power or mode == "oracle-only"):
        return CurveColumns(grid.taus, columns)
    nodes = slice(0 if numeric or coherence else count, 3 * count if power else count)
    hs, rhos, chunks = _numeric_pass((p,), grid, tol)
    energies = np.empty(3 * count)
    if coherence:
        columns["coherence_l1"] = np.empty(count)
    for _, lo, states, values, _ in chunks(nodes):
        energies[lo:lo + len(values)] = values
        if coherence and lo < count:  # the states at the taus themselves
            columns["coherence_l1"][lo:lo + len(states)] = l1_coherence(states[:count - lo])
    if numeric:
        columns["ergotropy_numeric"] = energies[:count]
    if power:
        columns["power_fd"] = grid.central_difference(energies[count:])
    if "capacity_reconciled" in metrics:
        columns["capacity_reconciled"] = capacity_reconciled(p, hs[0], rhos[0])
    ill = np.abs(hs[0]).max() * np.finfo(float).eps > tol.ergotropy_equivalence
    return CurveColumns(grid.taus, columns, "ill_conditioned" if ill else "")
