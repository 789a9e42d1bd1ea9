"""Battery figures of merit.

Ergotropy comes in three routes: the sorted-spectrum definition, the
thermal-reference trace formula, and a closed form. Power is the tau
derivative of ergotropy: a closed form, and the oracle's exact derivative of
its energy form (named ``power_fd`` in every output).
Capacity is exposed in both of its published guises, which disagree: the
energy-gap definition evaluated on the battery Hamiltonian is identically 0
because both extreme diagonal entries equal xic, while the thermal-referenced
closed form equals xic minus the thermal mean energy. Both are kept.

Closed forms accept a mode: ``corrected`` (matches the numeric oracle; the
default) or ``verbatim`` (the originally published expressions; see README).

The closed forms take tau arrays or grids and the numeric routes take stacks:
:func:`compute_curves`, the curve engine, evaluates parameter sets over a
whole tau grid, every column once per curve; :func:`compute_curve` is its
one-set case and :func:`compute_sample` that one's one-tau case. Its oracle
reads each evolved state's spectrum off its Gibbs weights, so a block of
curves decomposes only their Hamiltonians, in one call, and its energies,
power and oracle-only coherence come from U's three-matrix expansion
(``dynamics._state_forms``), with no state formed. ``verify`` reads its
oracle and closed columns off one engine call and checks the energies
against decomposed states, and the power against their central difference.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import (TauGrid, _closed_coherence, _energy_forms, _evolved_coherence,
                       _evolved_energies, _state_forms, as_grid, validate_mode)
from .linalg import hermitian_eigendecomposition
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
    "compute_curves",
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
    g = as_grid(tau)
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
    g = as_grid(tau)
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


def _numeric_pass(params, tol: Tolerances):
    """The shared start of the numeric route of a stack of parameter sets.

    Every full Hamiltonian H, gate charges included, is decomposed in one
    call, with eigenvectors, for its Gibbs state rho_th and passive energy.
    Returns the stacks of H, rho_th, passive energies and H's ascending
    eigenvalues.
    """
    hs = np.array([build_full_hamiltonian(p) for p in params])
    dec = hermitian_eigendecomposition(hs, tol)
    rhos, passive = _gibbs_state(dec, [p.temperature for p in params])
    return hs, rhos, passive, dec.eigenvalues


def power_fd(p: BatteryParams, tau, tol: Tolerances | None = None):
    """dE/dtau through the fully numeric route: the ``power_fd`` column of
    :func:`compute_curve`, the exact tau derivative of the oracle's energy
    form, at every finite tau. ``tol`` sets the unitarity tolerance. The
    name is the output schema's, kept from when this was a finite difference.

    ``tau`` is one charging time (gives a float) or an array of them (gives
    an array).
    """
    grid = TauGrid(tau)
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
    """Sum of off-diagonal entry magnitudes in the computational basis, each
    hypot(Re, Im). A stack ``(N, n, n)`` gives an array of N values."""
    state = np.asarray(state)
    mags = np.hypot(state.real, state.imag)
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
# parameter sets evaluated together: their columns are alive at once, and in a
# request with numeric columns their Hamiltonians share one eigensolver call
CURVE_BLOCK = 16
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
    "ill_conditioned" for a numeric-route curve whose error bound
    eps * max|H_ij| * max(1, max|H_ij| / T) exceeds the ergotropy tolerance:
    its eigenvalues, off by about eps * max|H_ij|, move the Gibbs weights by
    that over T, and the kept values by up to that bound.
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
    """Evaluate the selected metrics at every tau of one parameter set: the
    one-set case of :func:`compute_curves`, with the same bits."""
    return next(compute_curves((p,), taus, mode, metrics, tol))


def compute_curves(
    params: Iterable[BatteryParams],
    taus,
    mode: str = "corrected",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    tol: Tolerances | None = None,
) -> Iterator[CurveColumns]:
    """The curve engine: evaluate the selected metrics at every tau of each
    parameter set of ``params``, yielding one :class:`CurveColumns` per set,
    in order, each with its own flag.

    ``taus`` is an array or a ``TauGrid``, which a sweep shares between its
    curves. The mode and metrics are checked once, on call. Every column is
    evaluated once per curve: each closed form is one call over the whole
    tau array, and the tau-independent capacities are computed once. In
    oracle-only mode each closed-form metric gives way to its numeric
    counterpart in :data:`NUMERIC_FIELDS`; otherwise coherence is read off
    the mode's closed-form states. Every request takes the sets in blocks of
    :data:`CURVE_BLOCK`, so only one block's columns need be alive. With
    numeric columns, named once (``ergotropy_numeric``, ``power_fd``, and in
    oracle-only mode ``coherence_l1`` and ``capacity_reconciled``), each
    block is one :func:`_numeric_pass`: its Hamiltonians are decomposed in
    one eigensolver call, for their Gibbs states, passive energies and state
    and energy forms, which give ``ergotropy_numeric``, its exact tau
    derivative ``power_fd`` and oracle-only coherence at every finite tau
    (:meth:`TauGrid.expansion`), with no state formed. Overflow comes from
    the tau-independent thermal terms, so it flags its curve in-band rather
    than raising; the closed forms go first, so such a set is left out of
    its block's eigensolver call.
    """
    validate_mode(mode, allow_oracle_only=True)
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    tol = resolve(tol)
    if mode == "oracle-only":
        counterparts = dict(zip(CLOSED_FIELDS.values(), NUMERIC_FIELDS.values()))
        metrics = tuple(counterparts.get(m, m) for m in metrics)
    oracle_only = ("coherence_l1", "capacity_reconciled") if mode == "oracle-only" else ()
    numeric = tuple(name for name in ORACLE_METRICS + oracle_only if name in metrics)
    return _curve_blocks(iter(params), as_grid(taus), mode, metrics, tol, numeric)


def _curve_blocks(params: Iterator[BatteryParams], grid: TauGrid, mode: str,
                  metrics: tuple[str, ...], tol: Tolerances,
                  numeric: tuple[str, ...]) -> Iterator[CurveColumns]:
    """The curves of :func:`compute_curves`, :data:`CURVE_BLOCK` sets at a
    time. A block's columns are let go before the next block is evaluated."""
    while block := tuple(itertools.islice(params, CURVE_BLOCK)):
        yield from _curve_block(block, grid, mode, metrics, tol, numeric)


def _curve_block(block: tuple[BatteryParams, ...], grid: TauGrid, mode: str,
                 metrics: tuple[str, ...], tol: Tolerances,
                 numeric: tuple[str, ...]) -> Iterator[CurveColumns]:
    """One block's curves: every set's closed columns, then, if the request
    has ``numeric`` columns, one numeric pass over the sets that did not overflow."""
    closed = []
    for p in block:
        try:
            closed.append(_closed_columns(p, grid, mode, metrics, tol))
        except OverflowError:  # covers ParameterOverflowError and raw float overflow alike
            closed.append(None)
    live = [p for p, columns in zip(block, closed) if columns is not None]
    curves = iter(_numeric_columns(live, grid, numeric, tol) if numeric and live
                  else [CurveColumns(grid.taus, {}) for _ in live])
    for columns in closed:
        if columns is None:
            yield CurveColumns(grid.taus, {}, "overflow")
        else:
            curve = next(curves)
            curve.columns.update(columns)
            yield curve


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
    params: list[BatteryParams],
    grid: TauGrid,
    numeric: tuple[str, ...],
    tol: Tolerances,
) -> list[CurveColumns]:
    """The ``numeric`` columns of each set of ``params``, flagged if
    ill-conditioned: the oracle's (``ergotropy_numeric``, ``power_fd`` and
    ``coherence_l1``), each an array over the taus, and the reconciled
    capacity. All sets share one :func:`_numeric_pass`; a non-finite oracle
    value raises ``ValueError``."""
    oracle = [name for name in numeric if name != "capacity_reconciled"]
    quadratics, slopes = grid.expansion(tol) if oracle else (None, None)
    hs, rhos, passives, _ = _numeric_pass(params, tol)
    states = _state_forms(rhos)
    forms = _energy_forms(states, hs)
    curves = []
    for p, h, rho, passive, state, form in zip(params, hs, rhos, passives, states, forms):
        c = {}
        # the energy less the passive energy, its exact tau derivative, and the coherence
        terms = {"ergotropy_numeric": lambda: _evolved_energies(quadratics, form, passive),
                 "power_fd": lambda: _evolved_energies(slopes, form, 0.0),
                 "coherence_l1": lambda: _evolved_coherence(quadratics, state)}
        for name in oracle:
            values = terms[name]()
            finite = np.isfinite(values)
            if not finite.all():
                tau = float(grid.taus[np.argmin(finite)])
                raise ValueError(f"oracle {name} of {p} is not finite at tau {tau!r}")
            c[name] = values
        if "capacity_reconciled" in numeric:
            c["capacity_reconciled"] = capacity_reconciled(p, h, rho)
        scale = float(np.abs(h).max())  # Python floats, eps last: a huge bound is inf, no warning
        ill = scale * max(1.0, scale / p.temperature) * np.finfo(float).eps > tol.ergotropy_equivalence
        curves.append(CurveColumns(grid.taus, c, "ill_conditioned" if ill else ""))
    return curves
