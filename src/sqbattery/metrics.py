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

The numeric routes take stacks: :func:`compute_curve` evaluates one
parameter set over a whole tau grid, with every numeric column computed on
one stack of evolved states, and :func:`compute_sample` is its one-tau case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import charging_unitaries, evolve, evolved_state_closed_form, validate_mode
from .linalg import hermitian_eigendecomposition
from .model import (
    BatteryParams,
    build_degenerate_hamiltonian,
    gibbs_state_numeric,
    thermal_terms,
)
from .tolerances import Tolerances, resolve

__all__ = [
    "ALL_METRICS",
    "DEFAULT_METRICS",
    "ORACLE_METRICS",
    "MetricsSample",
    "capacity_closed_form",
    "capacity_definitional",
    "compute_curve",
    "compute_sample",
    "ergotropy",
    "ergotropy_closed_form",
    "ergotropy_vs_reference",
    "l1_coherence",
    "passive_state",
    "power_closed_form",
    "power_fd",
    "work_extracted",
]


def passive_state(state: np.ndarray, h: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """State with the same spectrum but no unitarily extractable work.

    Populations are sorted descending and placed on the eigenvectors of h
    sorted ascending in energy, so the result commutes with h.
    """
    dec_h = hermitian_eigendecomposition(h, tol)
    dec_s = hermitian_eigendecomposition(state, tol)
    populations = dec_s.eigenvalues[::-1]
    return (dec_h.eigenvectors * populations) @ dec_h.eigenvectors.conj().T


def _trace_real(m: np.ndarray):
    """Real part of the trace of a matrix (float) or of each matrix of a stack."""
    t = np.trace(m, axis1=-2, axis2=-1).real
    return float(t) if t.ndim == 0 else t


def ergotropy(state: np.ndarray, h: np.ndarray, tol: Tolerances | None = None):
    """Maximum cyclic-unitary work: tr(state h) - tr(passive h).

    Computed from sorted spectra (descending populations against ascending
    energies), which makes the value independent of basis choices inside
    degenerate eigenspaces. ``state`` may be a stack ``(N, n, n)``, giving
    an array of N values; the states and h are decomposed in one call.
    """
    state = np.asarray(state, dtype=complex)
    states = state.reshape(-1, *state.shape[-2:])
    h = np.asarray(h, dtype=complex)
    spectra = hermitian_eigendecomposition(np.concatenate([states, h[None]]), tol).eigenvalues
    passive_energy = (spectra[:-1, ::-1] * spectra[-1]).sum(axis=-1)
    values = _trace_real(states @ h) - passive_energy
    return float(values[0]) if state.ndim == 2 else values


def ergotropy_vs_reference(
    state: np.ndarray, reference: np.ndarray, h: np.ndarray
):
    """tr((state - reference) h): extractable work against a fixed reference."""
    return _trace_real((state - reference) @ h)


def work_extracted(
    state: np.ndarray, final_state: np.ndarray, h: np.ndarray
):
    """tr((state - final) h): work when the protocol lands on final_state."""
    return _trace_real((state - final_state) @ h)


def ergotropy_closed_form(
    p: BatteryParams,
    tau: float,
    mode: str = "corrected",
    tol: Tolerances | None = None,
) -> float:
    """Closed-form ergotropy of the charged thermal state at time tau.

    corrected: 4 xic^2 (B+/alpha+) sin^2(2 tau) / (A+ + A-), which matches
    the numeric route exactly (the evolved state's passive state is the
    thermal state itself).

    verbatim: the originally published expression, with its ambiguous
    cosh factor resolved to (A+ - A-); with that reading the published
    power is exactly its tau derivative. It does not agree with the
    numeric route (see README).
    """
    validate_mode(mode)
    t = thermal_terms(p, tol)
    if mode == "corrected":
        return 4.0 * p.xic**2 * t.rs_plus * math.sin(2 * tau) ** 2
    xc = p.xic
    return math.sin(tau) ** 2 * (
        4 * xc * (
            xc * math.cos(2 * tau) * (t.rs_minus + t.rs_plus)
            + math.cos(tau) ** 2 * (t.ra_plus - t.ra_minus)
        )
        + t.alpha_minus * t.rb_minus
        + t.alpha_plus * t.rb_plus
    )


def power_closed_form(
    p: BatteryParams,
    tau: float,
    mode: str = "corrected",
    tol: Tolerances | None = None,
) -> float:
    """Closed-form instantaneous charging power dE/dtau.

    Each variant is the exact tau derivative of the matching ergotropy
    closed form; no additional scale factor is involved.
    """
    validate_mode(mode)
    t = thermal_terms(p, tol)
    if mode == "corrected":
        return 8.0 * p.xic**2 * t.rs_plus * math.sin(4 * tau)
    xc, x1, x2 = p.xic, p.xi1, p.xi2
    c2 = math.cos(2 * tau)
    return math.sin(2 * tau) * (
        4 * xc * c2 * (t.ra_plus - t.ra_minus)
        + t.rs_plus * (8 * xc * xc * c2 + (x1 + x2) ** 2)
        + t.rs_minus * (8 * xc * xc * c2 + (x1 - x2) ** 2)
    )


def _fd_grid(taus: np.ndarray, step: float) -> np.ndarray:
    """Central-difference nodes: every tau + step, then every tau - step."""
    return np.concatenate([taus + step, taus - step])


def _central_difference(energies: np.ndarray, step: float) -> np.ndarray:
    """Derivatives from energies on :func:`_fd_grid` nodes."""
    half = len(energies) // 2
    return (energies[:half] - energies[half:]) / (2.0 * step)


def power_fd(
    p: BatteryParams,
    tau,
    step: float | None = None,
    tol: Tolerances | None = None,
):
    """Central-difference dE/dtau through the fully numeric ergotropy route.

    ``tau`` is one charging time (gives a float) or an array of them (gives
    an array); all evolved states go through one stacked ergotropy call.
    """
    tol = resolve(tol)
    step = tol.fd_step if step is None else step
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    h = build_degenerate_hamiltonian(p)
    rho = gibbs_state_numeric(h, p.temperature, tol)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    states = evolve(rho, charging_unitaries(_fd_grid(taus, step)), tol)
    fd = _central_difference(ergotropy(states, h, tol), step)
    return float(fd[0]) if np.ndim(tau) == 0 else fd


def capacity_definitional(h: np.ndarray) -> float:
    """Energy gap tr(h |11><11|) - tr(h |00><00|) of a 4x4 Hamiltonian."""
    return float(h[3, 3].real - h[0, 0].real)


def capacity_closed_form(p: BatteryParams, tol: Tolerances | None = None) -> float:
    """Thermal-referenced capacity xic + (a- B- + a+ B+)/(2 (A+ + A-)).

    Equals xic minus the thermal mean energy, and is independent of tau.
    """
    t = thermal_terms(p, tol)
    return p.xic + 0.5 * (
        t.alpha_minus * t.rb_minus + t.alpha_plus * t.rb_plus
    )


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


@dataclass(frozen=True)
class MetricsSample:
    """All figures of merit at one grid point; None marks a skipped metric.

    ``flag`` is empty for a clean cell and "overflow" when the parameter
    regime defeated the hyperbolic terms (the cell is kept in-band).
    """

    tau: float
    ergotropy_numeric: float | None = None
    ergotropy_closed: float | None = None
    power_closed: float | None = None
    power_fd: float | None = None
    capacity_definitional: float | None = None
    capacity_closed: float | None = None
    coherence_l1: float | None = None
    flag: str = ""


def compute_sample(
    p: BatteryParams,
    tau: float,
    mode: str = "corrected",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    tol: Tolerances | None = None,
) -> MetricsSample:
    """Evaluate the selected metrics at one (params, tau) cell.

    The one-tau case of :func:`compute_curve`, so a cell recomputed alone is
    bit-identical to the same cell of a whole curve.
    """
    return compute_curve(p, (tau,), mode, metrics, tol)[0]


def compute_curve(
    p: BatteryParams,
    taus,
    mode: str = "corrected",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
    tol: Tolerances | None = None,
) -> tuple[MetricsSample, ...]:
    """Evaluate the selected metrics at every tau of one parameter set.

    The Hamiltonian and its Gibbs state are built once. The numeric columns
    (``ergotropy_numeric``, ``power_fd`` at tau +/- ``fd_step``, and
    coherence in oracle-only mode) come from one stack of evolved states
    and one stacked ergotropy call; the closed-form columns are evaluated
    per cell. In oracle-only mode the closed-form metrics are skipped;
    otherwise coherence is read off the mode's closed-form state. Overflow
    is recorded in-band via each sample's flag rather than raised.
    """
    validate_mode(mode, allow_oracle_only=True)
    unknown = set(metrics) - set(ALL_METRICS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    tol = resolve(tol)
    if mode == "oracle-only":
        metrics = tuple(m for m in metrics if m not in
                        ("ergotropy_closed", "power_closed", "capacity_closed"))
    taus = [float(t) for t in taus]
    h = build_degenerate_hamiltonian(p)
    try:
        numeric = _numeric_columns(p, h, np.array(taus), mode, metrics, tol)
    except OverflowError:
        return tuple(MetricsSample(tau=tau, flag="overflow") for tau in taus)

    samples = []
    for i, tau in enumerate(taus):
        values = {name: float(column[i]) for name, column in numeric.items()}
        try:
            if "ergotropy_closed" in metrics:
                values["ergotropy_closed"] = ergotropy_closed_form(p, tau, mode, tol)
            if "power_closed" in metrics:
                values["power_closed"] = power_closed_form(p, tau, mode, tol)
            if "capacity_definitional" in metrics:
                values["capacity_definitional"] = capacity_definitional(h)
            if "capacity_closed" in metrics:
                values["capacity_closed"] = capacity_closed_form(p, tol)
            if "coherence_l1" in metrics and mode != "oracle-only":
                values["coherence_l1"] = l1_coherence(
                    evolved_state_closed_form(p, tau, mode, tol)
                )
        except OverflowError:
            # covers ParameterOverflowError and raw float overflow alike
            samples.append(MetricsSample(tau=tau, flag="overflow"))
            continue
        samples.append(MetricsSample(tau=tau, **values))
    return tuple(samples)


def _numeric_columns(
    p: BatteryParams,
    h: np.ndarray,
    taus: np.ndarray,
    mode: str,
    metrics: tuple[str, ...],
    tol: Tolerances,
) -> dict[str, np.ndarray]:
    """The oracle columns of one curve, each an array over ``taus``."""
    want_coherence = "coherence_l1" in metrics and mode == "oracle-only"
    want_power = "power_fd" in metrics
    if not (want_coherence or want_power or "ergotropy_numeric" in metrics):
        return {}
    rho = gibbs_state_numeric(h, p.temperature, tol)
    grid = np.concatenate([taus, _fd_grid(taus, tol.fd_step)]) if want_power else taus
    states = evolve(rho, charging_unitaries(grid), tol)
    count = len(taus)
    columns = {}
    if want_coherence:
        columns["coherence_l1"] = l1_coherence(states[:count])
    if want_power or "ergotropy_numeric" in metrics:
        energies = ergotropy(states, h, tol)
        if "ergotropy_numeric" in metrics:
            columns["ergotropy_numeric"] = energies[:count]
        if want_power:
            columns["power_fd"] = _central_difference(energies[count:], tol.fd_step)
    return columns
