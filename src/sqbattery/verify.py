"""Cross-module equivalence suites: closed forms against numeric oracles.

``quick`` runs reduced grids; ``full`` runs the acceptance-grade grids
(1000-point random parameter cloud, 401-point tau grids). Every suite
reports its worst residual next to the tolerance it was held to, and the
report also states how the ambiguities in the original closed forms were
resolved (see README, "Known discrepancies in the original closed forms").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import dynamics, metrics, model
from .linalg import MAX_STACK, hermitian_eigendecomposition
from .model import BatteryParams
from .sweep import PRESET_NAMES, _curve_cases, figure_preset
from .tolerances import Tolerances, resolve

__all__ = ["SuiteResult", "VerificationReport", "preset_param_sets", "run_verification"]

RESOLVED_DECISIONS = {
    "ergotropy_ambiguous_cosh_factor": "(A+ - A-)",
    "power_global_scale": 1.0,
    "evolved_state_closed_form": (
        "corrected entries used by default; the original ones are real-valued "
        "and not trace-preserving (verbatim mode keeps them for comparison)"
    ),
    "ergotropy_closed_form": (
        "corrected form 4 xic^2 (B+/alpha+) sin^2(2 tau)/(A+ + A-); the original "
        "expression does not match the unitary dynamics under either reading of "
        "its ambiguous factor (verbatim mode keeps it, resolved to (A+ - A-) so "
        "that the published power is exactly its tau derivative at scale 1.0)"
    ),
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    level: str
    suites: tuple[SuiteResult, ...]
    decisions: dict

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def lines(self) -> list[str]:
        out = [f"verification level: {self.level}"]
        for s in self.suites:
            status = "PASS" if s.passed else "FAIL"
            line = (
                f"[{status}] {s.name}: max residual {s.max_residual:.3e}"
                f" (tolerance {s.tolerance:.1e})"
            )
            if s.detail:
                line += f" ({s.detail})"
            out.append(line)
        out.append("resolved closed-form decisions:")
        for key, value in self.decisions.items():
            out.append(f"  - {key}: {value}")
        out.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return out


def preset_param_sets() -> list[BatteryParams]:
    """The sixteen parameter sets spanned by the four figure presets."""
    return [p for name in PRESET_NAMES for _, p in _curve_cases(figure_preset(name))]


def random_cloud(count: int, seed: int = 20260809) -> list[BatteryParams]:
    """Random parameter cloud: xi1, xi2, xic in [0, 3], then T in [0.05, 5], per point,
    drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [BatteryParams(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0),
                          temperature=rng.uniform(0.05, 5.0))
            for _ in range(count)]


def _suite(name: str, residuals: list, tolerance: float, detail: str) -> SuiteResult:
    """A suite's verdict on all its residuals; a NaN anywhere makes it fail."""
    worst = float(np.max(np.concatenate([np.ravel(r) for r in residuals])))
    return SuiteResult(name, bool(worst <= tolerance), worst, tolerance, detail)


def run_verification(level: str = "quick", tol: Tolerances | None = None) -> VerificationReport:
    """Run the five suites as reductions over one numeric pass and one engine call.

    The pass decomposes every Hamiltonian (presets and cloud) in one stacked
    call, for the thermal suite's Gibbs states. One
    :func:`metrics.compute_curves` call over the presets, on the taus, then
    tau + ``tol.fd_step``, then tau - ``tol.fd_step``, gives the closed
    columns that sweeps and figures write and the oracle's
    ``ergotropy_numeric`` and ``power_fd``. The ergotropy suite reads them at
    the taus; the power suite holds the closed-form power and ``power_fd``
    to the oracle energies' central difference. ``verify`` is the one reader
    of ``fd_step``. The states at the taus are formed apart, the only states
    the library forms: each preset's in one :meth:`dynamics.TauGrid.evolve`
    call from its Gibbs state of the pass. The evolved-state suite checks
    them against the closed form, and the ergotropy suite's spectral leg
    decomposes them (eigenvalues only, in stacks of as many whole presets as
    fit in ``MAX_STACK``) and so checks the oracle by a second numeric
    route. Each stack is reduced to its residuals before the next is
    evolved, so at most ``MAX_STACK`` states at the taus (or one preset's)
    are held at once.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    tol = resolve(tol)
    presets = preset_param_sets()
    param_sets = presets + random_cloud(1000 if level == "full" else 100)
    taus = np.linspace(0.0, 2.0 * np.pi, 401 if level == "full" else 81)
    grid, n, step = dynamics.TauGrid(taus), len(taus), tol.fd_step

    hs, rhos, _, levels = metrics._numeric_pass(param_sets, tol)
    closed_rhos = np.array([model.gibbs_state_closed_form(p, tol) for p in param_sets])
    gibbs = [np.abs(closed_rhos - rhos)]
    columns = [curve.columns for curve in metrics.compute_curves(
        presets, np.concatenate([taus, taus + step, taus - step]), "corrected",
        ("ergotropy_closed", "power_closed", "capacity_closed", "capacity_definitional")
        + metrics.ORACLE_METRICS, tol)]
    evolved, ergotropies, powers = [], [], []
    size = max(1, MAX_STACK // n)  # whole presets whose states at the taus decompose together
    for first in range(0, len(presets), size):
        stack = range(first, min(first + size, len(presets)))
        states = np.concatenate([grid.evolve(rhos[i], tol) for i in stack])
        spectra = hermitian_eigendecomposition(states, tol, vectors=False).eigenvalues
        for k, i in enumerate(stack):
            at = slice(k * n, (k + 1) * n)  # preset i's states at the taus
            closed = dynamics.evolved_state_closed_form(presets[i], grid, "corrected", tol)
            evolved.append(np.abs(closed - states[at]).max())
            c, oracle = columns[i], columns[i]["ergotropy_numeric"]
            spectral = metrics._ergotropies(states[at], hs[i], spectra[at], levels[i])
            reference = metrics.ergotropy_vs_reference(states[at], rhos[i], hs[i])
            e_closed = c["ergotropy_closed"][:n]
            ergotropies.append(np.abs([spectral - oracle[:n], spectral - reference,
                                       spectral - e_closed, reference - e_closed]).max())
            fd = (oracle[n:2 * n] - oracle[2 * n:]) / (2.0 * step)
            powers.append(np.abs([c["power_closed"][:n] - fd, c["power_fd"][:n] - fd]).max())
    capacities = [residual for p, h, rho, c in zip(presets, hs, rhos, columns) for residual in (
        abs(c["capacity_closed"] - metrics.capacity_reconciled(p, h, rho)),
        abs(c["capacity_definitional"] - 0.0))]
    # xic = 0 and equal Josephson energies: capacity collapses to xi tanh(xi/2T)
    capacities += [abs(metrics.capacity_closed_form(BatteryParams(xi, xi, 0.0, temp), tol)
                       - xi * math.tanh(xi / (2 * temp)))
                   for xi in (0.5, 1.5, 2.5) for temp in (0.1, 0.5, 2.0)]

    suites = (
        _suite("thermal state closed form vs numeric", gibbs, tol.gibbs_equivalence,
               f"{len(param_sets)} parameter sets"),
        _suite("evolved state closed form vs numeric", evolved, tol.evolved_equivalence,
               f"{len(presets)} parameter sets x {n} tau points"),
        _suite("ergotropy: spectral vs Gibbs-weight, thermal-reference and closed form",
               ergotropies, tol.ergotropy_equivalence,
               f"{len(presets)} parameter sets x {n} tau points; the spectral leg checks "
               "the Gibbs-weight spectrum the oracle reads"),
        _suite("power closed form vs finite-difference derivative", powers,
               tol.power_equivalence, f"central difference h={step:g}, global scale 1.0"),
        _suite("capacity reconciliation and limits", capacities, tol.capacity_equivalence,
               "closed vs xic - tr(H R_th); gap definition = 0; tanh limit"),
    )
    return VerificationReport(level=level, suites=suites, decisions=dict(RESOLVED_DECISIONS))
