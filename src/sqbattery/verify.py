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
    """Run the five suites as reductions over one numeric pass.

    The pass decomposes every Hamiltonian (presets and cloud) in one stacked
    call, for the thermal suite's Gibbs states; it then evolves each
    preset's Gibbs state on one ``TauGrid``, in chunks of at most
    ``MAX_STACK`` states across presets. The oracle reads each evolved
    state's spectrum off its Gibbs weights; the ergotropy suite's spectral
    leg, which checks that identity, decomposes the states at the taus
    (eigenvalues only, one call per chunk), while those at tau +/- fd_step
    only feed the power suite. Each chunk is reduced to its residuals
    before the next is evolved.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    tol = resolve(tol)
    presets = preset_param_sets()
    param_sets = presets + random_cloud(1000 if level == "full" else 100)
    taus = np.linspace(0.0, 2.0 * np.pi, 401 if level == "full" else 81)
    grid, n = dynamics.TauGrid(taus, tol), len(taus)

    hs, rhos, chunks = metrics._numeric_pass(param_sets, grid, tol, evolved=len(presets))
    closed_rhos = np.array([model.gibbs_state_closed_form(p, tol) for p in param_sets])
    gibbs = [np.abs(closed_rhos - rhos)]

    oracle, spectral, e_reference = (np.empty((len(presets), n)) for _ in range(3))
    evolved, closed = [], {}
    for i, lo, states, values, by_spectrum in chunks(slice(0, n), spectral=True):
        hi = lo + len(states)
        oracle[i, lo:hi], spectral[i, lo:hi] = values, by_spectrum
        if i not in closed:  # runs come preset by preset: keep one preset's states
            closed = {i: dynamics.evolved_state_closed_form(presets[i], grid, "corrected", tol)}
        evolved.append(np.abs(closed[i][lo:hi] - states).max())
        e_reference[i, lo:hi] = metrics.ergotropy_vs_reference(states, rhos[i], hs[i])
    shifted = np.empty((len(presets), 2 * n))  # at every tau + step, then every tau - step
    for i, lo, _, values, _ in chunks(slice(n, 3 * n)):
        shifted[i, lo - n:lo - n + len(values)] = values

    ergotropies, powers, capacities = [], [], []
    for p, h, rho, e_oracle, e_spectral, e_ref, e_shifted in zip(
            presets, hs, rhos, oracle, spectral, e_reference, shifted):
        e_closed = metrics.ergotropy_closed_form(p, grid, "corrected", tol)
        ergotropies += [np.abs(e_spectral - e_oracle), np.abs(e_spectral - e_ref),
                        np.abs(e_spectral - e_closed), np.abs(e_ref - e_closed)]
        fd = grid.central_difference(e_shifted)
        powers.append(np.abs(metrics.power_closed_form(p, grid, "corrected", tol) - fd))
        closed_capacity = metrics.capacity_closed_form(p, tol)
        capacities += [abs(closed_capacity - metrics.capacity_reconciled(p, h, rho)),
                       abs(metrics.capacity_definitional(h) - 0.0)]
    # xic = 0 and equal Josephson energies: capacity collapses to xi tanh(xi/2T)
    for xi in (0.5, 1.5, 2.5):
        for temp in (0.1, 0.5, 2.0):
            p = BatteryParams(xi1=xi, xi2=xi, xic=0.0, temperature=temp)
            closed = metrics.capacity_closed_form(p, tol)
            capacities.append(abs(closed - xi * math.tanh(xi / (2 * temp))))

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
               tol.power_equivalence, f"central difference h={grid.step:g}, global scale 1.0"),
        _suite("capacity reconciliation and limits", capacities, tol.capacity_equivalence,
               "closed vs xic - tr(H R_th); gap definition = 0; tanh limit"),
    )
    return VerificationReport(level=level, suites=suites, decisions=dict(RESOLVED_DECISIONS))
