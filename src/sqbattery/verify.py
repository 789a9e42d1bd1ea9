"""Cross-module equivalence suites: closed forms against numeric oracles.

``quick`` runs reduced grids; ``full`` runs the acceptance-grade grids
(1000-point random parameter cloud, 401-point tau grids). Every suite
reports its worst residual next to the tolerance it was held to, and the
report also states how the ambiguities in the original closed forms were
resolved (see README, "Known discrepancies in the original closed forms").
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, metrics, model
from .model import BatteryParams
from .sweep import PRESET_NAMES, figure_preset
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
    params = []
    for name in PRESET_NAMES:
        cfg = figure_preset(name)
        vary, values = cfg.varied[0]
        for v in values:
            params.append(dataclasses.replace(cfg.base, **{vary: v}))
    return params


def random_cloud(count: int, seed: int = 20260809) -> list[BatteryParams]:
    rng = np.random.default_rng(seed)
    cloud = []
    for _ in range(count):
        x1, x2, xc = rng.uniform(0.0, 3.0, 3)
        temp = rng.uniform(0.05, 5.0)
        cloud.append(BatteryParams(xi1=x1, xi2=x2, xic=xc, temperature=temp))
    return cloud


def _tau_grid(count: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, count)


def _suite_gibbs(param_sets, tol: Tolerances) -> SuiteResult:
    hs = np.array([model.build_degenerate_hamiltonian(p) for p in param_sets])
    temperatures = np.array([p.temperature for p in param_sets])
    numeric = model.gibbs_state_numeric(hs, temperatures, tol)
    closed = np.array([model.gibbs_state_closed_form(p, tol) for p in param_sets])
    worst = float(np.max(np.abs(closed - numeric)))
    return SuiteResult(
        name="thermal state closed form vs numeric",
        passed=worst <= tol.gibbs_equivalence,
        max_residual=worst,
        tolerance=tol.gibbs_equivalence,
        detail=f"{len(param_sets)} parameter sets",
    )


def _evolved_numeric(p: BatteryParams, taus, tol: Tolerances):
    """Hamiltonian, numeric Gibbs state and the stack of its evolved states."""
    h = model.build_degenerate_hamiltonian(p)
    rho = model.gibbs_state_numeric(h, p.temperature, tol)
    return h, rho, dynamics.evolve(rho, dynamics.charging_unitaries(taus), tol)


def _suite_evolved(param_sets, taus, tol: Tolerances) -> SuiteResult:
    worst = 0.0
    for p in param_sets:
        _, _, numeric = _evolved_numeric(p, taus, tol)
        closed = np.array([
            dynamics.evolved_state_closed_form(p, float(tau), "corrected", tol)
            for tau in taus
        ])
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    return SuiteResult(
        name="evolved state closed form vs numeric",
        passed=worst <= tol.evolved_equivalence,
        max_residual=worst,
        tolerance=tol.evolved_equivalence,
        detail=f"{len(param_sets)} parameter sets x {len(taus)} tau points",
    )


def _closed_series(fn, p: BatteryParams, taus, tol: Tolerances) -> np.ndarray:
    return np.array([fn(p, float(tau), "corrected", tol) for tau in taus])


def _suite_ergotropy(param_sets, taus, tol: Tolerances) -> SuiteResult:
    worst = 0.0
    for p in param_sets:
        h, rho, states = _evolved_numeric(p, taus, tol)
        e_spectral = metrics.ergotropy(states, h, tol)
        e_reference = metrics.ergotropy_vs_reference(states, rho, h)
        e_closed = _closed_series(metrics.ergotropy_closed_form, p, taus, tol)
        worst = max(
            worst,
            float(np.max(np.abs(e_spectral - e_reference))),
            float(np.max(np.abs(e_spectral - e_closed))),
            float(np.max(np.abs(e_reference - e_closed))),
        )
    return SuiteResult(
        name="ergotropy: spectral vs thermal-reference vs closed form",
        passed=worst <= tol.ergotropy_equivalence,
        max_residual=worst,
        tolerance=tol.ergotropy_equivalence,
        detail=f"pairwise over {len(param_sets)} parameter sets x {len(taus)} tau points",
    )


def _suite_power(param_sets, taus, tol: Tolerances) -> SuiteResult:
    worst = 0.0
    for p in param_sets:
        fd = metrics.power_fd(p, taus, tol=tol)
        closed = _closed_series(metrics.power_closed_form, p, taus, tol)
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    return SuiteResult(
        name="power closed form vs finite-difference derivative",
        passed=worst <= tol.power_equivalence,
        max_residual=worst,
        tolerance=tol.power_equivalence,
        detail=f"central difference h={tol.fd_step:g}, global scale 1.0",
    )


def _suite_capacity(param_sets, tol: Tolerances) -> SuiteResult:
    worst = 0.0
    for p in param_sets:
        h = model.build_degenerate_hamiltonian(p)
        rho = model.gibbs_state_numeric(h, p.temperature, tol)
        reconciled = p.xic - float(np.trace(h @ rho).real)
        closed = metrics.capacity_closed_form(p, tol)
        worst = max(worst, abs(closed - reconciled))
        worst = max(worst, abs(metrics.capacity_definitional(h) - 0.0))
    # xic = 0 and equal Josephson energies: capacity collapses to xi tanh(xi/2T)
    for xi in (0.5, 1.5, 2.5):
        for temp in (0.1, 0.5, 2.0):
            p = BatteryParams(xi1=xi, xi2=xi, xic=0.0, temperature=temp)
            closed = metrics.capacity_closed_form(p, tol)
            worst = max(worst, abs(closed - xi * math.tanh(xi / (2 * temp))))
    return SuiteResult(
        name="capacity reconciliation and limits",
        passed=worst <= tol.capacity_equivalence,
        max_residual=worst,
        tolerance=tol.capacity_equivalence,
        detail="closed vs xic - tr(H R_th); gap definition = 0; tanh limit",
    )


def run_verification(level: str = "quick", tol: Tolerances | None = None) -> VerificationReport:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    tol = resolve(tol)
    presets = preset_param_sets()
    cloud = random_cloud(1000 if level == "full" else 100)
    taus = _tau_grid(401 if level == "full" else 81)
    suites = (
        _suite_gibbs(presets + cloud, tol),
        _suite_evolved(presets, taus, tol),
        _suite_ergotropy(presets, taus, tol),
        _suite_power(presets, taus, tol),
        _suite_capacity(presets, tol),
    )
    return VerificationReport(level=level, suites=suites, decisions=dict(RESOLVED_DECISIONS))
