"""Cross-module equivalence suites: closed forms against numeric oracles.

``quick`` runs reduced grids; ``full`` runs the acceptance-grade grids
(1000-point random parameter cloud, 401-point tau grids). Every suite
reports its worst residual next to the tolerance it was held to, and the
report also states how the ambiguities in the original closed forms were
resolved (see README, "Known discrepancies in the original closed forms").
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import dynamics, metrics, model
from .linalg import hermitian_eigendecomposition
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


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    """SeedSequence's hash: xor a running constant in, advance it, multiply, xorshift."""
    def hashmix(value: int) -> int:
        nonlocal const
        value, const = value ^ const, const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _seed_sequence_state(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` for an int seed."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0] * 3)[:4]] + words[4:]
    # each of the four pool words takes in the other three, then each entropy word past them
    for src, dst in [*itertools.permutations(range(4), 2),
                     *itertools.product(range(4, len(pool)), range(4))]:
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool[:4] * 2))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """``np.random.default_rng(seed).uniform`` for an int seed, bit for bit: PCG64 (128-bit
    LCG, XSL-RR output) seeded through SeedSequence. Importing ``numpy.random`` for it
    would cost about a quarter of a ``verify quick`` call."""

    def __init__(self, seed: int):
        s_high, s_low, i_high, i_low = _seed_sequence_state(seed)
        self.inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self.state = ((self.inc + (s_high << 64 | s_low)) * _PCG_MULTIPLIER + self.inc) & _MASK128

    def uniform(self, low: float, high: float, size: int | None = None):
        draws = []
        for _ in range(1 if size is None else size):
            self.state = (self.state * _PCG_MULTIPLIER + self.inc) & _MASK128
            word, rot = (self.state >> 64 ^ self.state) & _MASK64, self.state >> 122
            unit = (((word >> rot | word << (64 - rot)) & _MASK64) >> 11) * 2.0**-53
            draws.append(low + (high - low) * unit)
        return draws[0] if size is None else draws


def random_cloud(count: int, seed: int | np.random.Generator = 20260809) -> list[BatteryParams]:
    """Random parameter cloud: xi in [0, 3], T in [0.05, 5], drawn as ``default_rng(seed)``
    would draw it; ``seed`` is a non-negative int or a numpy ``Generator``, used as it is."""
    rng = seed if hasattr(seed, "uniform") else _PCG64(operator.index(seed))
    return [BatteryParams(*rng.uniform(0.0, 3.0, 3), temperature=rng.uniform(0.05, 5.0))
            for _ in range(count)]


def _suite(name: str, residuals: list, tolerance: float, detail: str) -> SuiteResult:
    """A suite's verdict on all its residuals; a NaN anywhere makes it fail."""
    worst = float(np.max(np.concatenate([np.ravel(r) for r in residuals])))
    return SuiteResult(name, bool(worst <= tolerance), worst, tolerance, detail)


def run_verification(level: str = "quick", tol: Tolerances | None = None) -> VerificationReport:
    """Run the five suites as reductions over one numeric pass per parameter set.

    The thermal suite decomposes every Hamiltonian (presets and cloud) in
    one stacked call, which also gives each preset's H spectrum; each
    preset's Gibbs state is then evolved once over tau, tau + fd_step and
    tau - fd_step, and one eigenvalues-only call on those states serves
    both the ergotropy and the power suite; all share one ``TauGrid``.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    tol = resolve(tol)
    presets = preset_param_sets()
    param_sets = presets + random_cloud(1000 if level == "full" else 100)
    taus = np.linspace(0.0, 2.0 * np.pi, 401 if level == "full" else 81)
    grid, n, step = dynamics.TauGrid(taus, tol.fd_step), len(taus), tol.fd_step

    hs = np.array([model.build_full_hamiltonian(p) for p in param_sets])
    dec = hermitian_eigendecomposition(hs, tol)
    rhos = model._gibbs_state(dec, [p.temperature for p in param_sets])
    closed_rhos = np.array([model.gibbs_state_closed_form(p, tol) for p in param_sets])
    gibbs = [np.abs(closed_rhos - rhos)]

    evolved, ergotropies, powers, capacities = [], [], [], []
    for p, h, levels, rho in zip(presets, hs, dec.eigenvalues, rhos):
        states = grid.evolve(rho, 3 * n, tol)
        energies = metrics._stack_ergotropy(states, h, tol, levels)
        closed_states = dynamics.evolved_state_closed_form(p, grid, "corrected", tol)
        evolved.append(np.abs(closed_states - states[:n]))
        e_spectral = energies[:n]
        e_reference = metrics.ergotropy_vs_reference(states[:n], rho, h)
        e_closed = metrics.ergotropy_closed_form(p, grid, "corrected", tol)
        ergotropies += [np.abs(e_spectral - e_reference), np.abs(e_spectral - e_closed),
                        np.abs(e_reference - e_closed)]
        fd = metrics.central_difference(energies[n:], step)
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
        _suite("ergotropy: spectral vs thermal-reference vs closed form", ergotropies,
               tol.ergotropy_equivalence,
               f"pairwise over {len(presets)} parameter sets x {n} tau points"),
        _suite("power closed form vs finite-difference derivative", powers,
               tol.power_equivalence, f"central difference h={step:g}, global scale 1.0"),
        _suite("capacity reconciliation and limits", capacities, tol.capacity_equivalence,
               "closed vs xic - tr(H R_th); gap definition = 0; tanh limit"),
    )
    return VerificationReport(level=level, suites=suites, decisions=dict(RESOLVED_DECISIONS))
