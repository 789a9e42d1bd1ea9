"""X-gate charging dynamics: closed-form unitary and evolved state.

All time arguments are the dimensionless tau = Omega * t; the drive strength
is fixed to Omega = 1 internally, so tau is the only public time parameter.
The dynamics is periodic in tau with period pi.

The evolved-state closed form exists in two variants. ``corrected`` (the
default) reproduces U(tau) R U(tau)† exactly and is the form cross-checked
against the numeric route. ``verbatim`` evaluates the originally published
element expressions unchanged; those are kept for comparison and for
reproducing the original figure data, but they are not trace-preserving and
drop the imaginary parts of the off-diagonal entries (see README, "Known
discrepancies in the original closed forms").
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NotUnitaryError
from .model import BatteryParams, thermal_entries
from .tolerances import Tolerances, resolve

__all__ = [
    "MODES",
    "charging_unitaries",
    "charging_unitary",
    "evolve",
    "evolved_state_closed_form",
]

MODES = ("corrected", "verbatim", "oracle-only")


def validate_mode(mode: str, allow_oracle_only: bool = False) -> str:
    allowed = MODES if allow_oracle_only else MODES[:2]
    if mode not in allowed:
        raise ValueError(f"mode must be one of {allowed}, got {mode!r}")
    return mode


def charging_unitary(tau: float) -> np.ndarray:
    """Closed-form exp(-i Hc tau) for the collective x-drive at Omega = 1.

    Diagonal a = cos^2(tau), anti-diagonal b = -sin^2(tau), remaining
    entries c = -i sin(tau) cos(tau).
    """
    a = math.cos(tau) ** 2
    b = -math.sin(tau) ** 2
    c = -1j * math.sin(tau) * math.cos(tau)
    return np.array(
        [[a, c, c, b], [c, a, b, c], [c, b, a, c], [b, c, c, a]],
        dtype=complex,
    )


def charging_unitaries(taus) -> np.ndarray:
    """Stack ``(N, 4, 4)`` of :func:`charging_unitary`, one per tau.

    Built from the scalar closed form per tau, so every matrix is
    bit-identical to the one ``charging_unitary`` returns on its own.
    """
    return np.array([charging_unitary(float(t)) for t in taus]).reshape(-1, 4, 4)


def evolve(state: np.ndarray, u: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Conjugate a state by a unitary: u state u†.

    ``state`` and ``u`` are single matrices or stacks ``(N, n, n)`` that
    broadcast against each other; every unitary is checked on its own.
    """
    tol = resolve(tol)
    u = np.asarray(u)
    u_dag = u.conj().swapaxes(-1, -2)
    dev = np.abs(u @ u_dag - np.eye(u.shape[-1])).max(axis=(-2, -1))
    if np.any(dev > tol.unitary):
        i = int(np.argmax(dev))
        which = f"matrix {i} of the stack" if dev.ndim else "matrix"
        raise NotUnitaryError(
            f"{which} deviates from unitarity by {float(dev.flat[i]):.3e} "
            f"(tolerance {tol.unitary:.1e})"
        )
    return u @ state @ u_dag


def evolved_state_closed_form(
    p: BatteryParams,
    tau: float,
    mode: str = "corrected",
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Closed-form evolved state at charging time tau."""
    validate_mode(mode)
    if mode == "corrected":
        return _evolved_corrected(p, tau, tol)
    return _evolved_verbatim(p, tau, tol)


def _evolved_corrected(p: BatteryParams, tau: float, tol: Tolerances | None) -> np.ndarray:
    """Exact entries of U(tau) R U(tau)†.

    Conjugating the thermal state (which commutes with X(x)X) by the
    closed-form unitary mixes its entries with fixed trigonometric weights:
      f1 = a^2 + b^2, f2 = 2ab, f3 = (sin cos)^2, f4 = sin cos cos(2 tau),
    and the only imaginary contribution is f4 times the commutator of the
    state with the collective drive.
    """
    p11, p12, p13, p14, p22, p23 = thermal_entries(p, tol)
    c4 = math.cos(4 * tau)
    f1 = (3.0 + c4) / 4.0
    f2 = (c4 - 1.0) / 4.0
    f3 = (1.0 - c4) / 8.0
    f4 = math.sin(4 * tau) / 4.0
    diag_gap = (p11 + p14) - (p22 + p23)

    r11 = f1 * p11 + f2 * p14 + 2 * f3 * (p22 + p23)
    r14 = f1 * p14 + f2 * p11 + 2 * f3 * (p22 + p23)
    r22 = f1 * p22 + f2 * p23 + 2 * f3 * (p11 + p14)
    r23 = f1 * p23 + f2 * p22 + 2 * f3 * (p11 + p14)
    off = 2 * f3 * (p12 + p13)
    r12 = f1 * p12 + f2 * p13 + off + 1j * f4 * diag_gap
    r13 = f1 * p13 + f2 * p12 + off + 1j * f4 * diag_gap
    r24 = f1 * p13 + f2 * p12 + off - 1j * f4 * diag_gap
    r34 = f1 * p12 + f2 * p13 + off - 1j * f4 * diag_gap
    return np.array(
        [
            [r11, r12, r13, r14],
            [np.conj(r12), r22, r23, r24],
            [np.conj(r13), np.conj(r23), r22, r34],
            [r14, np.conj(r24), np.conj(r34), r11],
        ],
        dtype=complex,
    )


def _evolved_verbatim(p: BatteryParams, tau: float, tol: Tolerances | None) -> np.ndarray:
    """Originally published element expressions, evaluated unchanged.

    All entries are real as printed; the matrix is symmetric but its trace
    is 1 + (xi1+xi2) sin(2 tau) B+/(alpha+ (A+ + A-)), i.e. not a density
    matrix away from multiples of tau = pi/2.
    """
    from .model import thermal_terms

    t = thermal_terms(p, tol)
    x1, x2, xc = p.xi1, p.xi2, p.xic
    s2 = math.sin(2 * tau)
    c2 = math.cos(2 * tau)
    c4 = math.cos(4 * tau)
    c2sq = c2 * c2

    r11 = -(
        -2 * t.ra_minus * c2sq
        + t.ra_plus * (c4 - 3)
        + 4 * xc * t.rs_minus * c2sq
        + 2 * t.rs_plus * (xc * c4 + xc - 2 * (x1 + x2) * s2)
    ) / 8.0
    r12 = c2 * (
        s2 * (t.ra_minus - t.ra_plus - 2 * xc * t.rs_minus - 2 * xc * t.rs_plus)
        + (x2 - x1) * t.rs_minus
        + (x1 + x2) * t.rs_plus
    ) / 4.0
    r13 = c2 * (
        s2 * (t.ra_minus - t.ra_plus - 2 * xc * t.rs_minus - 2 * xc * t.rs_plus)
        + (x1 - x2) * t.rs_minus
        + (x1 + x2) * t.rs_plus
    ) / 4.0
    r14 = (
        -2 * t.ra_minus * c2sq
        + 2 * t.ra_plus * c2sq
        + 4 * xc * t.rs_minus * c2sq
        + 2 * xc * t.rs_plus * (c4 - 3)
    ) / 8.0
    r22 = (
        -t.ra_minus * (c4 - 3)
        + t.ra_plus * (c4 + 1)
        + 4 * (x2 - x1) * s2 * t.rs_minus
        + 4 * xc * c2sq * (t.rs_plus + t.rs_minus)
    ) / 8.0
    r23 = (
        2 * c2sq * (-t.ra_minus + t.ra_plus + 2 * xc * t.rs_plus)
        + 2 * xc * t.rs_minus * (c4 - 3)
    ) / 8.0
    r24 = -c2 * (
        s2 * (t.ra_minus - t.ra_plus - 2 * xc * t.rs_minus - 2 * xc * t.rs_plus)
        + (x2 - x1) * t.rs_minus
        - (x1 + x2) * t.rs_plus
    ) / 4.0
    r33 = (
        -t.ra_minus * (c4 - 3)
        + t.ra_plus * (c4 + 1)
        + 4 * (x1 - x2) * s2 * t.rs_minus
        + 4 * xc * c2sq * (t.rs_plus + t.rs_minus)
    ) / 8.0
    r34 = -c2 * (
        s2 * (t.ra_minus - t.ra_plus - 2 * xc * t.rs_minus - 2 * xc * t.rs_plus)
        + (x1 - x2) * t.rs_minus
        - (x1 + x2) * t.rs_plus
    ) / 4.0
    return np.array(
        [
            [r11, r12, r13, r14],
            [r12, r22, r23, r24],
            [r13, r23, r33, r34],
            [r14, r24, r34, r11],
        ],
        dtype=complex,
    )
