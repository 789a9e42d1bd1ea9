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
from .linalg import MAX_STACK
from .model import BatteryParams, ThermalTerms, thermal_entries, thermal_terms
from .tolerances import Tolerances, resolve

__all__ = [
    "MODES",
    "TauGrid",
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


def per_tau(fn, tau) -> np.ndarray:
    """The scalar expression ``fn`` at every tau, as a 1-D float array.

    Trigonometric tau factors go through Python's ``math`` functions and
    float power rather than numpy's array loops, which differ from them in
    the last bit (``x ** 2`` is libm ``pow``, not ``x * x``); every element
    thus keeps the bits of the scalar expression, which the pinned figure
    files (tests/test_golden.py) were produced with.
    """
    return np.array([fn(t) for t in np.atleast_1d(np.asarray(tau, dtype=float)).tolist()])


# the libm factors of the closed forms, by their TauGrid attribute names
FACTORS = {
    "sin": math.sin, "cos": math.cos,
    "sin_sq": lambda x: math.sin(x) ** 2, "cos_sq": lambda x: math.cos(x) ** 2,
    "sin2": lambda x: math.sin(2 * x), "cos2": lambda x: math.cos(2 * x),
    "sin4": lambda x: math.sin(4 * x), "cos4": lambda x: math.cos(4 * x),
    "sin2_sq": lambda x: math.sin(2 * x) ** 2,
}


class TauGrid:
    """A tau grid and the work that depends on it alone, done at most once.

    ``nodes`` are the taus, then every tau + step, then every tau - step,
    where ``step`` is ``tol.fd_step``, which :class:`Tolerances` has checked.
    Each :data:`FACTORS` name is that factor at every tau (via
    :func:`per_tau`), and ``unitaries`` the charging unitaries at every node
    with their deviations from unitarity; both are built on first access.
    All arrays are read-only, as a sweep's curves share them.
    """

    def __init__(self, taus, tol: Tolerances | None = None):
        self.scalar, self.step = np.ndim(taus) == 0, resolve(tol).fd_step
        self.taus = np.array(taus, dtype=float, ndmin=1)
        if not self.taus.size:
            raise ValueError("tau grid is empty")
        if not np.isfinite(self.taus).all():
            raise ValueError("taus must be finite")
        with np.errstate(over="ignore"):
            self.nodes = np.concatenate([self.taus, self.taus + self.step, self.taus - self.step])
        if not np.isfinite(self.nodes).all():
            raise ValueError(f"finite-difference nodes tau +/- {self.step!r} are not finite")
        self.taus.flags.writeable = self.nodes.flags.writeable = False

    def __getattr__(self, name: str):
        if name == "unitaries":
            u = charging_unitaries(self.nodes)
            value = u, _unitarity_deviation(u)
        elif name in FACTORS:
            value = per_tau(FACTORS[name], self.taus)
        else:
            raise AttributeError(name)
        for part in value if name == "unitaries" else (value,):
            part.flags.writeable = False
        setattr(self, name, value)
        return value

    def central_difference(self, energies: np.ndarray) -> np.ndarray:
        """dE/dtau at every tau, from energies at every tau + step, then every tau - step."""
        half = len(energies) // 2
        return (energies[:half] - energies[half:]) / (2.0 * self.step)

    def require_resolved(self, tol: Tolerances) -> None:
        """Raise ``ValueError`` at the first tau whose finite-difference nodes are
        not resolved: (tau + step) - (tau - step) is off 2 step by more than
        ``tol.power_equivalence`` of it, as from tau = 2**24 on with the defaults."""
        count, width = len(self.taus), 2.0 * self.step
        spread = self.nodes[count:2 * count] - self.nodes[2 * count:]
        bad = ~(np.abs(spread - width) <= tol.power_equivalence * width)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"finite-difference nodes tau +/- {self.step!r} of tau {float(self.taus[i])!r} "
                f"are {float(spread[i])!r} apart, not {width!r} within power_equivalence"
            )

    def evolve(self, state: np.ndarray, nodes: slice, tol: Tolerances, out=None) -> np.ndarray:
        """:func:`evolve` of ``state`` by the unitaries at ``self.nodes[nodes]``,
        into ``out`` if given."""
        u, dev = self.unitaries
        return _conjugate(state, u[nodes], dev[nodes], tol, out)


def as_grid(tau, tol: Tolerances | None = None) -> TauGrid:
    """``tau`` if it is a :class:`TauGrid`, whose own tolerances fixed its
    step, else a one-off grid of its taus at the ``fd_step`` of ``tol``."""
    return tau if isinstance(tau, TauGrid) else TauGrid(tau, tol)


def _matrix_stack(rows) -> np.ndarray:
    """C-contiguous ``(N, 4, 4)`` complex stack from a 4x4 grid of length-N arrays."""
    stack = np.empty((len(rows[0][0]), 4, 4), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            stack[:, i, j] = entry
    return stack


def charging_unitary(tau: float) -> np.ndarray:
    """Closed-form exp(-i Hc tau) for the collective x-drive at Omega = 1.

    Diagonal a = cos^2(tau), anti-diagonal b = -sin^2(tau), remaining
    entries c = -i sin(tau) cos(tau). The one-tau case of
    :func:`charging_unitaries`.
    """
    return charging_unitaries([tau])[0]


def charging_unitaries(taus) -> np.ndarray:
    """Stack ``(N, 4, 4)`` of :func:`charging_unitary`, one per tau."""
    sin, cos, sin_sq, cos_sq = (per_tau(FACTORS[name], taus)
                                for name in ("sin", "cos", "sin_sq", "cos_sq"))
    a, b, c = cos_sq, -sin_sq, -1j * sin * cos
    return _matrix_stack([[a, c, c, b], [c, a, b, c], [c, b, a, c], [b, c, c, a]])


def evolve(state: np.ndarray, u: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Conjugate a state by a unitary: u state u†.

    ``state`` and ``u`` are single matrices or stacks ``(N, n, n)`` that
    broadcast against each other; every unitary is checked on its own.
    """
    u = np.asarray(u)
    return _conjugate(state, u, _unitarity_deviation(u), resolve(tol))


def _unitarity_deviation(u: np.ndarray) -> np.ndarray:
    """max |u u† - I| of one matrix, or of each matrix of a stack, whose
    products are formed ``MAX_STACK`` matrices at a time."""
    n = u.shape[-1]
    flat = u.reshape(-1, n, n)
    dev = np.empty(len(flat))
    for i in range(0, len(flat), MAX_STACK):
        part = flat[i:i + MAX_STACK]
        product = part @ part.conj().swapaxes(-1, -2)
        product -= np.eye(n)
        dev[i:i + MAX_STACK] = np.abs(product).max(axis=(-2, -1))
    return dev.reshape(u.shape[:-2])


def _conjugate(state, u, dev, tol: Tolerances, out=None) -> np.ndarray:
    # not "any(dev > tol)": a NaN deviation must fail too
    if not np.all(dev <= tol.unitary):
        i = int(np.argmax(dev))
        which = f"matrix {i} of the stack" if dev.ndim else "matrix"
        raise NotUnitaryError(
            f"{which} deviates from unitarity by {float(dev.flat[i]):.3e} "
            f"(tolerance {tol.unitary:.1e})"
        )
    return np.matmul(u @ state, u.conj().swapaxes(-1, -2), out=out)


def evolved_state_closed_form(
    p: BatteryParams,
    tau,
    mode: str = "corrected",
    tol: Tolerances | None = None,
) -> np.ndarray:
    """Closed-form evolved state at charging time tau.

    ``tau`` is one charging time (gives a (4, 4) matrix), or an array or a
    :class:`TauGrid` (an ``(N, 4, 4)`` stack); the thermal terms are evaluated once.
    """
    validate_mode(mode)
    grid = as_grid(tau, tol)
    states = _evolved_states(p, thermal_terms(p, tol), grid, mode)
    return states[0] if grid.scalar else states


def _evolved_states(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str) -> np.ndarray:
    """The closed-form states of ``mode`` over ``g``, from the thermal terms ``t`` of ``p``."""
    r11, r12, r13, r14, r22, r23, r24, r33, r34 = _evolved_entries(p, t, g, mode)
    return _matrix_stack([
        [r11, r12, r13, r14],
        [np.conj(r12), r22, r23, r24],
        [np.conj(r13), np.conj(r23), r33, r34],
        [r14, np.conj(r24), np.conj(r34), r11],
    ])


def _closed_coherence(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str) -> np.ndarray:
    """The l1 coherence of the closed-form states of ``mode``, from their
    distinct off-diagonal entries rather than a stack. The sum of the 16
    magnitudes (zeros on the diagonal) keeps numpy's pairwise order for 16
    contiguous terms: r[j] = m[j] + m[j + 8], then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)); so the bits match
    those of the stack's."""
    _, r12, r13, r14, _, r23, r24, _, r34 = _evolved_entries(p, t, g, mode)
    a12, a13, a14, a23, a24, a34 = map(np.abs, (r12, r13, r14, r23, r24, r34))
    return ((a13 + (a12 + a23)) + (a13 + (a14 + a34))) + (((a12 + a14) + a24) + ((a23 + a34) + a24))


def _evolved_entries(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str) -> tuple:
    """The distinct entries (r11, r12, r13, r14, r22, r23, r24, r33, r34) of the
    closed-form states of ``mode``, each an array over the taus of ``g``.

    Both variants are Hermitian with r44 = r11 (verbatim ones real, so the
    lower triangle is their conjugate there too); corrected ones have r33 = r22.
    """
    return (_evolved_corrected if mode == "corrected" else _evolved_verbatim)(p, t, g)


def _evolved_corrected(p: BatteryParams, t: ThermalTerms, g: TauGrid) -> tuple:
    """Exact entries of U(tau) R U(tau)†.

    Conjugating the thermal state (which commutes with X(x)X) by the
    closed-form unitary mixes its entries with fixed trigonometric weights:
      f1 = a^2 + b^2, f2 = 2ab, f3 = (sin cos)^2, f4 = sin cos cos(2 tau),
    and the only imaginary contribution is f4 times the commutator of the
    state with the collective drive.
    """
    p11, p12, p13, p14, p22, p23 = thermal_entries(p, t)
    c4 = g.cos4
    f1 = (3.0 + c4) / 4.0
    f2 = (c4 - 1.0) / 4.0
    f3 = (1.0 - c4) / 8.0
    f4 = g.sin4 / 4.0
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
    return r11, r12, r13, r14, r22, r23, r24, r22, r34


def _evolved_verbatim(p: BatteryParams, t: ThermalTerms, g: TauGrid) -> tuple:
    """Originally published element expressions, evaluated unchanged.

    All entries are real as printed; the matrix is symmetric but its trace
    is 1 + (xi1+xi2) sin(2 tau) B+/(alpha+ (A+ + A-)), i.e. not a density
    matrix away from multiples of tau = pi/2.
    """
    x1, x2, xc = p.xi1, p.xi2, p.xic
    s2, c2, c4 = g.sin2, g.cos2, g.cos4
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
    return r11, r12, r13, r14, r22, r23, r24, r33, r34
