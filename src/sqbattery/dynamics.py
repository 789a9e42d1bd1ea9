"""X-gate charging dynamics: closed-form unitary and evolved state.

All time arguments are the dimensionless tau = Omega * t; the drive strength
is fixed to Omega = 1 internally, so tau is the only public time parameter.
The dynamics is periodic in tau with period pi.

The evolved-state closed form exists in two variants. ``corrected`` (the
default) reproduces U(tau) R U(tau)† exactly and is the form cross-checked
against the numeric route: it is the state form below of the closed Gibbs
state. ``verbatim`` evaluates the originally published element expressions
unchanged; those are kept for comparison and for reproducing the original
figure data, but they are not trace-preserving and drop the imaginary parts
of the off-diagonal entries (see README, "Known discrepancies in the
original closed forms").

U = a I + b J - i gamma K, so each entry of U rho U^dagger is a quadratic
form in (a, b, gamma) that each real rho gives once (:func:`_state_forms`).
Of the closed Gibbs state it gives the corrected closed states and coherence.
The numeric oracle forms no evolved state: its energies contract the form of
its Gibbs state with H (:func:`_energy_forms`), and their exact tau
derivative, the oracle's power, is the same form of the quadratics'
derivatives (``TauGrid.slopes``).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NotUnitaryError
from .linalg import MAX_STACK
from .model import BatteryParams, ThermalTerms, _thermal_state, thermal_terms
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
    "sin2": lambda x: math.sin(2 * x), "cos2": lambda x: math.cos(2 * x),
    "sin4": lambda x: math.sin(4 * x), "cos4": lambda x: math.cos(4 * x),
    "sin2_sq": lambda x: math.sin(2 * x) ** 2,
}


class TauGrid:
    """A tau grid and the work that depends on it alone, done at most once.

    Built on first access and read-only, as a sweep's curves share them:

    - each :data:`FACTORS` name: that factor at every tau, via :func:`per_tau`;
    - ``factors``: the rows of :func:`_charging_factors` at every tau, so
      U(tau) = a I + b J - i gamma K; ``cos_sq`` is its row a and ``sin_sq``
      is -b;
    - ``quadratics``: a^2, b^2, gamma^2, ab, a gamma and b gamma at every
      tau, the terms of the evolved states; the first four, of the oracle's energies;
    - ``slopes``: their exact tau derivatives -4 a gamma, -4 b gamma,
      2 gamma (a + b) and -2 gamma (a + b), as a' = b' = -2 gamma and
      gamma' = a + b: the terms of the oracle's power;
    - ``deviation``: max |U U^dagger - I| at every tau, from the factors:
      J^2 = I, JK = KJ and K^2 = 2I + 2J give
      U U^dagger - I = (a^2 + b^2 + 2 gamma^2 - 1) I + (2ab + 2 gamma^2) J;
    - ``unitaries``: the charging unitaries, for the states ``verify`` forms.
    """

    def __init__(self, taus):
        self.scalar = np.ndim(taus) == 0
        self.taus = np.array(taus, dtype=float, ndmin=1)
        if not self.taus.size:
            raise ValueError("tau grid is empty")
        if not np.isfinite(self.taus).all():
            raise ValueError("taus must be finite")
        self.taus.flags.writeable = False

    def __getattr__(self, name: str):
        if name in FACTORS:
            value = per_tau(FACTORS[name], self.taus)
        elif name == "factors":
            value = _charging_factors(self.taus)
        elif name == "cos_sq":
            value = self.factors[0]
        elif name == "sin_sq":
            value = -self.factors[1]
        elif name == "quadratics":
            a, b, g = self.factors[:3]
            value = np.array([a * a, b * b, g * g, a * b, a * g, b * g])
        elif name == "slopes":
            a, b, g = self.factors[:3]
            (ag, bg), gs = self.quadratics[4:], g * (a + b)
            value = np.array([-4.0 * ag, -4.0 * bg, 2.0 * gs, -2.0 * gs])
        elif name == "deviation":  # a NaN factor gives a NaN deviation
            aa, bb, gg, ab = self.quadratics[:4]
            value = np.maximum(np.abs(aa + bb + 2.0 * gg - 1.0), np.abs(2.0 * ab + 2.0 * gg))
        elif name == "unitaries":
            value = _unitary_stack(self.factors)
        else:
            raise AttributeError(name)
        value.flags.writeable = False
        setattr(self, name, value)
        return value

    def expansion(self, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
        """``quadratics`` and ``slopes``, once the deviation of each tau's U
        from unitarity is checked (``NotUnitaryError``)."""
        _require_unitary(self.deviation, tol)
        return self.quadratics, self.slopes

    def evolve(self, state: np.ndarray, tol: Tolerances) -> np.ndarray:
        """:func:`evolve` of ``state`` by the unitaries at every tau."""
        return _conjugate(state, self.unitaries, self.deviation, tol)


def as_grid(tau) -> TauGrid:
    """``tau`` if it is a :class:`TauGrid`, else a one-off grid of its taus."""
    return tau if isinstance(tau, TauGrid) else TauGrid(tau)


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
    return _unitary_stack(_charging_factors(taus))


def _charging_factors(taus) -> np.ndarray:
    """Rows a = cos^2 tau, b = -sin^2 tau, gamma = sin tau cos tau, sin tau and
    cos tau at every tau, from one ``math.sin`` and one ``math.cos`` each (the
    squares are float ``** 2``, libm ``pow``, as in :func:`per_tau`).

    The charging unitary is U = a I + b J - i gamma K, with J = X(x)X, the
    anti-diagonal, and K = X(x)I + I(x)X, the pattern of its entries c.
    """
    sin, cos = per_tau(math.sin, taus), per_tau(math.cos, taus)
    cos_sq, sin_sq = (per_tau(lambda x: x ** 2, x) for x in (cos, sin))
    return np.array([cos_sq, -sin_sq, sin * cos, sin, cos])


def _unitary_stack(factors: np.ndarray) -> np.ndarray:
    """The ``(N, 4, 4)`` unitaries a I + b J + c K of :func:`_charging_factors`
    rows, with c = -i gamma formed as (-i sin) cos."""
    a, b, _, sin, cos = factors
    c = -1j * sin * cos
    return _matrix_stack([[a, c, c, b], [c, a, b, c], [c, b, a, c], [b, c, c, a]])


# rho[i^s, j^t] at [s, t, 4i + j]: the permutation i -> i^s flips the qubits
# whose bits s sets, so I, J and K are the permutations 0, 3 and 1 + 2
_ROWS = np.array([[[k // 4 ^ s for k in range(16)]] for s in range(4)])
_COLS = np.array([[k % 4 ^ t for k in range(16)] for t in range(4)])


def _state_forms(rhos: np.ndarray) -> np.ndarray:
    """Each set's state form C, ``(n, 6, 16)``: U rho U^dagger at [4i + j] is
    C1 a^2 + C2 b^2 + C3 g^2 + C4 ab + i (C5 a g + C6 b g), the rows of
    ``TauGrid.quadratics``, with C1..C6 = rho, J rho J, K rho K, J rho + rho J,
    rho K - K rho and J rho K - K rho J, each T[s, t] = rho[i^s, j^t] summed
    in a fixed order. ``rhos`` are real: the closed Gibbs state, or, as H has
    only Z and X Pauli terms, its numeric Gibbs states (complex dtype; the
    zero imaginary parts are not read)."""
    t = rhos.real[:, _ROWS, _COLS]
    return np.stack([t[:, 0, 0], t[:, 3, 3], (t[:, 1, 1] + t[:, 1, 2]) + (t[:, 2, 1] + t[:, 2, 2]),
                     t[:, 0, 3] + t[:, 3, 0], (t[:, 0, 1] + t[:, 0, 2]) - (t[:, 1, 0] + t[:, 2, 0]),
                     (t[:, 3, 1] + t[:, 3, 2]) - (t[:, 1, 3] + t[:, 2, 3])], axis=1)


def _combine(coefficients, rows) -> np.ndarray:
    """c[0] r[0] + c[1] r[1] + ... elementwise in that order: no kernel's order sets its bits."""
    total = coefficients[0] * rows[0]
    for i in range(1, len(coefficients)):
        total += coefficients[i] * rows[i]
    return total


def _energy_forms(states: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Each set's energy form (k1, ..., k4, s): for U = a I + b J - i g K,
    tr(U rho U^dagger H) = s (k1 a^2 + k2 b^2 + k3 g^2 + k4 ab).

    k_m is the :func:`_state_forms` C_m of ``states`` contracted with the
    real H^T / s of ``hs`` over the 16 entries in a fixed order; C5 and C6 are
    antisymmetric and H symmetric, so the a g and b g terms vanish. s is the
    largest power of two not above max |H_ij| (1/2 for H = 0), an exact
    scale that keeps every sum finite where H is."""
    hs = hs.real
    scale = np.ldexp(1.0, np.frexp(np.abs(hs).max(axis=(-2, -1)))[1] - 1)
    # H[j, i] / s at [4i + j]
    h = hs.swapaxes(-1, -2).reshape(-1, 1, 16) / scale[:, None, None]
    k = _combine(np.moveaxis(states[:, :4], -1, 0), np.moveaxis(h, -1, 0))
    return np.concatenate([k, scale[:, None]], axis=-1)


def _evolved_energies(q: np.ndarray, form: np.ndarray, passive: float) -> np.ndarray:
    """s (k1 q1 + k2 q2 + k3 q3 + k4 q4) - ``passive`` at every tau of ``q``,
    either array of :meth:`TauGrid.expansion`, from one set's ``form``: real
    products summed in a fixed order, so each tau's value is its own. Of the
    quadratics these are tr(U rho U^dagger H) - ``passive``, with rho's
    passive energy the evolved ergotropies, as U keeps rho's spectrum; of
    the slopes, with ``passive`` 0, their exact tau derivative, the power."""
    energies = _combine(form[:4], q)
    energies -= passive / form[4]
    energies *= form[4]
    return energies


def _evolved_parts(q: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of entries of U rho U^dagger at every tau of the quadratics
    ``q``, each ``(entries, taus)``, from those entries' columns ``state`` of
    one set's :func:`_state_forms`: real products summed in a fixed order."""
    c = state[:, :, None]
    return _combine(c[:4], q[:4, None]), _combine(c[4:], q[4:, None])


def _evolved_coherence(q: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The l1 coherence of U rho U^dagger at every tau of the quadratics ``q``
    from one set's :func:`_state_forms` ``state``: the Hermitian state's
    entries above the diagonal, each |Re + i Im| twice, summed in a fixed order."""
    magnitudes = np.hypot(*_evolved_parts(q, state[:, [1, 2, 3, 6, 7, 11]]))  # [4i + j], i < j
    return _combine([2.0] * 6, magnitudes)


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


def _require_unitary(dev, tol: Tolerances) -> None:
    """Raise ``NotUnitaryError`` at the first deviation from unitarity above
    ``tol.unitary``; not "any(dev > tol)", as a NaN deviation must fail too."""
    if not np.all(dev <= tol.unitary):
        i = int(np.argmax(dev))
        which = f"matrix {i} of the stack" if dev.ndim else "matrix"
        raise NotUnitaryError(
            f"{which} deviates from unitarity by {float(dev.flat[i]):.3e} "
            f"(tolerance {tol.unitary:.1e})"
        )


def _conjugate(state, u, dev, tol: Tolerances) -> np.ndarray:
    _require_unitary(dev, tol)
    state = np.asarray(state)
    if state.ndim == 2:
        # u state as one product over the stacked rows of u, which gives each
        # matrix its bits alone; MAX_STACK matrices at a time, as a threaded
        # BLAS runs a much longer product many times slower
        rows, step = u.reshape(-1, u.shape[-1]), MAX_STACK * u.shape[-1]
        left = np.empty(rows.shape, np.result_type(rows, state))
        for i in range(0, len(rows), step):
            np.matmul(rows[i:i + step], state, out=left[i:i + step])
        left = left.reshape(u.shape)
    else:
        left = u @ state
    return left @ u.conj().swapaxes(-1, -2)


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
    grid = as_grid(tau)
    states = _evolved_states(p, thermal_terms(p, tol), grid, mode)
    return states[0] if grid.scalar else states


def _evolved_states(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str) -> np.ndarray:
    """The closed-form states of ``mode`` over ``g``, from the thermal terms ``t``
    of ``p``: corrected ones are the state form of the closed Gibbs state, their
    real and imaginary parts written into one complex stack; verbatim ones are
    real and symmetric, with r44 = r11."""
    if mode == "corrected":
        re, im = _evolved_parts(g.quadratics, _thermal_form(p, t))
        states = np.empty((len(g.taus), 16), dtype=complex)
        states.real, states.imag = re.T, im.T
        return states.reshape(-1, 4, 4)
    r11, r12, r13, r14, r22, r23, r24, r33, r34 = _evolved_verbatim(p, t, g)
    return _matrix_stack([[r11, r12, r13, r14], [r12, r22, r23, r24],
                          [r13, r23, r33, r34], [r14, r24, r34, r11]])


def _thermal_form(p: BatteryParams, t: ThermalTerms) -> np.ndarray:
    """The :func:`_state_forms` of the closed Gibbs state of ``p``, from its thermal terms ``t``."""
    return _state_forms(_thermal_state(p, t)[None])[0]


def _closed_coherence(p: BatteryParams, t: ThermalTerms, g: TauGrid, mode: str) -> np.ndarray:
    """The l1 coherence of the closed-form states of ``mode``. Corrected, it is
    :func:`_evolved_coherence` of the closed Gibbs state's state form.
    Verbatim, it comes from the distinct real off-diagonal entries rather than
    a stack: the sum of the 16 magnitudes (zeros on the diagonal) keeps numpy's
    pairwise order for 16 contiguous terms, r[j] = m[j] + m[j + 8], then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)); so the bits match
    those of the stack's."""
    if mode == "corrected":
        return _evolved_coherence(g.quadratics, _thermal_form(p, t))
    _, r12, r13, r14, _, r23, r24, _, r34 = _evolved_verbatim(p, t, g)
    a12, a13, a14, a23, a24, a34 = map(np.abs, (r12, r13, r14, r23, r24, r34))
    return ((a13 + (a12 + a23)) + (a13 + (a14 + a34))) + (((a12 + a14) + a24) + ((a23 + a34) + a24))


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
