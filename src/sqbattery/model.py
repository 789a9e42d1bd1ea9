"""Battery Hamiltonians and the thermal (Gibbs) initial state.

Energies are dimensionless (k_B = hbar = 1). The computational basis is
ordered |00>, |01>, |10>, |11> so that matrix indices line up with the
closed-form element expressions.

Every thermal quantity exists twice: a numeric route through the eigensolver
and a closed-form route through :class:`ThermalTerms`. The two are
cross-checked against each other by the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterOverflowError
from .linalg import SpectralDecomposition, hermitian_eigendecomposition
from .tolerances import Tolerances, resolve

__all__ = [
    "BatteryParams",
    "ThermalTerms",
    "PAULI_X",
    "PAULI_Z",
    "IDENTITY_2",
    "build_full_hamiltonian",
    "gibbs_state_closed_form",
    "gibbs_state_numeric",
    "thermal_terms",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# the two-qubit operators of build_full_hamiltonian
_SZ1 = np.kron(PAULI_Z, IDENTITY_2)
_SZ2 = np.kron(IDENTITY_2, PAULI_Z)
_SX1 = np.kron(PAULI_X, IDENTITY_2)
_SX2 = np.kron(IDENTITY_2, PAULI_X)
_SZZ = np.kron(PAULI_Z, PAULI_Z)

_TINY = 2.0**-1022  # the smallest normal float


@dataclass(frozen=True)
class BatteryParams:
    """Physical knobs of the two-qubit battery.

    ``xi1``/``xi2`` are the Josephson energies, ``xic`` the mutual coupling,
    ``xic1``/``xic2`` the charging energies (felt only away from the
    degeneracy point), ``ng1``/``ng2`` the normalized gate charges and
    ``temperature`` the reservoir temperature, all in the same energy units.
    """

    xi1: float
    xi2: float
    xic: float
    temperature: float
    xic1: float = 0.0
    xic2: float = 0.0
    ng1: float = 0.5
    ng2: float = 0.5

    def __post_init__(self):
        values = [
            self.xi1, self.xi2, self.xic, self.temperature,
            self.xic1, self.xic2, self.ng1, self.ng2,
        ]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("battery parameters must be finite")
        if self.xi1 < 0 or self.xi2 < 0:
            raise ValueError("Josephson energies xi1, xi2 must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not (0.0 <= self.ng1 <= 1.0 and 0.0 <= self.ng2 <= 1.0):
            raise ValueError("gate charges must lie in [0, 1]")

    @property
    def at_degeneracy(self) -> bool:
        return self.ng1 == 0.5 and self.ng2 == 0.5


def _require_degeneracy(p: BatteryParams) -> None:
    if not p.at_degeneracy:
        raise ValueError(
            "closed-form expressions are valid only at the degeneracy point "
            "(ng1 = ng2 = 1/2); use the numeric route for other gate charges"
        )


def build_full_hamiltonian(p: BatteryParams) -> np.ndarray:
    """General two-qubit Hamiltonian including gate-charge terms.

    At ng1 = ng2 = 1/2 its diagonal is (xic, -xic, -xic, xic); -xi2/2
    couples states differing in the second qubit, -xi1/2 those differing in
    the first.
    """
    # offset first: each term is exactly 0 at degeneracy, even where 2 xic1 overflows;
    # the factor -1/2 folded in, as 2 xic can overflow where H is finite; times -1.0,
    # a complex product: a negation would flip the signed zeros of the imaginary parts
    z1 = 2.0 * (p.xic1 * (0.5 - p.ng1)) + p.xic * (0.5 - p.ng2)
    z2 = 2.0 * (p.xic2 * (0.5 - p.ng2)) + p.xic * (0.5 - p.ng1)
    return -1.0 * (
        z1 * _SZ1 + z2 * _SZ2 + (0.5 * p.xi1) * _SX1 + (0.5 * p.xi2) * _SX2 - p.xic * _SZZ
    )


@dataclass(frozen=True)
class ThermalTerms:
    """Hyperbolic building blocks of the thermal closed forms.

    ``alpha_plus``/``alpha_minus`` are the two excitation gaps
    sqrt(4 xic^2 + (xi1 +/- xi2)^2). With A and B the cosh and sinh of
    gap/(2T), every other field is a ratio to d = A+ + A- (the partition
    function is 2 d), computed through an exponent shift so that it stays
    finite where A and B overflow float64:
      ra_plus/ra_minus: A/d,  rb_plus/rb_minus: B/d,
      rs_plus/rs_minus: (B/alpha)/d with the alpha -> 0 limit built in.
    """

    alpha_plus: float
    alpha_minus: float
    ra_plus: float
    ra_minus: float
    rb_plus: float
    rb_minus: float
    rs_plus: float
    rs_minus: float


def thermal_terms(p: BatteryParams, tol: Tolerances | None = None) -> ThermalTerms:
    """Evaluate the thermal closed-form terms, overflow-safely.

    Raises ``ParameterOverflowError`` when gap/(2T) is not representable at
    all (e.g. Josephson energies near 1e200), when a term is not finite, or
    when the energy scale max(xi1, xi2, 2|xic|), or xic, is too small for its
    square to stay a normal float while T's square is not one either: the
    gaps and xic^2 then lose their digits, and through 1/T the results do
    too. Such regimes are unusable even for the shifted evaluation.
    """
    tol = resolve(tol)
    _require_degeneracy(p)
    x1, x2, xc, temp = p.xi1, p.xi2, p.xic, p.temperature
    scale = max(x1, x2, 2 * abs(xc))
    if temp * temp < _TINY and any(v * v < _TINY for v in (scale, xc) if v):
        raise ParameterOverflowError(
            f"energy scale {scale:g} and temperature {temp:g} are too small to square"
        )
    # plain multiplications overflow to inf instead of raising, so the
    # dedicated errors here are the single overflow surface
    s_plus = x1 + x2
    s_minus = x1 - x2
    alpha_plus = math.sqrt(4 * xc * xc + s_plus * s_plus)
    alpha_minus = math.sqrt(4 * xc * xc + s_minus * s_minus)
    xp = alpha_plus / (2 * temp)
    xm = alpha_minus / (2 * temp)
    if not (math.isfinite(xp) and math.isfinite(xm)):
        raise ParameterOverflowError(
            f"hyperbolic argument alpha/(2T) is not finite (got {xp}, {xm})"
        )

    shift = max(xp, xm) if max(xp, xm) > tol.exponent_bound else 0.0
    # shifted (by xp >= xm), xm - shift is taken from alpha+ - alpha- =
    # 4 xi1 xi2 / (alpha+ + alpha-), not as a difference of two numbers near alpha/2T
    xm_s = -(2.0 * x1 * x2 / (alpha_plus + alpha_minus)) / temp if shift else xm
    # scaled cosh/sinh: all exponents are <= 0 after shifting
    a_plus_s = 0.5 * (math.exp(xp - shift) + math.exp(-xp - shift))
    a_minus_s = 0.5 * (math.exp(xm_s) + math.exp(-xm - shift))
    b_plus_s = 0.5 * (math.exp(xp - shift) - math.exp(-xp - shift))
    b_minus_s = 0.5 * (math.exp(xm_s) - math.exp(-xm - shift))
    d_s = a_plus_s + a_minus_s

    # sinh(x)/alpha has the finite limit 1/(2T) as alpha -> 0
    if alpha_plus > 0.0:
        rs_plus = b_plus_s / (alpha_plus * d_s)
    else:
        rs_plus = math.exp(-shift) / (2 * temp * d_s)
    if alpha_minus > 0.0:
        rs_minus = b_minus_s / (alpha_minus * d_s)
    else:
        rs_minus = math.exp(-shift) / (2 * temp * d_s)

    terms = (alpha_plus, alpha_minus, a_plus_s / d_s, a_minus_s / d_s,
             b_plus_s / d_s, b_minus_s / d_s, rs_plus, rs_minus)
    if not all(map(math.isfinite, terms)):
        # e.g. sinh(x)/alpha -> 1/(2T) at a subnormal T
        raise ParameterOverflowError(f"thermal terms are not finite (got {terms})")
    return ThermalTerms(*terms)


def thermal_entries(p: BatteryParams, t: ThermalTerms):
    """The six independent entries of the thermal state, from its terms ``t``.

    Returns (p11, p12, p13, p14, p22, p23); the remaining entries follow
    from the symmetries p44=p11, p33=p22, p34=p12, p24=p13 and realness.
    """
    x1, x2, xc = p.xi1, p.xi2, p.xic
    p11 = (1.0 - 2 * xc * (t.rs_minus + t.rs_plus)) / 4.0
    p12 = ((x2 - x1) * t.rs_minus + (x1 + x2) * t.rs_plus) / 4.0
    p13 = ((x1 - x2) * t.rs_minus + (x1 + x2) * t.rs_plus) / 4.0
    p14 = (-t.ra_minus + t.ra_plus + 2 * xc * (t.rs_minus - t.rs_plus)) / 4.0
    p22 = (1.0 + 2 * xc * (t.rs_minus + t.rs_plus)) / 4.0
    p23 = (-t.ra_minus + t.ra_plus - 2 * xc * (t.rs_minus - t.rs_plus)) / 4.0
    return p11, p12, p13, p14, p22, p23


def _thermal_state(p: BatteryParams, t: ThermalTerms) -> np.ndarray:
    """The real 4x4 thermal state of :func:`thermal_entries`, with their symmetries."""
    p11, p12, p13, p14, p22, p23 = thermal_entries(p, t)
    return np.array([[p11, p12, p13, p14],
                     [p12, p22, p23, p13],
                     [p13, p23, p22, p12],
                     [p14, p13, p12, p11]])


def gibbs_state_closed_form(p: BatteryParams, tol: Tolerances | None = None) -> np.ndarray:
    """Thermal state exp(-H/T)/Z assembled from the closed-form entries."""
    return _thermal_state(p, thermal_terms(p, tol)).astype(complex)


def gibbs_state_numeric(
    h: np.ndarray, temperature, tol: Tolerances | None = None
) -> np.ndarray:
    """Thermal state exp(-H/T)/Z via the eigensolver.

    ``h`` may be a stack ``(N, n, n)``, with one temperature or one per
    matrix; all of them are decomposed in one call. Weights are computed as
    exp(-(e - e_min)/T) and normalized by their sum, which keeps the
    evaluation finite at any temperature > 0; at subnormal T the gaps over T
    overflow to inf, whose weight 0 is the ground-state limit.
    """
    if np.any(np.asarray(temperature, dtype=float) <= 0):
        raise ValueError("temperature must be positive")
    return _gibbs_state(hermitian_eigendecomposition(h, tol), temperature)[0]


def _gibbs_state(dec: SpectralDecomposition, temperature) -> tuple[np.ndarray, np.ndarray]:
    """The Gibbs state of the matrix or stack that ``dec`` decomposes, at the
    positive ``temperature`` (one, or one per matrix), and its passive energy
    sum_k w_k e_k: its weights w_k are its spectrum, non-increasing over the
    ascending eigenvalues e_k, so no state with that spectrum has less energy."""
    e = dec.eigenvalues
    with np.errstate(over="ignore"):
        scaled = (e - e[..., :1]) / np.asarray(temperature, dtype=float)[..., None]
    w = np.exp(-scaled)
    w /= w.sum(axis=-1, keepdims=True)
    v = dec.eigenvectors
    rho = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0, (w * e).sum(axis=-1)
