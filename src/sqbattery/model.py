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
from .linalg import hermitian_eigendecomposition
from .tolerances import Tolerances, resolve

__all__ = [
    "BatteryParams",
    "ThermalTerms",
    "PAULI_X",
    "PAULI_Z",
    "IDENTITY_2",
    "build_charging_hamiltonian",
    "build_degenerate_hamiltonian",
    "build_full_hamiltonian",
    "check_density_matrix",
    "gibbs_state_closed_form",
    "gibbs_state_numeric",
    "thermal_terms",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


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

    @classmethod
    def degenerate(cls, xi1: float, xi2: float, xic: float, temperature: float) -> "BatteryParams":
        """Parameters pinned to the charge degeneracy point ng1 = ng2 = 1/2."""
        return cls(xi1=xi1, xi2=xi2, xic=xic, temperature=temperature)

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

    Reduces to :func:`build_degenerate_hamiltonian` when ng1 = ng2 = 1/2.
    """
    z1 = 4.0 * p.xic1 * (0.5 - p.ng1) + 2.0 * p.xic * (0.5 - p.ng2)
    z2 = 4.0 * p.xic2 * (0.5 - p.ng2) + 2.0 * p.xic * (0.5 - p.ng1)
    sz1 = np.kron(PAULI_Z, IDENTITY_2)
    sz2 = np.kron(IDENTITY_2, PAULI_Z)
    sx1 = np.kron(PAULI_X, IDENTITY_2)
    sx2 = np.kron(IDENTITY_2, PAULI_X)
    szz = np.kron(PAULI_Z, PAULI_Z)
    return -0.5 * (
        z1 * sz1 + z2 * sz2 + p.xi1 * sx1 + p.xi2 * sx2 - 2.0 * p.xic * szz
    )


def build_degenerate_hamiltonian(p: BatteryParams) -> np.ndarray:
    """Degeneracy-point Hamiltonian assembled entrywise.

    Diagonal (xic, -xic, -xic, xic); -xi2/2 couples states differing in the
    second qubit, -xi1/2 those differing in the first.
    """
    x1, x2, xc = p.xi1, p.xi2, p.xic
    return 0.5 * np.array(
        [
            [2 * xc, -x2, -x1, 0],
            [-x2, -2 * xc, 0, -x1],
            [-x1, 0, -2 * xc, -x2],
            [0, -x1, -x2, 2 * xc],
        ],
        dtype=complex,
    )


def build_charging_hamiltonian(omega: float) -> np.ndarray:
    """Collective x-drive omega * (X (x) I + I (x) X)."""
    return omega * (np.kron(PAULI_X, IDENTITY_2) + np.kron(IDENTITY_2, PAULI_X))


@dataclass(frozen=True)
class ThermalTerms:
    """Hyperbolic building blocks of the thermal closed forms.

    ``alpha_plus``/``alpha_minus`` are the two excitation gaps
    sqrt(4 xic^2 + (xi1 +/- xi2)^2); ``a_*`` and ``b_*`` are cosh/sinh of
    gap/(2T) and ``z = 2 (a_plus + a_minus)`` is the partition function.

    Raw values overflow float64 once gap/(2T) exceeds ~700 and are then
    stored as ``inf``; the ``r*`` ratio fields are computed through an
    exponent shift and stay finite in every usable regime, so all downstream
    closed forms consume only ratios.

    Ratios (all normalized by d = a_plus + a_minus):
      ra_plus/ra_minus: A/d,  rb_plus/rb_minus: B/d,
      rs_plus/rs_minus: (B/alpha)/d with the alpha -> 0 limit built in.
    """

    alpha_plus: float
    alpha_minus: float
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float
    z: float
    ra_plus: float
    ra_minus: float
    rb_plus: float
    rb_minus: float
    rs_plus: float
    rs_minus: float


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def thermal_terms(p: BatteryParams, tol: Tolerances | None = None) -> ThermalTerms:
    """Evaluate the thermal closed-form terms, overflow-safely.

    Raises ``ParameterOverflowError`` when gap/(2T) is not representable at
    all (e.g. Josephson energies near 1e200), which marks the parameter
    regime as unusable even for the shifted evaluation.
    """
    tol = resolve(tol)
    _require_degeneracy(p)
    x1, x2, xc, temp = p.xi1, p.xi2, p.xic, p.temperature
    # plain multiplications overflow to inf instead of raising, so the
    # dedicated error below is the single overflow surface
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
    # scaled cosh/sinh: all exponents are <= 0 after shifting
    a_plus_s = 0.5 * (math.exp(xp - shift) + math.exp(-xp - shift))
    a_minus_s = 0.5 * (math.exp(xm - shift) + math.exp(-xm - shift))
    b_plus_s = 0.5 * (math.exp(xp - shift) - math.exp(-xp - shift))
    b_minus_s = 0.5 * (math.exp(xm - shift) - math.exp(-xm - shift))
    d_s = a_plus_s + a_minus_s

    scale = _exp_or_inf(shift)
    a_plus = a_plus_s * scale
    a_minus = a_minus_s * scale
    b_plus = b_plus_s * scale
    b_minus = b_minus_s * scale
    z = 2.0 * (a_plus_s + a_minus_s) * scale

    # sinh(x)/alpha has the finite limit 1/(2T) as alpha -> 0
    if alpha_plus > 0.0:
        rs_plus = b_plus_s / (alpha_plus * d_s)
    else:
        rs_plus = math.exp(-shift) / (2 * temp * d_s)
    if alpha_minus > 0.0:
        rs_minus = b_minus_s / (alpha_minus * d_s)
    else:
        rs_minus = math.exp(-shift) / (2 * temp * d_s)

    return ThermalTerms(
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        a_plus=a_plus,
        a_minus=a_minus,
        b_plus=b_plus,
        b_minus=b_minus,
        z=z,
        ra_plus=a_plus_s / d_s,
        ra_minus=a_minus_s / d_s,
        rb_plus=b_plus_s / d_s,
        rb_minus=b_minus_s / d_s,
        rs_plus=rs_plus,
        rs_minus=rs_minus,
    )


def thermal_entries(p: BatteryParams, tol: Tolerances | None = None):
    """The six independent entries of the thermal state in closed form.

    Returns (p11, p12, p13, p14, p22, p23); the remaining entries follow
    from the symmetries p44=p11, p33=p22, p34=p12, p24=p13 and realness.
    """
    t = thermal_terms(p, tol)
    x1, x2, xc = p.xi1, p.xi2, p.xic
    p11 = (1.0 - 2 * xc * (t.rs_minus + t.rs_plus)) / 4.0
    p12 = ((x2 - x1) * t.rs_minus + (x1 + x2) * t.rs_plus) / 4.0
    p13 = ((x1 - x2) * t.rs_minus + (x1 + x2) * t.rs_plus) / 4.0
    p14 = (-t.ra_minus + t.ra_plus + 2 * xc * (t.rs_minus - t.rs_plus)) / 4.0
    p22 = (1.0 + 2 * xc * (t.rs_minus + t.rs_plus)) / 4.0
    p23 = (-t.ra_minus + t.ra_plus - 2 * xc * (t.rs_minus - t.rs_plus)) / 4.0
    return p11, p12, p13, p14, p22, p23


def gibbs_state_closed_form(p: BatteryParams, tol: Tolerances | None = None) -> np.ndarray:
    """Thermal state exp(-H/T)/Z assembled from the closed-form entries."""
    p11, p12, p13, p14, p22, p23 = thermal_entries(p, tol)
    return np.array(
        [
            [p11, p12, p13, p14],
            [p12, p22, p23, p13],
            [p13, p23, p22, p12],
            [p14, p13, p12, p11],
        ],
        dtype=complex,
    )


def gibbs_state_numeric(
    h: np.ndarray, temperature, tol: Tolerances | None = None
) -> np.ndarray:
    """Thermal state exp(-H/T)/Z via the eigensolver.

    ``h`` may be a stack ``(N, n, n)``, with one temperature or one per
    matrix; all of them are decomposed in one call. Weights are computed as
    exp(-(e - e_min)/T) and normalized by their sum, which keeps the
    evaluation finite at any temperature > 0.
    """
    temperature = np.asarray(temperature, dtype=float)
    if np.any(temperature <= 0):
        raise ValueError("temperature must be positive")
    dec = hermitian_eigendecomposition(h, tol)
    e = dec.eigenvalues
    w = np.exp(-(e - e[..., :1]) / temperature[..., None])
    w /= w.sum(axis=-1, keepdims=True)
    v = dec.eigenvectors
    rho = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def check_density_matrix(
    m: np.ndarray, tol: Tolerances | None = None
) -> None:
    """Raise ValueError unless m is Hermitian, unit-trace and PSD within slack."""
    tol = resolve(tol)
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol.density:
        raise ValueError(f"state deviates from Hermitian by {dev:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol.density:
        raise ValueError(f"state trace {tr} is not 1 within {tol.density:.1e}")
    eigenvalues = hermitian_eigendecomposition(m, tol).eigenvalues
    if eigenvalues[0] < -tol.density:
        raise ValueError(f"state has negative eigenvalue {eigenvalues[0]:.3e}")
