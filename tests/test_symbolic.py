"""The corrected closed forms, checked symbolically.

The library's own expressions are evaluated on sympy symbols, with
c = cos(tau) and s = sin(tau) taken as polynomial symbols: every identity
below is a polynomial identity once s**2 is reduced to 1 - c**2, which is
far quicker than trigonometric simplification.
"""

from types import SimpleNamespace

import numpy as np
import sympy as sp

from sqbattery import dynamics, metrics
from sqbattery.model import BatteryParams, build_full_hamiltonian, thermal_entries

c, s = sp.symbols("c s", real=True)
P11, P12, P13, P14, P22, P23 = ENTRIES = sp.symbols("p11 p12 p13 p14 p22 p23", real=True)
XI1, XI2, XIC = sp.symbols("xi1 xi2 xic", real=True)
TERMS = SimpleNamespace(**{name: sp.Symbol(name, real=True) for name in (
    "alpha_plus", "alpha_minus", "ra_plus", "ra_minus", "rb_plus", "rb_minus",
    "rs_plus", "rs_minus")})
PARAMS = SimpleNamespace(xi1=XI1, xi2=XI2, xic=XIC)

# the TauGrid factors the corrected forms read, as polynomials in c and s
COS2, SIN2 = c**2 - s**2, 2 * s * c
GRID = SimpleNamespace(cos2=COS2, sin2=SIN2, cos4=2 * COS2**2 - 1, sin4=2 * SIN2 * COS2,
                       sin2_sq=SIN2**2)

# the real thermal state, with the symmetries p44 = p11, p33 = p22, p34 = p12, p24 = p13
RHO = sp.Matrix([[P11, P12, P13, P14],
                 [P12, P22, P23, P13],
                 [P13, P23, P22, P12],
                 [P14, P13, P12, P11]])
# U(tau) = R(tau) (x) R(tau), R(tau) = exp(-i tau X)
R = sp.Matrix([[c, -sp.I * s], [-sp.I * s, c]])
U = sp.kronecker_product(R, R)


def reduced(expr):
    """``expr`` with its floats made exact and s**2 reduced to 1 - c**2."""
    expr = sp.sympify(expr)
    expr = sp.expand(expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)}))
    return sp.expand(sp.rem(expr, s**2 + c**2 - 1, s))


def d_dtau(expr):
    """The tau derivative of a polynomial in c = cos(tau) and s = sin(tau)."""
    return c * sp.diff(expr, s) - s * sp.diff(expr, c)


def test_corrected_entries_are_the_evolved_state():
    # any real symmetric rho, not only a thermal one: the form behind the
    # corrected closed states and coherence and behind the oracle's
    upper = iter(sp.symbols("r0:10", real=True))
    rho = sp.zeros(4, 4)
    for i in range(4):
        for j in range(i, 4):
            rho[i, j] = rho[j, i] = next(upper)
    state = dynamics._state_forms(np.array(rho.tolist(), dtype=object)[None])[0]
    a, b, g = c**2, -s**2, s * c  # U = a I + b J - i g K
    q = np.array([[a * a], [b * b], [g * g], [a * b], [a * g], [b * g]], dtype=object)
    re, im = dynamics._evolved_parts(q, state)
    evolved = U * rho * U.H
    assert all(reduced(re[k, 0] + sp.I * im[k, 0] - evolved[k // 4, k % 4]) == 0
               for k in range(16))


def test_corrected_ergotropy_is_the_energy_the_unitary_adds():
    # the thermal state is passive, so the ergotropy of U rho U^dagger is
    # tr((U rho U^dagger - rho) H), H at the degeneracy point
    h = sum((value * sp.Matrix(build_full_hamiltonian(BatteryParams(*unit, temperature=1.0)).real)
             for value, unit in ((XI1, (1, 0, 0)), (XI2, (0, 1, 0)), (XIC, (0, 0, 1)))),
            sp.zeros(4, 4))
    gain = ((U * RHO * U.H - RHO) * h).trace()
    gap = (P11 + P14) - (P22 + P23)
    assert reduced(gain + 2 * XIC * gap * SIN2**2) == 0

    # the thermal entries turn it into the closed form 4 xic^2 rs_plus sin^2(2 tau)
    thermal = dict(zip(ENTRIES, thermal_entries(PARAMS, TERMS)))
    ergotropy = metrics._ergotropy_closed(PARAMS, TERMS, GRID, "corrected")
    assert reduced(-2 * XIC * gap.xreplace(thermal) * SIN2**2 - ergotropy) == 0
    assert reduced(4 * XIC**2 * TERMS.rs_plus * SIN2**2 - ergotropy) == 0
    # and the closed power is its tau derivative
    power = metrics._power_closed(PARAMS, TERMS, GRID, "corrected")
    assert reduced(d_dtau(ergotropy) - power) == 0
