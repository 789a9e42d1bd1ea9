"""Central tolerance configuration.

Every numerical threshold used by the library lives here so that no module
hard-codes its own literals. Operations accept an optional ``Tolerances``
instance and fall back to ``DEFAULT`` when given ``None``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

# the largest fd_step of verify's central difference: it reads sin(4h)/(4h) of the
# derivative of sin 4 tau, the fastest harmonic, 2.7e-4 short at h = 1e-2
MAX_FD_STEP = 1e-2


@dataclass(frozen=True)
class Tolerances:
    # matrix predicates
    hermitian: float = 1e-10        # max |m - m†| allowed for Hermitian inputs
    unitary: float = 1e-8           # max |u u† - I| allowed by evolve()
    # eigensolver (parallel-order Jacobi)
    jacobi_offdiag: float = 1e-13   # off-diagonal Frobenius target, relative to norm
    jacobi_max_sweeps: int = 100
    # cross-check suites (closed form vs numeric oracle)
    gibbs_equivalence: float = 1e-10
    evolved_equivalence: float = 1e-9
    ergotropy_equivalence: float = 1e-9
    power_equivalence: float = 1e-5
    capacity_equivalence: float = 1e-10
    fd_step: float = 1e-4           # verify's central-difference step for power, <= MAX_FD_STEP
    # hyperbolic terms switch to exponent-shifted evaluation past this bound
    exponent_bound: float = 700.0

    def __post_init__(self):
        # else a zero step or threshold, NaN or a string fails downstream, as a
        # NaN column or a traceback; a sweep budget may be 0
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                kind, ok = "an integer >= 0", isinstance(value, int) and value >= 0
            else:  # an int too large for a float is refused too
                top = MAX_FD_STEP if field.name == "fd_step" else sys.float_info.max
                kind = "a finite number > 0" + (f" and <= {top:g}" if top == MAX_FD_STEP else "")
                ok = isinstance(value, (int, float)) and 0 < value <= top
            if isinstance(value, bool) or not ok:
                raise ValueError(f"tolerance {field.name} must be {kind}, got {value!r}")

    def replace(self, **changes) -> "Tolerances":
        return dataclasses.replace(self, **changes)


DEFAULT = Tolerances()

ENV_VAR = "SQBATTERY_TOLERANCES"


def resolve(tol: Tolerances | None) -> Tolerances:
    return DEFAULT if tol is None else tol


def from_env(environ=None) -> Tolerances:
    """Build tolerances from the ``SQBATTERY_TOLERANCES`` environment variable.

    The variable, when set, must hold a JSON object whose keys are field
    names of :class:`Tolerances`; unknown keys are rejected. Absent or empty,
    the defaults are returned unchanged.
    """
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_VAR, "").strip()
    if not raw:
        return DEFAULT
    try:
        overrides = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_VAR} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValueError(f"{ENV_VAR} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(Tolerances)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"{ENV_VAR} has unknown keys: {sorted(unknown)}")
    return DEFAULT.replace(**overrides)
