"""Two-qubit superconducting quantum battery simulator.

Thermal-state preparation, collective X-drive charging, and the battery
figure-of-merit suite (ergotropy, instantaneous power, capacity, l1-norm
coherence), each with a closed-form route cross-validated against an
independent numeric route.
"""

from .__about__ import VERSION as __version__
from .dynamics import charging_unitaries, charging_unitary, evolve, evolved_state_closed_form
from .exceptions import (
    EigenConvergenceError,
    NotHermitianError,
    NotUnitaryError,
    ParameterOverflowError,
    UnknownPresetError,
)
from .linalg import SpectralDecomposition, hermitian_eigendecomposition
from .metrics import (
    CurveColumns,
    capacity_closed_form,
    capacity_definitional,
    compute_curve,
    compute_sample,
    ergotropy,
    ergotropy_closed_form,
    ergotropy_vs_reference,
    l1_coherence,
    power_closed_form,
    power_fd,
)
from .model import (
    BatteryParams,
    ThermalTerms,
    build_full_hamiltonian,
    gibbs_state_closed_form,
    gibbs_state_numeric,
    thermal_terms,
)
from .sweep import Curve, CurveSummary, SweepConfig, SweepResult, figure_preset, run_sweep
from .tolerances import DEFAULT as DEFAULT_TOLERANCES
from .tolerances import Tolerances
from .verify import run_verification

__all__ = [
    "BatteryParams",
    "Curve",
    "CurveColumns",
    "CurveSummary",
    "DEFAULT_TOLERANCES",
    "EigenConvergenceError",
    "NotHermitianError",
    "NotUnitaryError",
    "ParameterOverflowError",
    "SpectralDecomposition",
    "SweepConfig",
    "SweepResult",
    "ThermalTerms",
    "Tolerances",
    "UnknownPresetError",
    "__version__",
    "build_full_hamiltonian",
    "capacity_closed_form",
    "capacity_definitional",
    "charging_unitaries",
    "charging_unitary",
    "compute_curve",
    "compute_sample",
    "ergotropy",
    "ergotropy_closed_form",
    "ergotropy_vs_reference",
    "evolve",
    "evolved_state_closed_form",
    "figure_preset",
    "gibbs_state_closed_form",
    "gibbs_state_numeric",
    "hermitian_eigendecomposition",
    "l1_coherence",
    "power_closed_form",
    "power_fd",
    "run_sweep",
    "run_verification",
    "thermal_terms",
]
