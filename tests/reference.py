"""Independent references the tests compare the library against.

Each builds its result another way than the program does (a spectral
exponential, a rebuilt matrix, a passive state from sorted spectra, the
battery Hamiltonian entry by entry, the drive Hamiltonian from Kronecker
products, the random cloud from ``numpy.random``), checks a state's
invariants, reads a result cell by cell or as one string, or draws doubles
from random bits.
"""

import io
import random
import struct

import numpy as np

from sqbattery.linalg import SpectralDecomposition, hermitian_eigendecomposition
from sqbattery.model import IDENTITY_2, PAULI_X, BatteryParams
from sqbattery.tolerances import Tolerances


def is_unitary(m: np.ndarray, tol: float) -> bool:
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m @ m.conj().T - eye))) <= tol


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """Rebuild the matrix sum(e_i v_i v_i†) from a decomposition (or a stack)."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def unitary_from_hamiltonian(
    h: np.ndarray, t: float, tol: Tolerances | None = None
) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via the spectral decomposition."""
    dec = hermitian_eigendecomposition(h, tol)
    phases = np.exp(-1j * dec.eigenvalues * t)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def passive_state(state: np.ndarray, h: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """State with the same spectrum but no unitarily extractable work.

    Populations are sorted descending and placed on the eigenvectors of h
    sorted ascending in energy, so the result commutes with h.
    """
    dec_h = hermitian_eigendecomposition(h, tol)
    dec_s = hermitian_eigendecomposition(state, tol)
    populations = dec_s.eigenvalues[::-1]
    return (dec_h.eigenvectors * populations) @ dec_h.eigenvectors.conj().T


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


DENSITY_SLACK = 1e-10  # hermiticity / trace / positivity slack of a state


def check_density_matrix(m: np.ndarray) -> None:
    """Raise ValueError unless m is Hermitian, unit-trace and PSD within slack."""
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > DENSITY_SLACK:
        raise ValueError(f"state deviates from Hermitian by {dev:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > DENSITY_SLACK:
        raise ValueError(f"state trace {tr} is not 1 within {DENSITY_SLACK:.1e}")
    eigenvalues = hermitian_eigendecomposition(m).eigenvalues
    if eigenvalues[0] < -DENSITY_SLACK:
        raise ValueError(f"state has negative eigenvalue {eigenvalues[0]:.3e}")


def numpy_random_cloud(count: int, seed=20260809) -> list[BatteryParams]:
    """Random parameter cloud, xi in [0, 3] and T in [0.05, 5], drawn by
    ``np.random.default_rng(seed)``; ``seed`` may be a ``Generator``, used as it is."""
    rng = np.random.default_rng(seed)
    return [BatteryParams(*rng.uniform(0.0, 3.0, 3), temperature=rng.uniform(0.05, 5.0))
            for _ in range(count)]


def cell_bits(curve, i: int) -> dict:
    """Cell ``i`` of a ``CurveColumns``: its flag, tau and each column's value
    there (a tau-independent column's one value), every float as its IEEE
    bytes so that NaN and -0.0 compare exactly."""
    values = {k: v[i] if isinstance(v, np.ndarray) else v for k, v in curve.columns.items()}
    bits = {k: struct.pack("<d", v) for k, v in {"tau": curve.taus[i], **values}.items()}
    return {"flag": curve.flag, **bits}


def _text(write) -> str:
    """What ``write(stream)`` writes, as one string."""
    stream = io.StringIO()
    write(stream)
    return stream.getvalue()


def bit_patterns(count: int = 10 ** 5, seed: int = 2024) -> list[float]:
    """``count`` doubles of uniformly random bits: every sign, exponent,
    subnormal, inf and nan pattern alike, drawn without numpy."""
    draw = random.Random(seed)
    return [struct.unpack("<d", struct.pack("<Q", draw.getrandbits(64)))[0]
            for _ in range(count)]
