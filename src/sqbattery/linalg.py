"""Dense complex linear algebra for small Hermitian matrices.

Self-contained kernel: a parallel-order complex Jacobi eigensolver that
decomposes a whole stack of Hermitian matrices per call (intended for
dimensions up to ~16), spectral matrix functions, and the matrix
exponential ``exp(-i h t)`` built in the eigenbasis. numpy is used as the
array carrier only; no LAPACK eigensolver is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import EigenConvergenceError, NotHermitianError
from .tolerances import Tolerances, resolve

__all__ = [
    "SpectralDecomposition",
    "hermitian_eigendecomposition",
    "is_hermitian",
    "is_unitary",
    "max_abs",
    "reconstruct",
    "spectral_function",
    "unitary_from_hamiltonian",
]

# matrices decomposed together; larger stacks are split into chunks of this
# size, which bounds the kernel's temporaries
MAX_STACK = 512


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude, i.e. the max-norm used by the tolerances."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_hermitian(m: np.ndarray, tol: float) -> bool:
    return max_abs(m - m.conj().T) <= tol


def is_unitary(m: np.ndarray, tol: float) -> bool:
    eye = np.eye(m.shape[0])
    return max_abs(m @ m.conj().T - eye) <= tol


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns.

    For a stack of matrices both arrays carry the stack axis first:
    eigenvalues ``(N, n)`` and eigenvectors ``(N, n, n)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _round_robin(n: int) -> list[tuple[np.ndarray, ...]]:
    """Rounds of disjoint (p, q) pairs, p < q, covering every pair once.

    Circle ordering: index 0 stays put while the others rotate. Odd n gets
    a dummy index n, and pairs with it are dropped. Each round is
    ``(p, q, pq, qp)`` with ``pq`` = p then q and ``qp`` = q then p, so
    ``a[:, pq, qp]`` are its pivot entries and ``a[:, pq, pq]`` their
    diagonals.
    """
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        seats = [0] + ring
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], reversed(seats[m // 2:]))
            if max(a, b) < n
        )
        if pairs:
            p, q = np.array(pairs).T
            rounds.append((p, q, np.concatenate([p, q]), np.concatenate([q, p])))
        ring = ring[-1:] + ring[:-1]
    return rounds


def _offdiag_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix's off-diagonal part."""
    off = a[:, ~np.eye(a.shape[-1], dtype=bool)]
    return np.sqrt((off.real**2 + off.imag**2).sum(axis=-1))


def _jacobi_sweep(av: np.ndarray, skip: np.ndarray, rounds) -> None:
    """One sweep of rotations in place on ``av``: the matrices stacked over
    their eigenvector accumulators, shape ``(N, 2n, n)``.

    Each round rotates its disjoint pairs at once. A pair whose off-diagonal
    entry is at most ``skip`` keeps its old bits (selected, not rotated by
    the identity), so a matrix's result does not depend on the other
    matrices of the stack.
    """
    a = av[:, : av.shape[-1]]
    for p, q, pq, qp in rounds:
        beta = a[:, p, q]
        absb = np.abs(beta)
        rot = absb > skip[:, None]
        if not rot.any():
            continue
        absb = np.where(rot, absb, 1.0)
        phase = beta / absb
        # rotation angle for the 2x2 block [[app, |b|], [|b|, aqq]]
        theta = (a[:, q, q].real - a[:, p, p].real) / (2.0 * absb)
        t = -np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        sp, spc = s * phase, s * phase.conj()

        # columns p,q of the rotation: [[c, -s*phase], [s*conj(phase), c]]
        mp, mq = av[:, :, p], av[:, :, q]
        cc, spr, spcr, on = c[:, None, :], sp[:, None, :], spc[:, None, :], rot[:, None, :]
        av[:, :, p] = np.where(on, cc * mp + spcr * mq, mp)
        av[:, :, q] = np.where(on, cc * mq - spr * mp, mq)

        mp, mq = a[:, p, :], a[:, q, :]
        cc, spr, spcr, on = c[:, :, None], sp[:, :, None], spc[:, :, None], rot[:, :, None]
        a[:, p, :] = np.where(on, cc * mp + spr * mq, mp)
        a[:, q, :] = np.where(on, cc * mq - spcr * mp, mq)

        # the rotated pivots are exactly zero, their diagonals exactly real
        rot2 = np.concatenate([rot, rot], axis=1)
        a[:, pq, qp] = np.where(rot2, 0.0, a[:, pq, qp])
        a[:, pq, pq] = np.where(rot2, a[:, pq, pq].real, a[:, pq, pq])


def hermitian_eigendecomposition(
    m: np.ndarray, tol: Tolerances | None = None
) -> SpectralDecomposition:
    """Diagonalize one Hermitian matrix ``(n, n)`` or a stack ``(N, n, n)``.

    Parallel-order complex Jacobi (Brent & Luk 1985): each round rotates
    disjoint index pairs together, vectorised over the stack, and a matrix
    stops rotating once its own off-diagonal norm meets the target. Every
    matrix is scaled by a power of two near its largest entry before
    rotating and the eigenvalues are scaled back after, so entries near the
    float64 range neither overflow nor lose the convergence test. Each
    matrix's result is bit-identical whether it is decomposed alone or
    inside any stack; stacks larger than ``MAX_STACK`` are split into
    chunks. Nothing is memoized and the returned arrays are fresh.

    Per matrix, raises ``ValueError`` for non-finite entries,
    ``NotHermitianError`` when it is not Hermitian within ``tol.hermitian``
    and ``EigenConvergenceError`` if the sweep budget is exhausted before
    the off-diagonal norm drops to ``tol.jacobi_offdiag`` relative to the
    matrix. Eigenvalues are ascending. Within a degenerate eigenspace the
    basis is whatever the rotation sequence produces, so consumers must not
    rely on a particular basis there.
    """
    tol = resolve(tol)
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    single = m.ndim == 2
    stack = m[None] if single else m
    parts = [
        _decompose(stack[i:i + MAX_STACK], i, tol)
        for i in range(0, len(stack), MAX_STACK)
    ]
    w = np.concatenate([w for w, _ in parts])
    v = np.concatenate([v for _, v in parts])
    return SpectralDecomposition(w[0], v[0]) if single else SpectralDecomposition(w, v)


def _decompose(m: np.ndarray, offset: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of one chunk; ``offset`` numbers its matrices."""
    count, n = m.shape[0], m.shape[-1]
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(
            f"matrix {offset + int(np.argmin(finite))} of the stack has non-finite entries"
        )
    with np.errstate(over="ignore"):
        dev = np.abs(m - _dagger(m)).max(axis=(-2, -1))
    if np.any(dev > tol.hermitian):
        i = int(np.argmax(dev))
        raise NotHermitianError(
            f"matrix {offset + i} of the stack deviates from Hermitian by "
            f"{dev[i]:.3e} (tolerance {tol.hermitian:.1e})"
        )

    # scale by 2**-e, with 2**e just above the largest real or imaginary part
    top = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1))
    e = np.frexp(top)[1][:, None, None]
    scaled = np.empty_like(m)
    scaled.real = np.ldexp(m.real, -e)
    scaled.imag = np.ldexp(m.imag, -e)
    av = np.empty((count, 2 * n, n), dtype=complex)
    a, v = av[:, :n], av[:, n:]
    a[:] = (scaled + _dagger(scaled)) / 2.0
    v[:] = np.eye(n)

    # target relative to the (scaled) matrix norm
    norm = np.sqrt((a.real**2 + a.imag**2).sum(axis=(-2, -1)))
    target = tol.jacobi_offdiag * np.maximum(1.0, norm)
    # entries this small cannot push the off-diagonal norm above target
    skip = target / (2.0 * n)
    rounds = _round_robin(n)
    done = _offdiag_norm(a) <= target
    for _ in range(tol.jacobi_max_sweeps):
        if done.all():
            break
        live = np.flatnonzero(~done)
        sub = av[live]
        _jacobi_sweep(sub, skip[live], rounds)
        av[live] = sub
        done[live] = _offdiag_norm(sub[:, :n]) <= target[live]
    if not done.all():
        i = int(np.argmin(done))
        raise EigenConvergenceError(
            f"Jacobi sweeps exhausted ({tol.jacobi_max_sweeps}) for matrix "
            f"{offset + i} of the stack: off-diagonal norm "
            f"{_offdiag_norm(a[i:i + 1])[0]:.3e} above target {target[i]:.3e} "
            f"(both relative to its largest entry)"
        )

    eigenvalues = np.diagonal(a, axis1=-2, axis2=-1).real
    order = np.argsort(eigenvalues, axis=-1, kind="stable")
    eigenvalues = np.ldexp(np.take_along_axis(eigenvalues, order, axis=-1), e[:, 0])
    vectors = np.take_along_axis(v, order[:, None, :], axis=-1)
    return eigenvalues, vectors


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """Rebuild the matrix sum(e_i v_i v_i†) from a decomposition (or a stack)."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues[..., None, :]) @ _dagger(v)


def spectral_function(
    m: np.ndarray, f: Callable[[float], float], tol: Tolerances | None = None
) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix in its eigenbasis."""
    dec = hermitian_eigendecomposition(m, tol)
    fw = np.array([float(f(float(e))) for e in dec.eigenvalues])
    return (dec.eigenvectors * fw) @ dec.eigenvectors.conj().T


def unitary_from_hamiltonian(
    h: np.ndarray, t: float, tol: Tolerances | None = None
) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via the spectral decomposition."""
    dec = hermitian_eigendecomposition(h, tol)
    phases = np.exp(-1j * dec.eigenvalues * t)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T
