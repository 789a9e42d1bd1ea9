"""Dense complex linear algebra for small Hermitian matrices.

Self-contained kernel: a parallel-order complex Jacobi eigensolver that
decomposes a whole stack of Hermitian matrices per call (intended for
dimensions up to ~16). numpy is used as the array carrier only; no LAPACK
eigensolver is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import EigenConvergenceError, NotHermitianError
from .tolerances import Tolerances, resolve

__all__ = ["SpectralDecomposition", "hermitian_eigendecomposition"]

# matrices decomposed together; larger stacks are split into chunks of this
# size, which bounds the kernel's temporaries
MAX_STACK = 512


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns.

    For a stack of matrices both arrays carry the stack axis first:
    eigenvalues ``(N, n)`` and eigenvectors ``(N, n, n)``. ``eigenvectors``
    is None when they were not asked for.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


@cache
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Rounds of disjoint (p, q) pairs, p < q, covering every pair once.

    Circle ordering: index 0 stays put while the others rotate. Odd n gets
    a dummy index n, and pairs with it are dropped. Each round is
    ``(p, q, pq, qp)`` with ``pq`` = p then q and ``qp`` = q then p, so
    ``a[pq, qp]`` are its pivot entries and ``a[pq, pq]`` their
    diagonals. Built once per n and shared, so the index arrays are read-only.
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
            for a in rounds[-1]:
                a.flags.writeable = False
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


@cache
def _triangles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the upper triangle of an n x n matrix, diagonal
    included; built once per n and shared, so read-only."""
    indices = np.triu_indices(n)
    for a in indices:
        a.flags.writeable = False
    return indices


def _offdiag_norm(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix's off-diagonal part; gathered stack-first,
    so each norm sums its terms in the order a stack-first array gives."""
    off = ~np.eye(a.shape[0], dtype=bool)
    squares = a.real.transpose(2, 0, 1)[:, off]
    squares **= 2
    imag = a.imag.transpose(2, 0, 1)[:, off]
    imag **= 2
    squares += imag
    return np.sqrt(squares.sum(axis=-1))


def _select(every: bool, on: np.ndarray, new, old):
    """``new`` where ``on``, else ``old``; all of ``new`` if ``every`` matrix rotates."""
    return new if every else np.where(on, new, old)


def _rotate(m: np.ndarray, p, q, every: bool, on: np.ndarray, c, plus, minus) -> None:
    """``m[p], m[q] = c m[p] + plus m[q], c m[q] - minus m[p]`` where ``on``, in
    place, one pair at a time through views: each new value has the bits of
    that expression, and only one pair's new values are held at once."""
    for k in range(len(p)):
        x, y = m[p[k]], m[q[k]]
        new_x = c[k] * x
        new_x += plus[k] * y
        new_y = c[k] * y
        new_y -= minus[k] * x
        if not every:
            np.copyto(new_x, x, where=~on[k])
            np.copyto(new_y, y, where=~on[k])
        x[...], y[...] = new_x, new_y


def _jacobi_sweep(av: np.ndarray, n: int, skip: np.ndarray, rounds) -> None:
    """One sweep of rotations in place on ``av``, shape ``(rows, n, N)`` with
    the stack axis last: the matrices ``av[:n]`` over their eigenvector
    accumulators, if any, which the rotation of the matrices never reads.

    Each round rotates its disjoint pairs at once. A pair whose off-diagonal
    entry is at most ``skip`` keeps its old bits (selected, not rotated by
    the identity), so a matrix's result does not depend on the other
    matrices of the stack.
    """
    for p, q, pq, qp in rounds:
        angles = _rotation(av[:n], p, q, skip)
        if angles is None:
            continue
        every, rot, c, sp, spc = angles
        # columns p,q of the rotation: [[c, -s*phase], [s*conj(phase), c]]
        _rotate(av.swapaxes(0, 1), p, q, every, rot, c, spc, sp)
        a = av[:n]
        _rotate(a, p, q, every, rot, c, sp, spc)

        # the rotated pivots are exactly zero, their diagonals exactly real
        on = np.concatenate([rot, rot])
        a[pq, qp] = _select(every, on, 0.0, a[pq, qp])
        a[pq, pq] = _select(every, on, a[pq, pq].real, a[pq, pq])


def _rotation(a: np.ndarray, p, q, skip: np.ndarray):
    """The rotation of one round, ``(every, rot, c, s*phase, s*conj(phase))``
    with ``rot`` the pairs that turn, or None if none does."""
    beta = a[p, q]
    absb = np.abs(beta)
    rot = absb > skip
    if not rot.any():
        return None
    every = rot.all()
    absb = _select(every, rot, absb, 1.0)
    phase = beta / absb
    # rotation angle for the 2x2 block [[app, |b|], [|b|, aqq]]
    theta = (a[q, q].real - a[p, p].real) / (2.0 * absb)
    t = -np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    return every, rot, c, s * phase, s * phase.conj()


def hermitian_eigendecomposition(
    m: np.ndarray, tol: Tolerances | None = None, *, vectors: bool = True
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
    chunks. Nothing is memoized and the returned arrays are fresh. With
    ``vectors=False`` no eigenvectors are accumulated and ``eigenvectors``
    is None; the eigenvalues are bit-identical either way.

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
        _decompose(stack[i:i + MAX_STACK], i, tol, vectors)
        for i in range(0, len(stack), MAX_STACK)
    ]
    w = np.concatenate([w for w, _ in parts])
    v = np.concatenate([v for _, v in parts]) if vectors else None
    if single:
        return SpectralDecomposition(w[0], None if v is None else v[0])
    return SpectralDecomposition(w, v)


def _check_input(m: np.ndarray, offset: int, tol: Tolerances) -> None:
    """Reject a stack ``(N, n, n)`` as the eigensolver does: ``ValueError``
    for a matrix with non-finite entries, ``NotHermitianError`` for one that
    is not Hermitian within ``tol.hermitian``; ``offset`` numbers its matrices."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(
            f"matrix {offset + int(np.argmin(finite))} of the stack has non-finite entries"
        )
    # |m - m^dagger| is symmetric: its upper triangle holds its max
    rows, cols = _triangles(m.shape[-1])
    dev = m[:, cols, rows]
    np.conjugate(dev, out=dev)
    with np.errstate(over="ignore"):
        np.subtract(m[:, rows, cols], dev, out=dev)
    dev = np.abs(dev).max(axis=-1)
    if not np.all(dev <= tol.hermitian):  # a NaN deviation fails too
        i = int(np.argmax(dev))
        raise NotHermitianError(
            f"matrix {offset + i} of the stack deviates from Hermitian by "
            f"{dev[i]:.3e} (tolerance {tol.hermitian:.1e})"
        )


def _decompose(m: np.ndarray, offset: int, tol: Tolerances,
               vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and eigenvectors (or None) of one chunk; ``offset`` numbers its matrices."""
    _check_input(m, offset, tol)
    count, n = m.shape[0], m.shape[-1]

    # scale by 2**-e, with 2**e just above the largest real or imaginary part
    top = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1))
    e = np.frexp(top)[1][:, None, None]
    a = np.empty_like(m)
    a.real = np.ldexp(m.real, -e)
    a.imag = np.ldexp(m.imag, -e)
    # the Hermitian part, (a + a^dagger) / 2, in place
    a += a.conj().swapaxes(-1, -2)
    a /= 2.0

    # target relative to the (scaled) matrix norm
    squares = a.real**2
    squares += a.imag**2
    norm = np.sqrt(squares.sum(axis=(-2, -1)))
    target = tol.jacobi_offdiag * np.maximum(1.0, norm)
    # entries this small cannot push the off-diagonal norm above target
    skip = target / (2.0 * n)
    rounds = _round_robin(n)

    # the stack axis last, so every elementwise op runs over the whole stack
    av = np.empty((2 * n if vectors else n, n, count), dtype=complex)
    av[:n] = a.transpose(1, 2, 0)
    if vectors:
        av[n:] = np.eye(n)[:, :, None]
    del a, squares
    # converged matrices leave av: their diagonals go to w (vectors to v)
    w = np.empty((count, n))
    v = np.empty((count, n, n), dtype=complex) if vectors else None
    live = np.arange(count)  # the stack index of each matrix left in av
    done = _offdiag_norm(av[:n]) <= target
    for sweep in range(tol.jacobi_max_sweeps + 1):
        if done.any():
            w[live[done]] = np.diagonal(av[:n, :, done], axis1=0, axis2=1).real
            if vectors:
                v[live[done]] = av[n:, :, done].transpose(2, 0, 1)
            av, live = av[..., ~done], live[~done]
        if not len(live) or sweep == tol.jacobi_max_sweeps:
            break
        _jacobi_sweep(av, n, skip[live], rounds)
        done = _offdiag_norm(av[:n]) <= target[live]
    if len(live):
        i = live[0]
        raise EigenConvergenceError(
            f"Jacobi sweeps exhausted ({tol.jacobi_max_sweeps}) for matrix "
            f"{offset + i} of the stack: off-diagonal norm "
            f"{_offdiag_norm(av[:n, :, :1])[0]:.3e} above target {target[i]:.3e} "
            f"(both relative to its largest entry)"
        )

    order = np.argsort(w, axis=-1, kind="stable")
    eigenvalues = np.ldexp(np.take_along_axis(w, order, axis=-1), e[:, 0])
    return eigenvalues, np.take_along_axis(v, order[:, None, :], axis=-1) if vectors else None
