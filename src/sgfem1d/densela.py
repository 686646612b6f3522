"""Symmetric linear algebra in LAPACK band storage: SPD solve, the smallest
generalized eigenpairs, scaled condition numbers.

The matrices come in dense, but they are banded except for the enrichment
rows, which sit at the end.  Each function reads the nonzero pattern once,
checks symmetry on it, and orders the rows by their first nonzero column
(stably), which puts every enrichment row next to its interface element:
the half-bandwidth becomes at most 2p+1 for SGFEM and stays p for FEM.  K
is factored in lower band storage by LAPACK's banded Cholesky (dpbtrf).

The k smallest eigenpairs of K v = lambda M v come from subspace iteration
on the solution operator K^{-1} M with a Rayleigh-Ritz step (Bathe's form):
the Ritz values are upper bounds of the discrete eigenvalues and the Ritz
vectors are M-orthonormal.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .exceptions import (ConvergenceFailureError, InvalidArgumentError,
                         NotPositiveDefiniteError)

# Subspace iteration stops when max_j ||lambda_j K^{-1} M x_j - x_j||_M is
# below this.  The inverse residual needs no product with K, so it does not
# lose the smooth modes to cancellation; its rounding floor is 2e-14 to
# 3e-14 at p=3, ndof 1923 and 3003.
EIG_TOL = 1e-12
EIG_MAX_STEPS = 300
# Where rounding keeps the inverse residual above EIG_TOL (ill-conditioned
# K, or the highest modes of a small system), the iteration stops once the
# residual has not reached a new minimum for this many steps.
EIG_STALL = 10


@dataclass
class EigenSolution:
    """Ascending eigenvalues and M-orthonormal eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray


def _square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    return A


def cholesky(A):
    """Lower-triangular L with L L^T = A; raises if A is not SPD."""
    A = _square(A)
    _pattern(A, len(A))  # raises unless A is symmetric
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def _pattern(A, n):
    """Rows, columns and values of the nonzeros of the symmetric n x n
    matrix A; symmetry is checked on those entries, to 1e-12 relative to
    each entry plus 1e-12 of the largest (at least 1e-12)."""
    A = _square(A)
    if A.shape[0] != n:
        raise InvalidArgumentError(f"matrix must be {n}x{n}, got {A.shape}")
    flat = A.ravel()
    idx = np.flatnonzero(flat)
    rows, cols = np.divmod(idx, n)
    vals, mirror = flat[idx], flat[cols * n + rows]
    atol = 1e-12 * max(1.0, np.abs(vals).max(initial=0.0))
    if not np.all(np.abs(vals - mirror) <= atol + 1e-12 * np.abs(mirror)):
        raise InvalidArgumentError("matrix must be symmetric")
    return rows, cols, vals


def _banded(*mats, scale=None):
    """The band form shared by every function of this module.

    Orders the rows of the square symmetric matrices by the first nonzero
    column of their union pattern (a stable sort) and returns the order
    (new position -> old row) and each matrix in lower band storage of the
    common half-bandwidth in that order.  ``scale``, if given, multiplies
    rows and columns of every matrix."""
    n = _square(mats[0]).shape[0]
    patterns = [_pattern(A, n) for A in mats]
    first = np.arange(n)
    for rows, cols, _ in patterns:
        np.minimum.at(first, rows, cols)
    order = np.argsort(first, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    kd = max(int(np.max(pos[r] - pos[c], initial=0)) for r, c, _ in patterns)
    bands = []
    for rows, cols, vals in patterns:
        i, j = pos[rows], pos[cols]
        lower = i >= j
        ab = np.zeros((kd + 1, n))
        if scale is not None:
            vals = vals * scale[rows] * scale[cols]
        ab[(i - j)[lower], j[lower]] = vals[lower]
        bands.append(ab)
    return order, bands


def _factor(ab):
    """Banded Cholesky factor of the lower band ab; raises if not SPD."""
    c, info = lapack.dpbtrf(ab, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"leading minor of order {info} is not positive definite")
    return c


def _band_matmul(ab, X):
    """A X for the symmetric matrix A held by its lower band ab."""
    Y = ab[0][:, None] * X
    for d in range(1, ab.shape[0]):
        off = ab[d, :-d, None]
        Y[d:] += off * X[:-d]
        Y[:-d] += off * X[d:]
    return Y


def solve_spd(K, F):
    """Solve K U = F for SPD K by banded Cholesky."""
    order, (ab,) = _banded(K)
    F = np.asarray(F, dtype=float)
    if F.shape[0] != len(order):
        raise InvalidArgumentError(
            f"right-hand side has {F.shape[0]} rows, matrix {len(order)}")
    U = np.empty_like(F)
    U[order] = lapack.dpbtrs(_factor(ab), F[order], lower=1)[0]
    return U


def generalized_eigs(K, M, k):
    """k smallest eigenpairs of K v = lambda M v for SPD K, M.

    Subspace iteration on K^{-1} M (Bathe's form): each step maps a block
    of m = min(n, 2k+8) vectors X to Xbar = K^{-1} M X and takes the Ritz
    pairs of the pencil (Xbar^T M X, Xbar^T M Xbar), a small dense problem.
    The start block comes from a fixed seed, so results are reproducible.
    The iteration stops when the inverse residual of every wanted pair,
    ||lambda K^{-1} M x - x||_M, is at most EIG_TOL, or when it has sat at
    its rounding floor for EIG_STALL steps; it raises
    ConvergenceFailureError after EIG_MAX_STEPS steps.  The Ritz values
    are upper bounds of the discrete eigenvalues, k = n included.
    Eigenvectors are M-orthonormal and the entry of largest magnitude of
    each is positive.
    """
    order, (kb, mb) = _banded(K, M)
    n = len(order)
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"requested {k} pairs from a {n}x{n} system")
    c = _factor(kb)
    try:
        _factor(mb)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"mass matrix: {exc}") from exc
    m = min(n, 2 * k + 8)
    # The start block is random in the coordinates scaled by diag(K)^(1/2),
    # where enrichment and FEM columns weigh alike.  Its own Rayleigh-Ritz
    # step (the only product with K) makes the first block M-orthonormal;
    # K^{-1} M of a raw random block can have numerically dependent columns.
    Y = np.random.default_rng(0).standard_normal((n, m)) / np.sqrt(kb[0])[:, None]
    Kr, MY = Y.T @ _band_matmul(kb, Y), _band_matmul(mb, Y)
    best, stalled = np.inf, 0
    for _ in range(EIG_MAX_STEPS):
        Mr = Y.T @ MY
        try:
            vals, Q = scipy.linalg.eigh(0.5 * (Kr + Kr.T), 0.5 * (Mr + Mr.T))
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(str(exc)) from exc
        X, MX = Y @ Q, MY @ Q
        Y = lapack.dpbtrs(c, MX, lower=1)[0]
        R = vals[:k] * Y[:, :k] - X[:, :k]
        resid = np.sqrt(np.max(np.einsum("ij,ij->j", R, _band_matmul(mb, R)),
                               initial=0.0))
        best, stalled = (resid, 0) if resid < best else (best, stalled + 1)
        if resid <= EIG_TOL or stalled == EIG_STALL:
            break
        Kr, MY = Y.T @ MX, _band_matmul(mb, Y)
    else:
        raise ConvergenceFailureError(
            f"subspace iteration: inverse residual {resid:.2e} after "
            f"{EIG_MAX_STEPS} steps")
    V = np.empty((n, k))
    V[order] = X[:, :k]
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(k)])
    return EigenSolution(values=vals[:k], vectors=V)


def scaled_condition_number(A):
    """lambda_max / lambda_min of D^{-1/2} A D^{-1/2} with D = diag(A)."""
    A = _square(A)
    d = np.diag(A)
    if np.any(d <= 0.0):
        raise NotPositiveDefiniteError("diagonal has nonpositive entries")
    _, (ab,) = _banded(A, scale=1.0 / np.sqrt(d))
    vals = scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)
    if vals[0] <= 0.0:
        raise NotPositiveDefiniteError("scaled matrix not positive definite")
    return vals[-1] / vals[0]
