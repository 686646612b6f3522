"""Symmetric linear algebra in LAPACK band storage: SPD solve, the smallest
generalized eigenpairs, scaled condition numbers.

The matrices come in dense, but they are banded except for the enrichment
rows, which sit at the end.  Each function reads the nonzero pattern once,
checks symmetry on it, and orders the rows by their first nonzero column
(stably), which puts every enrichment row next to its interface element:
the half-bandwidth becomes at most 2p+1 for SGFEM and stays p for FEM.  K
is factored in lower band storage by LAPACK's banded Cholesky (dpbtrf).

Every eigenvalue comes from ARPACK's implicitly restarted Lanczos method
(scipy's eigsh) on band operators: products by dsbmv, and inverses, for the
smallest eigenvalues, by dpbtrs on the band Cholesky factor.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dsbmv
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .exceptions import (ConvergenceFailureError, InvalidArgumentError,
                         NotPositiveDefiniteError)


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


def _lanczos(ab, k=1, c=None, mb=None):
    """k eigenpairs (ascending) of the band ab, or of the pencil (ab, mb), by
    ARPACK's Lanczos method from a fixed start vector: the largest or, given
    the band Cholesky factor c of ab, the smallest by shift-invert about 0."""
    n = ab.shape[1]
    op = partial(LinearOperator, (n, n), dtype=float)

    def band(b):
        return op(lambda x: dsbmv(len(b) - 1, 1.0, b, x, lower=1))

    mode = {"which": "LA"} if c is None else {
        "sigma": 0.0, "OPinv": op(lambda x: lapack.dpbtrs(c, x, lower=1)[0]),
        "M": None if mb is None else band(mb)}
    try:
        vals, vecs = eigsh(band(ab), k, tol=0, v0=np.random.default_rng(0)
                           .standard_normal(n), **mode)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ConvergenceFailureError(str(exc)) from exc
    i = np.argsort(vals)
    return vals[i], vecs[:, i]


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
    """k smallest eigenpairs of K v = lambda M v for SPD K, M: by ARPACK in
    shift-invert mode about 0 on the band factor of K or, for k = n, which
    ARPACK does not take, from the dense pencil (M, K).  Eigenvectors are
    M-orthonormal, and the entry of largest magnitude of each is positive."""
    order, (kb, mb) = _banded(K, M)
    n = len(order)
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"requested {k} pairs from a {n}x{n} system")
    c = _factor(kb)
    try:
        _factor(mb)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"mass matrix: {exc}") from exc
    if k == n:
        # reduced through K, so the smallest lambda = 1/mu stay accurate
        mu, W = scipy.linalg.eigh(M, K)
        vals, V = 1.0 / mu[::-1], W[:, ::-1] / np.sqrt(mu[::-1])
    else:
        vals, X = _lanczos(kb, k, c, mb) if k else (np.empty(0), np.empty((n, 0)))
        V = X[np.argsort(order)]
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(k)])
    return EigenSolution(values=vals, vectors=V)


def scaled_condition_number(A):
    """lambda_max / lambda_min of D^{-1/2} A D^{-1/2} with D = diag(A)."""
    A = _square(A)
    d = np.diag(A)
    if np.any(d <= 0.0):
        raise NotPositiveDefiniteError("diagonal has nonpositive entries")
    _, (ab,) = _banded(A, scale=1.0 / np.sqrt(d))
    c = _factor(ab)
    if len(d) == 1:  # ARPACK needs n >= 2
        return 1.0
    return _lanczos(ab)[0][0] / _lanczos(ab, c=c)[0][0]
