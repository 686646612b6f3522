"""Symmetric linear algebra in LAPACK band storage: SPD solve, the smallest
generalized eigenpairs, scaled condition numbers.

The matrices are banded except for the enrichment rows, which sit at the
end.  Rows ordered by their first nonzero column (stably) put every
enrichment row next to its interface element: half-bandwidth at most 2p+1
for SGFEM, p for FEM.  A BandMatrix (an assembled system's K or M) holds
that order and its lower band, column-major as dsbmv and dpbtrf (banded
Cholesky) read it, so no solver copies it, and a scipy CSR form for all
else; dense input must be finite and symmetric, and is scanned for its pattern.

Eigenvalues come from ARPACK's implicitly restarted Lanczos method
(scipy's eigsh) in standard mode, as the largest of one symmetric band
operator.  The smallest lambda of K v = lambda M v are 1/mu for the largest
mu of C^-1 M C^-T with K = C C^T, the symmetric form of the solution
operator K^-1 M, applied by two triangular band solves (dtbtrs) on the
Cholesky factor around a band product by M, in every branch.  The scaled
condition number takes its extremes from a band product and from dpbtrs.

Lanczos stops at Ritz residuals of 1e-8 (ARPACK's tol; |theta - lambda| <=
||r||), and generalized_eigs restores its pairs to rounding level: at k = 8
that cut 35 operator applications to 27, moving eigenvalues <= 2.1e-14.
Pencils with n <= 80 + 2k go to dense LAPACK, which broke even with ARPACK
near n = 90 at k = 8 (one BLAS thread, 2-core Xeon; README has figures).
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dsbmv
from scipy.sparse import csr_array, dia_array
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .exceptions import (ConvergenceFailureError, InvalidArgumentError,
                         NotPositiveDefiniteError)


@dataclass
class EigenSolution:
    """Ascending eigenvalues and M-orthonormal eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray


def _dia(ab):
    """The symmetric n x n matrix of the lower band ab as a scipy DIA array."""
    kd, n = len(ab) - 1, ab.shape[1]
    data = np.vstack([ab, np.zeros((kd, n))])  # offsets 0, -1, .., -kd, 1, .., kd
    for d in range(1, kd + 1):  # upper diagonal d: the lower one shifted right
        data[kd + d, d:] = ab[d, :n - d]
    return dia_array((data, np.r_[:-kd - 1:-1, 1:kd + 1]), shape=(n, n))


class BandMatrix:
    """Read-only symmetric n x n matrix held as its lower band ab in the row
    order ``order`` (new position -> row): band = (order, ab).  A @ x, x @ A,
    indexing and np.asarray(A) read one scipy CSR array of A's nonzeros in
    natural row order, built from the band on first use."""

    __array_priority__ = 1000  # x @ A defers to A.__rmatmul__
    ndim, dtype = 2, np.dtype(float)
    T = property(lambda self: self)

    def __init__(self, order, ab):
        ab.setflags(write=False)
        self.band, self.shape = (order, ab), (len(order),) * 2

    def __len__(self):
        return self.shape[0]

    @cached_property
    def csr(self):
        order, B = self.band[0], _dia(self.band[1]).tocoo()  # B = A[order][:, order]
        return csr_array((B.data, (order[B.row], order[B.col])), shape=self.shape)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"matmul: {self.shape} @ {x.shape}")
        return self.csr @ x

    def __rmatmul__(self, x):
        return (self @ np.asarray(x).T).T

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.csr.toarray(), dtype=dtype)

    def __getitem__(self, index):
        return self.csr[index]


def _symmetric(A, n=None):
    """A as a float square (n x n, if n is given) array if it is finite and
    symmetric, to 1e-12 of each entry plus 1e-12 of the largest (at least
    1e-12); else raises."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if n is not None and len(A) != n:
        raise InvalidArgumentError(f"matrix must be {n}x{n}, got {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidArgumentError("matrix must be finite")
    atol = 1e-12 * max(1.0, np.abs(A).max(initial=0.0))
    if not np.allclose(A, A.T, rtol=1e-12, atol=atol):
        raise InvalidArgumentError("matrix must be symmetric")
    return A


def _banded(*mats):
    """Row order and lower bands of the square symmetric matrices: BandMatrix objects' of
    one order (equal by value), else a dense scan's, rows stably by first coupled column."""
    carried = [getattr(A, "band", None) for A in mats]
    if all(b is not None and (b[0] is carried[0][0] or np.array_equal(b[0], carried[0][0]))
           for b in carried):
        return carried[0][0], [ab for _, ab in carried]
    first = _symmetric(mats[0])
    mats, n = [first] + [_symmetric(A, len(first)) for A in mats[1:]], len(first)
    coupled = np.any([A != 0.0 for A in mats], axis=0) | np.eye(n, dtype=bool)
    order = np.argsort(coupled.argmax(1), kind="stable")  # argmax: the first True
    perm = np.ix_(order, order)
    width = 1 + int(np.max(np.arange(n) - coupled[perm].argmax(1)))
    # diagonal d of each permuted matrix, + 0.0: a signed zero off the pattern reads 0.0
    return order, [np.asfortranarray([np.append(np.diagonal(B, -d), np.zeros(d)) for d in
                                      range(width)]) + 0.0 for B in (A[perm] for A in mats)]


def _factor(ab):
    """Banded Cholesky factor of the lower band ab; raises if not SPD."""
    c, info = lapack.dpbtrf(ab, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"leading minor of order {info} is not positive definite")
    return c


def _lanczos(apply, n, k=1, ncv=None):
    """The k largest eigenpairs (values, vectors) of the symmetric x -> apply(x) on R^n by
    ARPACK from a fixed start, to Ritz residuals of 1e-8, with ncv vectors (None: ARPACK's)."""
    try:
        return eigsh(LinearOperator((n, n), apply, dtype=float), k, which="LA", ncv=ncv,
                     tol=1e-8, v0=np.random.default_rng(0).standard_normal(n))
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ConvergenceFailureError(str(exc)) from exc


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
    """k smallest eigenpairs of K v = lambda M v for SPD K, M, as 1/mu for
    the k largest eigenvalues mu of C^-1 M C^-T with K = C C^T: by ARPACK on
    the band factor C or, for n <= 80 + 2k, by dense LAPACK, then refined by
    one inverse-iteration and Rayleigh-Ritz step.  Eigenvectors are M-orthonormal
    (or it raises); the entry of largest magnitude of each is positive."""
    order, (kb, mb) = _banded(K, M)
    n = len(order)
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"requested {k} pairs from a {n}x{n} system")
    c = _factor(kb)
    try:
        _factor(mb)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"mass matrix: {exc}") from exc
    if k == 0:
        return EigenSolution(values=np.empty(0), vectors=np.empty((n, 0)))
    block = cache(lambda: _dia(mb))  # on the first block product: Lanczos calls dsbmv
    m = lambda x: dsbmv(len(mb) - 1, 1.0, mb, x, lower=1) if x.ndim == 1 else block() @ x
    mct = lambda Y: m(lapack.dtbtrs(c, Y, uplo="L", trans="T")[0])  # M C^-T Y
    op = lambda Y: lapack.dtbtrs(c, mct(Y), uplo="L")[0]  # C^-1 M C^-T Y
    if n <= 80 + 2 * k:  # dense LAPACK is faster here (module docstring)
        Y = scipy.linalg.eigh(op(np.eye(n)), subset_by_index=[n - k, n - 1])[1]
    else:
        Y = _lanczos(op, n, k)[1]
    # One inverse-iteration step, W = K^-1 M C^-T Y, purges the vectors of
    # the huge lambda of a nearly dependent basis, which the residual
    # amplifies; Rayleigh-Ritz in span(W) restores the pairs to rounding level.
    P = mct(Y)
    W = lapack.dpbtrs(c, P, lower=1)[0]  # W^T K W = W^T P
    mu, U = scipy.linalg.eigh(W.T @ m(W), W.T @ P)
    V = (W @ U)[:, ::-1] / np.sqrt(np.abs(mu[::-1]))  # band order
    if mu[0] <= 0.0 or np.abs(V.T @ m(V) - np.eye(k)).max() > 1e-6:  # k near n
        raise NotPositiveDefiniteError("mass matrix: singular on the eigenvectors")
    V = V[np.argsort(order)]  # natural order
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(k)])
    return EigenSolution(values=1.0 / mu[::-1], vectors=V)


def scaled_condition_number(A):
    """lambda_max / lambda_min of D^{-1/2} A D^{-1/2} with D = diag(A)."""
    _, (ab,) = _banded(A)
    if np.any(ab[0] <= 0.0):
        raise NotPositiveDefiniteError("diagonal has nonpositive entries")
    s = 1.0 / np.sqrt(ab[0])
    # entry (d, j) sits in row j + d (past the end: a zero); column-major, as dsbmv reads it
    ab = ab * np.stack([np.roll(s, -d) for d in range(len(ab))], 1).T * s
    c, kd = _factor(ab), len(ab) - 1
    if len(s) == 1:  # ARPACK needs n >= 2
        return 1.0
    # 6 vectors find the isolated 1/lambda_min in 7-10 solves, not 21; lambda_max may sit
    # in a cluster (p = 1 FEM, N = 640: 17428 products with 6 vectors, 1581 with the 20)
    return (_lanczos(lambda x: dsbmv(kd, 1.0, ab, x, lower=1), len(s))[0][0] * _lanczos(
        lambda x: lapack.dpbtrs(c, x, lower=1)[0], len(s), ncv=min(len(s), 6))[0][0])
