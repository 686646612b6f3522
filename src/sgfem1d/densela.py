"""Symmetric linear algebra in LAPACK band storage: SPD solve, the smallest
generalized eigenpairs, scaled condition numbers.

The matrices are banded except for the enrichment rows, which sit at the
end.  Rows ordered by their first nonzero column (stably) put every
enrichment row next to its interface element: half-bandwidth at most 2p+1
for SGFEM, p for FEM.  A BandMatrix (an assembled system's K or M) holds
that order and its band; dense input must be finite and symmetric, and is
scanned for its pattern.  K is factored by LAPACK's banded Cholesky (dpbtrf).

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
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import dsbmv
from scipy.sparse import dia_array
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .exceptions import (ConvergenceFailureError, InvalidArgumentError,
                         NotPositiveDefiniteError)


@dataclass
class EigenSolution:
    """Ascending eigenvalues and M-orthonormal eigenvectors (as columns)."""

    values: np.ndarray
    vectors: np.ndarray


def _product(ab):
    """x -> A x for the symmetric A of the lower band ab and x of shape (n,),
    by dsbmv, or (n, m), by one scipy DIA product for all the columns."""
    kd, n = len(ab) - 1, ab.shape[1]
    data = np.vstack([ab, np.zeros((kd, n))])  # offsets 0, -1, .., -kd, 1, .., kd
    for d in range(1, kd + 1):  # upper diagonal d: the lower one shifted right
        data[kd + d, d:] = ab[d, :n - d]
    block = dia_array((data, np.r_[:-kd - 1:-1, 1:kd + 1]), shape=(n, n))
    ab = np.asfortranarray(ab)  # dsbmv would copy a C-ordered band per call
    return lambda x: dsbmv(kd, 1.0, ab, x, lower=1) if x.ndim == 1 else block @ x


class BandMatrix:
    """Read-only symmetric n x n matrix held as its lower band ab in the row
    order ``order`` (new position -> row): band = (order, ab).  A @ x and
    x @ A are band products in natural row order; np.asarray(A) builds the
    dense matrix once and keeps it, read-only, and indexing reads it."""

    __array_priority__ = 1000  # x @ A defers to A.__rmatmul__
    ndim, dtype = 2, np.dtype(float)
    T = property(lambda self: self)
    _op = cached_property(lambda self: _product(self.band[1]))

    def __init__(self, order, ab):
        ab.setflags(write=False)
        self.band, self.shape = (order, ab), (len(order),) * 2

    def __len__(self):
        return self.shape[0]

    def __matmul__(self, x):
        order, x = self.band[0], np.asarray(x, dtype=float)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"matmul: {self.shape} @ {x.shape}")
        y = np.empty(x.shape)
        y[order] = self._op(x[order])
        return y

    def __rmatmul__(self, x):
        return (self @ np.asarray(x).T).T

    @cached_property
    def _dense(self):
        (order, ab), n = self.band, len(self)
        A = np.zeros((n, n))
        for d in range(len(ab)):  # band row d holds A[order[j + d], order[j]]
            A[order[d:], order[:n - d]] = A[order[:n - d], order[d:]] = ab[d, :n - d]
        A.setflags(write=False)
        return A

    def __array__(self, dtype=None, copy=None):
        return np.array(self._dense, dtype=dtype, copy=copy)

    def __getitem__(self, index):
        return np.asarray(self)[index]


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


def _band_form(n, rows, cols):
    """For n x n symmetric matrices with entries at (rows, cols) (index
    arrays that broadcast, -1: none), the row order (new position -> old
    row) by first coupled column, stably, and a function that sums values
    given at (rows, cols), in input order, into lower band storage in it."""
    rows, cols = np.broadcast_arrays(rows, cols)
    keep = (rows >= 0) & (cols >= 0)
    first = np.arange(n)
    np.minimum.at(first, rows[keep], cols[keep])
    order = np.argsort(first, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    i, j = pos[rows], pos[cols]
    lower = keep & (i >= j)
    size = (int(np.max((i - j)[lower], initial=0)) + 1) * n
    index = np.where(lower, (i - j) * n + j, size).ravel()

    def band(vals):
        # the extra bin takes the dropped entries
        return np.bincount(index, weights=vals.ravel(),
                           minlength=size + 1)[:size].reshape(-1, n)

    return order, band


def _banded(*mats):
    """_band_form of the square symmetric matrices' union pattern: the one
    BandMatrix objects of one order hold, else found by a dense scan."""
    carried = [getattr(A, "band", None) for A in mats]
    if all(b is not None and b[0] is carried[0][0] for b in carried):
        return carried[0][0], [ab for _, ab in carried]
    first = _symmetric(mats[0])
    mats = [first] + [_symmetric(A, len(first)) for A in mats[1:]]
    rows, cols = np.nonzero(np.any([A != 0.0 for A in mats], axis=0))
    order, band = _band_form(len(first), rows, cols)
    return order, [band(A[rows, cols]) for A in mats]


def _factor(ab):
    """Banded Cholesky factor of the lower band ab; raises if not SPD."""
    c, info = lapack.dpbtrf(ab, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"leading minor of order {info} is not positive definite")
    return c


def _lanczos(apply, n, k=1):
    """The k largest eigenpairs (values, vectors) of the symmetric x -> apply(x)
    on R^n by ARPACK from a fixed start, to Ritz residuals of 1e-8."""
    try:
        return eigsh(LinearOperator((n, n), apply, dtype=float), k, which="LA",
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
    one inverse-iteration and Rayleigh-Ritz step.  Eigenvectors are
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
    if k == 0:
        return EigenSolution(values=np.empty(0), vectors=np.empty((n, 0)))
    m = _product(mb)
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
    if mu[0] <= 0.0:  # k near n on a numerically dependent basis
        raise NotPositiveDefiniteError("mass matrix: singular on the eigenvectors")
    V = (W @ U)[np.argsort(order), ::-1] / np.sqrt(mu[::-1])  # natural order
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(k)])
    return EigenSolution(values=1.0 / mu[::-1], vectors=V)


def scaled_condition_number(A):
    """lambda_max / lambda_min of D^{-1/2} A D^{-1/2} with D = diag(A)."""
    _, (ab,) = _banded(A)
    if np.any(ab[0] <= 0.0):
        raise NotPositiveDefiniteError("diagonal has nonpositive entries")
    s = 1.0 / np.sqrt(ab[0])
    # entry (d, j) of the band sits in row j + d (past the end: a zero)
    ab = ab * np.array([np.roll(s, -d) for d in range(len(ab))]) * s
    c = _factor(ab)
    if len(s) == 1:  # ARPACK needs n >= 2
        return 1.0
    return (_lanczos(_product(ab), len(s))[0][0] * _lanczos(
        lambda x: lapack.dpbtrs(c, x, lower=1)[0], len(s))[0][0])
