"""Interface-aware error norms, eigenfunction alignment, and rate fits.

All three integrate with the space's norm_basis: the (p+4)-point rule and
basis tables, built once per space and shared read-only."""

from dataclasses import dataclass

import numpy as np

from .exceptions import (DegenerateAlignmentError, InsufficientDataError,
                         InvalidArgumentError)
from .quadrature import sample

# Errors below MACHINE_FLOOR are dominated by rounding in the
# generalized eigensolve (the plateau sits near 5e-12 at N=160) and are
# excluded from rate fits.  TABLE_FLOOR is the smaller threshold used when
# comparing individual errors against published reference values, which
# were computed with a different solver whose plateau is lower.
MACHINE_FLOOR = 1e-11
TABLE_FLOOR = 5e-13


@dataclass(frozen=True)
class ErrorRecord:
    N: int
    p: int
    method: str
    quantity: str
    value: float


def h1_semi_error(uh, space, exact):
    """sqrt(int (u' - u_h')^2) with interface-split quadrature."""
    q = space.norm_basis
    return np.sqrt(np.sum(q.w * (sample(exact.deriv, q.x) - q.combine(uh, 1)) ** 2))


def l2_error(uh, space, exact):
    """L2 norm of u - u_h with interface-split quadrature."""
    q = space.norm_basis
    return np.sqrt(np.sum(q.w * (sample(exact.value, q.x) - q.combine(uh)) ** 2))


def align_eigenfunction(uh, space, exact):
    """Flip the sign of uh, if needed, so its L2 inner product with the
    exact eigenfunction is positive."""
    q = space.norm_basis
    inner = np.sum(q.w * q.combine(uh) * sample(exact.value, q.x))
    if abs(inner) < 0.1:
        raise DegenerateAlignmentError(
            f"inner product {inner:.3e} too small; eigenpair mismatch?")
    return uh if inner > 0.0 else uh.scaled(-1.0)


def relative_eigenvalue_error(lambda_h, lam):
    if lam <= 0.0:
        raise InvalidArgumentError(f"exact eigenvalue must be positive, got {lam}")
    return abs(lambda_h - lam) / lam


def fit_rate(records):
    """Least-squares slope of log(error) versus log(1/N) over a refinement
    ladder, skipping values at the rounding floor."""
    recs = sorted(records, key=lambda r: r.N)
    if len({r.N for r in recs}) < 3:
        raise InsufficientDataError("need >= 3 distinct refinement levels")
    usable = [r for r in recs if r.value > MACHINE_FLOOR]
    if len(usable) < 2:
        raise InsufficientDataError("all values at the rounding floor")
    logs_h = np.log([1.0 / r.N for r in usable])
    logs_e = np.log([r.value for r in usable])
    return float(np.polyfit(logs_h, logs_e, 1)[0])
