"""Block stiffness/mass/load assembly for FEM and SGFEM.

All integrals use panel-wise Gauss quadrature split at the interface
(basis.panel_basis), so every integrand is a (piecewise) polynomial on
each panel; p+2 points per panel integrate the enrichment products
exactly.  The element matrices of all panels come from one contraction
and are summed into the global matrix by one scatter.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import panel_basis
from .exceptions import CoefficientNotPositiveError, InvalidArgumentError
from .quadrature import sample


@dataclass
class InterfaceProblem:
    """Piecewise diffusion coefficient with interface at gamma and an
    optional source term.  kappa0/kappa1 may be constants or callables."""

    gamma: float
    kappa0: object = 1.0
    kappa1: object = 1.0
    source: Optional[Callable] = None

    def kappa(self, x):
        x = np.asarray(x, dtype=float)
        k0 = self.kappa0(x) if callable(self.kappa0) else self.kappa0
        k1 = self.kappa1(x) if callable(self.kappa1) else self.kappa1
        return np.where(x <= self.gamma, k0, k1)


class BlockSystem:
    """Assembled stiffness K, mass M and, for a source problem, load F
    (else None), read-only, FEM rows first and enrichment rows after.  M is
    built by the zero-argument callable ``mass`` on first access (a source
    problem needs only K and F) and kept.  The 2x2 blocks K_FF..M_EE and
    F_F, F_E are views into them."""

    def __init__(self, K, mass, F, n_fem):
        for a in (K,) if F is None else (K, F):
            a.setflags(write=False)
        self._K, self._mass, self._M, self._F = K, mass, None, F
        self.n_fem = n_fem

    @property
    def M(self):
        if self._M is None:
            self._M = self._mass()
            self._M.setflags(write=False)
            self._mass = None
        return self._M

    K = property(lambda self: self._K)
    F = property(lambda self: self._F)
    K_FF = property(lambda self: self._K[:self.n_fem, :self.n_fem])
    K_FE = property(lambda self: self._K[:self.n_fem, self.n_fem:])
    K_EF = property(lambda self: self._K[self.n_fem:, :self.n_fem])
    K_EE = property(lambda self: self._K[self.n_fem:, self.n_fem:])
    M_FF = property(lambda self: self.M[:self.n_fem, :self.n_fem])
    M_FE = property(lambda self: self.M[:self.n_fem, self.n_fem:])
    M_EF = property(lambda self: self.M[self.n_fem:, :self.n_fem])
    M_EE = property(lambda self: self.M[self.n_fem:, self.n_fem:])
    F_F = property(lambda self: None if self._F is None else self._F[:self.n_fem])
    F_E = property(lambda self: None if self._F is None else self._F[self.n_fem:])


def _scatter(index, local, size):
    """Sum the entries of local into a vector of the given size at the
    flat positions index (same shape as local); index -1 drops an entry."""
    # Dropped entries land in one extra bin, cut off below.  bincount adds
    # in input order, so (i, j) and (j, i) of symmetric element matrices
    # give an exactly symmetric global matrix.
    return np.bincount(np.where(index >= 0, index, size).ravel(),
                       weights=local.ravel(), minlength=size + 1)[:size]


def _gram(f, weight):
    """Symmetric element matrices sum_q f_i f_j weight over each panel."""
    E = (f * weight[:, None, :]) @ f.transpose(0, 2, 1)
    return 0.5 * (E + E.transpose(0, 2, 1))


def assemble(space, prob):
    """Assemble the block stiffness/mass system (and load if a source is
    present); the mass matrix is built when it is first read."""
    if abs(prob.gamma - space.mesh.gamma) > 1e-13:
        raise InvalidArgumentError("problem and mesh disagree on gamma")
    ndof = space.n_fem + space.n_enr
    F = None
    if prob.source is not None:
        # the source term need not be polynomial, so the load uses a finer rule
        q = panel_basis(space, space.p + 6)
        F = _scatter(q.rows, np.einsum("pfn,pn->pf", q.vals,
                                       q.w * sample(prob.source, q.x)), ndof)
    q = panel_basis(space, space.p + 2)
    kap = sample(prob.kappa, q.x)
    bad = ~((kap > 0.0) & (kap < np.inf))
    if bad.any():
        raise CoefficientNotPositiveError(
            f"kappa = {kap[bad][0]} not positive and finite at x={q.x[bad][0]:.6g}")
    i, j = q.rows[:, :, None], q.rows[:, None, :]
    index = np.where((i >= 0) & (j >= 0), i * ndof + j, -1)
    K = _scatter(index, _gram(q.ders, kap * q.w), ndof * ndof)

    def mass():
        return _scatter(index, _gram(q.vals, q.w), ndof * ndof).reshape(ndof, ndof)

    return BlockSystem(K.reshape(ndof, ndof), mass, F, space.n_fem)

