"""Block stiffness/mass/load assembly for FEM and SGFEM.

All integrals use panel-wise Gauss quadrature split at the interface
(basis.panel_basis), so every integrand is a (piecewise) polynomial on
each panel; p+2 points per panel integrate the enrichment products
exactly.  The element matrices come from one contraction per run of
panels (each at the width of the functions living on it), joined in panel
order and summed by one scatter straight into LAPACK lower band storage, in
the row order the solver factors in, held as densela.BandMatrix objects:
O(ndof) memory, and a dense matrix only where np.asarray asks for one.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import panel_basis
from .densela import BandMatrix, _band_form
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
    (else None), read-only, FEM rows first and enrichment rows after.  K and
    M are densela.BandMatrix objects over lower bands in the solver's order
    (M's built by ``mass`` on first read: a source problem needs only K and
    F).  K_FF, K_FE and K_EE are views into the dense np.asarray(K), which
    only benchmarks/spans.py reads, until it reads K's band instead."""

    def __init__(self, order, kb, mass, F, n_fem):
        if F is not None:
            F.setflags(write=False)
        self._order, self._F, self.n_fem = order, F, n_fem
        self._bands, self._mats = {"K": lambda: kb, "M": mass}, {}

    def _matrix(self, name):
        if name not in self._mats:
            self._mats[name] = BandMatrix(self._order, self._bands.pop(name)())
        return self._mats[name]

    K = property(lambda self: self._matrix("K"))
    M = property(lambda self: self._matrix("M"))
    F = property(lambda self: self._F)
    K_FF = property(lambda self: self.K[:self.n_fem, :self.n_fem])
    K_FE = property(lambda self: self.K[:self.n_fem, self.n_fem:])
    K_EE = property(lambda self: self.K[self.n_fem:, self.n_fem:])


def _gram(f, weight):
    """Symmetric element matrices sum_q f_i f_j weight over each panel."""
    E = (f * weight[:, None, :]) @ f.transpose(0, 2, 1)
    return 0.5 * (E + E.transpose(0, 2, 1))


def _flat(arrays):
    """The entries of the arrays, in order, as one flat array."""
    return np.concatenate([a.ravel() for a in arrays])


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
        g = q.w * sample(prob.source, q.x)
        rows = _flat(r for _, r, _, _ in q.runs) + 1  # bin 0 takes row -1
        load = _flat(np.einsum("pfn,pn->pf", v, g[i]) for i, _, v, _ in q.runs)
        F = np.bincount(rows, load, minlength=ndof + 1)[1:]
    q = panel_basis(space, space.p + 2)
    kap = sample(prob.kappa, q.x)
    bad = ~((kap > 0.0) & (kap < np.inf))
    if bad.any():
        raise CoefficientNotPositiveError(
            f"kappa = {kap[bad][0]} not positive and finite at x={q.x[bad][0]:.6g}")
    # K and M couple the rows that share a panel: every run's element
    # matrices, in panel order
    rows = [np.repeat(r[:, :, None], r.shape[1], 2) for _, r, _, _ in q.runs]
    order, band = _band_form(ndof, _flat(rows), _flat(r.transpose(0, 2, 1) for r in rows))
    kw = kap * q.w
    return BlockSystem(order, band(_flat(_gram(d, kw[i]) for i, _, _, d in q.runs)),
                       lambda: band(_flat(_gram(v, q.w[i]) for i, _, v, _ in q.runs)),
                       F, space.n_fem)
