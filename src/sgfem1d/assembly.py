"""Block stiffness/mass/load assembly for FEM and SGFEM.

All integrals use panel-wise Gauss quadrature split at the interface
(basis.panel_basis), so every integrand is a (piecewise) polynomial on
each panel; p+2 points per panel integrate the enrichment products
exactly.  A whole element's matrices depend only on its size and side of
gamma, so there is one per distinct pair; with the two panels at gamma they
are joined in panel order and summed by one scatter straight into LAPACK's
column-major lower band storage, in the row order the solver factors in,
held once as densela.BandMatrix objects: O(ndof) memory, no solver copies
a band, and a dense matrix only where np.asarray asks for one.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import LOAD_RULE, MATRIX_RULE, panel_basis
from .densela import BandMatrix, _band_form
from .exceptions import CoefficientNotPositiveError, InvalidArgumentError
from .quadrature import sample


@dataclass
class InterfaceProblem:
    """Diffusion coefficient, the number kappa0 on [0, gamma] and the number
    kappa1 on (gamma, 1], and an optional source term."""

    gamma: float
    kappa0: float = 1.0
    kappa1: float = 1.0
    source: Optional[Callable] = None

    def kappa(self, x):
        return np.where(np.asarray(x, dtype=float) <= self.gamma, self.kappa0, self.kappa1)


class BlockSystem:
    """Assembled stiffness K, mass M and, for a source problem, load F
    (else None), read-only, FEM rows first and enrichment rows after.  K and
    M are densela.BandMatrix objects over lower bands in the solver's order
    (M's built by ``mass`` on first read: a source problem needs only K and
    F).  K_FF, K_FE and K_EE are scipy CSR blocks of K.csr."""

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


def _in_panel_order(whole, gamma, at):
    """whole's per-panel entries, gamma's for the panels at gamma (slice at), flat."""
    return np.concatenate([a.ravel() for a in (whole[:at.start], gamma, whole[at.stop:])])


def assemble(space, prob):
    """Assemble the block stiffness/mass system (and load if a source is
    present); the mass matrix is built when it is first read."""
    if abs(prob.gamma - space.mesh.gamma) > 1e-13:
        raise InvalidArgumentError("problem and mesh disagree on gamma")
    if not all(0.0 < k < np.inf for k in (prob.kappa0, prob.kappa1)):
        raise CoefficientNotPositiveError(
            f"kappa = ({prob.kappa0}, {prob.kappa1}) not positive and finite")
    ndof = space.n_fem + space.n_enr
    F = None
    if prob.source is not None:
        # the source term need not be polynomial, so the load uses a finer rule
        q = panel_basis(space, space.p + LOAD_RULE)
        g = q.w * sample(prob.source, q.x)
        at, rows, vals, _ = q.gamma
        load = np.einsum("pfn,pn->pf", vals, g[at])
        F = np.bincount(_in_panel_order(q.rows, rows, at) + 1,  # bin 0 takes row -1
                        _in_panel_order(g @ q.vals.T, load, at), minlength=ndof + 1)[1:]
    q = panel_basis(space, space.p + MATRIX_RULE)
    (at, rows, vals, ders), (first, key) = q.gamma, space.panel_layout[7:]
    # K and M couple the rows sharing a panel; one element matrix per size and side
    i = _in_panel_order(*(np.repeat(r, r.shape[1], 1) for r in (q.rows, rows)), at)
    j = _in_panel_order(*(np.tile(r, r.shape[1]) for r in (q.rows, rows)), at)
    order, band = _band_form(ndof, i, j)
    w, wg, lagrange = q.w[first], q.w[at].copy(), q.vals[None]  # M's, kept small
    K = _in_panel_order(_gram(q.ders / q.h[first, :, None], prob.kappa(q.x[first]) * w)[key],
                        _gram(ders, prob.kappa(q.x[at]) * wg), at)
    return BlockSystem(order, band(K), lambda: band(_in_panel_order(
        _gram(lagrange, w)[key], _gram(vals, wg), at)), F, space.n_fem)
