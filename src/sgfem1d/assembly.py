"""Block stiffness/mass/load assembly for FEM and SGFEM.

All integrals use panel-wise Gauss quadrature split at the interface
(basis.panel_basis); p+2 points per panel integrate the enrichment products
exactly.  A whole element's matrices depend only on its size and side of gamma,
one per distinct pair.  In 1D the solver's row order and LAPACK's column-major
lower band follow from the element chain: strided writes lay the elements (the
interface element as the sum of its two panels) with the sums of panel order,
in O(ndof) memory and no index per entry, as densela.BandMatrix objects.
"""

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .basis import LOAD_RULE, MATRIX_RULE, panel_basis
from .densela import BandMatrix
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
    """Assembled stiffness K, mass M and, for a source problem, load F (else None), read-only,
    FEM rows first.  It keeps assemble's element chain; K and M are densela.BandMatrix objects
    laid from it on first read.  K_FF, K_FE and K_EE are CSR blocks of K.csr."""

    def __init__(self, chain, F, n_fem):
        self._chain, self._F, self.n_fem, self._laid = chain, F, n_fem, {}

    def _lay(self, i):  # matrix i (0: K, 1: M) of the chain, laid by _band once
        return self._laid.get(i) or self._laid.setdefault(i, _band(*self._chain[i]))

    K = property(lambda self: self._lay(0))
    M = property(lambda self: self._lay(1))
    F = property(lambda self: self._F)
    K_FF = property(lambda self: self.K[:self.n_fem, :self.n_fem])
    K_FE = property(lambda self: self.K[:self.n_fem, self.n_fem:])
    K_EE = property(lambda self: self.K[self.n_fem:, self.n_fem:])


def _gram(f, weight):
    """Symmetric element matrices sum_q f_i f_j weight over each panel, flat, and a zero."""
    E = (f * weight[:, None, :]) @ f.transpose(0, 2, 1)
    E = 0.5 * (E + E.transpose(0, 2, 1))
    return np.hstack([E.reshape(len(E), E.shape[1] ** 2), np.zeros((len(E), 1))])


@cache
def _skew(m, ix, width):
    """At [b, d]: the flat index of entry (ix[b + d], ix[b]) of an m x m matrix, else -1."""
    ix, (b, d) = np.array(ix + (-1,) * width), np.indices((len(ix), width))
    return np.where((ix[b + d] >= 0) & (ix[b] >= 0), ix[b + d] * m + ix[b], -1)


def _band(whole, gamma, order, p, key, ge, W, s, ne, ix):
    """A BandMatrix in row order `order`, its W lower diagonals column-major: the _grams of
    whole[key] and element ge's G1 + G2 (of gamma), laid along the chain (see assemble)."""
    grams, gamma = _gram(*whole), _gram(*gamma)
    N, B = len(key), np.zeros((len(key) * p + ne + 1, W))  # B[c + 1, d]: below position c
    k, grams[key[ge]] = -(-s // p) if ne else N, 0.0  # element k straddles FEM row s - 1
    # an element's entry (b + d, b), b < p, at [b, d] (+ 0.0: no signed zeros); (p, p) apart
    S, V = grams[:, _skew(p + 1, tuple(range(p + 1)), W)[:p]] + 0.0, grams[key, -2]
    for e0, e1, c in ((0, k, 0), (k, N, k * p + ne))[:1 + (k < N)]:  # c: element e0's node 0
        np.take(S, key[e0:e1], 0, B[c:c + (e1 - e0) * p].reshape(e1 - e0, p, W), "clip")
        B[c + p::p, 0][:e1 - e0] += V[e0:e1]
    np.fill_diagonal(B[-1 - p:-1][::-1, 1:], 0.0)  # element N's last row, the boundary's
    if k < N:  # element k's node 0 lies before the enrichment rows, not after
        B[s, 0] += B[s + ne, 0]
        B[s, ne + 1:], B[s + ne, :p + 1] = B[s + ne, 1:W - ne], 0.0
    if len(gamma):  # panel order sums element ge's node 0 as (left + G1) + G2
        B[ge.start * p:][:len(ix)] += (gamma[0] + gamma[1])[_skew(p + 1 + ne, ix, W)]
        B[ge.start * p, 0] = (V[ge.start - 1] + gamma[0, 0]) + gamma[1, 0]
    return BandMatrix(order, B[1:-1].T)


def assemble(space, prob):
    """The BlockSystem of prob on space: F if prob has a source, and K's and M's element chain,
    the _gram inputs of each whole-element key and of the gamma panels, and one layout."""
    if abs(prob.gamma - space.mesh.gamma) > 1e-13:
        raise InvalidArgumentError("problem and mesh disagree on gamma")
    if not all(0.0 < k < np.inf for k in (prob.kappa0, prob.kappa1)):
        raise CoefficientNotPositiveError(
            f"kappa = ({prob.kappa0}, {prob.kappa1}) not positive and finite")
    p, nf, ne, N, r = space.p, space.n_fem, space.n_enr, space.mesh.N, space.mesh.r
    at, first, key = space.panel_layout[4], *space.panel_layout[7:]
    ge = slice(at.start, (at.start + at.stop) // 2)  # the interface element: panel 1's key
    s = min(p * r + (p * r == 1), nf) if ne else nf  # the enrichment after FEM row s - 1
    F = None
    if prob.source is not None:
        q = panel_basis(space, p + LOAD_RULE)  # finer: the source need not be polynomial
        g = q.w * sample(prob.source, q.x)
        L = np.delete(g @ q.vals.T, slice(ge.stop, at.stop), 0)
        load, L[ge] = np.einsum("pfn,pn->pf", q.gamma[2], g[at]), 0.0
        F = np.zeros(nf + ne + 2)  # laid as in _band, in natural order; panel order sums
        F[p:N * p:p] += L[:-1, p]  # the vertices left of gamma first, right of it last
        # the interface element's rows, -1 (a boundary's) into F[0], panel 1 then panel 2
        np.add.at(F, space.panel_layout[5][:, :p + 1 + ne] + 1, load)
        F[:N * p] += L[:, :p].ravel()
        F = F[1:-1]
        F.setflags(write=False)
    q = panel_basis(space, p + MATRIX_RULE)
    (_, _, vals, ders), w, wg = q.gamma, q.w[first], q.w[at].copy()  # copies: kept in chain
    # W diagonals; ix: the interface element's rows by position from its node 0 (-1: a gap)
    W = 1 + max(p - (N == 2), ne + min(p, nf - s), ne and s + ne - 1 - max(p * r - p - 1, 0))
    ix = (*range(p + (r < N)), *[-1] * (s > p * r), *range(p + 1, p + 1 + ne))
    order = np.concatenate([np.arange(s), np.arange(nf, nf + ne), np.arange(s, nf)])
    layout = order, p, np.delete(key, slice(ge.stop, at.stop)), ge, W, s, ne, ix
    K = ((q.ders / q.h[first, :, None], prob.kappa(q.x[first]) * w),
         (ders, prob.kappa(q.x[at]) * wg), *layout)
    return BlockSystem((K, ((q.vals[None], w), (vals, wg), *layout)), F, nf)
