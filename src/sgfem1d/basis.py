"""Degree-p C0 nodal basis, interface enrichment, and local representation.

The FEM space uses Lagrange shape functions on p+1 equispaced nodes per
element with C0 gluing; the two boundary shape functions are dropped so
homogeneous Dirichlet conditions are built in (n_fem = p*N - 1 interior
degrees of freedom).

The enrichment is w = I_h w* - w* with w* = |x - gamma|, supported on the
interface element only and positive there.  The enriched space adds the
p+1 products w * N_j for the nodal functions of the interface element.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DiscontinuousInputError, InvalidArgumentError
from .mesh import locate
from .quadrature import composite_rule, panels


def _lagrange(p, t):
    """Values and first derivatives, each of shape (p+1,) + shape(t), of all
    p+1 equispaced Lagrange shape functions on [0, 1] at reference points t."""
    t = np.asarray(t, dtype=float)
    ts = np.linspace(0.0, 1.0, p + 1)
    d = t - ts.reshape((p + 1,) + (1,) * t.ndim)
    # L_i = pre_i suf_i / denom_i with pre_i (suf_i) the product of the
    # d_m = t - t_m over m < i (m > i); the product rule carries derivatives
    pre, suf = np.ones_like(d), np.ones_like(d)
    dpre, dsuf = np.zeros_like(d), np.zeros_like(d)
    for m in range(p):
        k = p - m
        dpre[m + 1] = dpre[m] * d[m] + pre[m]
        pre[m + 1] = pre[m] * d[m]
        dsuf[k - 1] = dsuf[k] * d[k] + suf[k]
        suf[k - 1] = suf[k] * d[k]
    denom = np.prod(ts[:, None] - ts + np.eye(p + 1), axis=1)
    denom = denom.reshape((p + 1,) + (1,) * t.ndim)
    ders = (dpre * suf + pre * dsuf) / denom
    # The derivatives of a partition of unity sum to zero.  Enforcing it
    # keeps K * const = 0 on each element to rounding: a table shared by
    # every element would otherwise repeat its error in every row of K.
    return pre * suf / denom, ders - ders.mean(axis=0)


def lagrange_all(p, t, deriv=0):
    """The values (deriv=0) or the first derivatives of _lagrange."""
    return _lagrange(p, t)[1 if deriv else 0]


@dataclass(frozen=True)
class EnrichedSpace:
    """Degree-p approximation space on a mesh, optionally SGFEM-enriched.

    enriched_set holds the global basis indices whose nodal functions are
    multiplied by the enrichment (the nodes of the interface element that
    are interior to the domain).
    """

    p: int
    mesh: object
    n_fem: int
    enriched_set: tuple
    n_enr: int
    enriched: bool

    def global_node_x(self, g):
        """Coordinate of global node g (0 <= g <= p*N)."""
        p, mesh = self.p, self.mesh
        k, i = divmod(g, p)
        if k == mesh.N:  # right domain boundary
            return mesh.nodes[-1]
        a, b = mesh.nodes[k], mesh.nodes[k + 1]
        return a + (b - a) * i / p

    def element_dofs(self, k):
        """Global indices of the p+1 nodes of element k (1-based)."""
        return np.arange((k - 1) * self.p, k * self.p + 1)

    @cached_property  # kept in the instance __dict__: freed with the space
    def norm_basis(self):
        """The (p+4)-point PanelBasis of the error norms and the alignment,
        built on first use and shared, read-only, by every later call."""
        q = panel_basis(self, self.p + 4)
        for a in (q.x, q.w, *(a for run in q.runs for a in run[1:])):
            a.setflags(write=False)
        return q


@dataclass
class DofVector:
    """Coefficients of a function in the enriched space."""

    u_F: np.ndarray
    u_E: np.ndarray

    def scaled(self, s):
        return DofVector(u_F=s * self.u_F, u_E=s * self.u_E)


def build_space(mesh, p, enrich=True):
    """Construct the degree-p space; enrichment is dropped on fitting meshes."""
    if p < 1:
        raise InvalidArgumentError(f"degree must be >= 1, got {p}")
    n_fem = p * mesh.N - 1
    enriched = bool(enrich) and not mesh.fitting
    cand = np.arange((mesh.r - 1) * p, mesh.r * p + 1) if enriched else ()
    rset = tuple(int(g) for g in cand if 1 <= g <= n_fem)
    return EnrichedSpace(p=p, mesh=mesh, n_fem=n_fem, enriched_set=rset,
                         n_enr=len(rset), enriched=enriched)


def eval_fem_basis(space, j, x, deriv=0):
    """Value or first derivative of the j-th interior global shape function."""
    if not 1 <= j <= space.n_fem:
        raise IndexError(f"basis index {j} outside 1..{space.n_fem}")
    mesh, p = space.mesh, space.p
    k = locate(mesh, x)
    i = j - (k - 1) * p
    if not 0 <= i <= p:
        return 0.0
    a, b = mesh.element_bounds(k)
    t = (x - a) / (b - a)
    v = lagrange_all(p, np.array(t), deriv)[i]
    if deriv:
        v = v / (b - a)
    return float(v)


def eval_enrichment(space, x, deriv=0):
    """The enrichment w = I_h w* - w* (w* = |x - gamma|), or its one-sided
    slope (right limit at gamma and at the left element endpoint, left limit
    at the right endpoint).  Zero outside the interface element and on
    fitting meshes.
    """
    mesh = space.mesh
    if mesh.fitting:
        return 0.0
    a, b = mesh.element_bounds(mesh.r)
    if x < a or x > b:
        return 0.0
    g = mesh.gamma
    h = b - a
    if deriv == 0:
        interp = (g - a) + (x - a) * ((b - g) - (g - a)) / h
        return interp - abs(x - g)
    slope_interp = ((b - g) - (g - a)) / h
    # d|x-gamma|/dx with right-limit convention at gamma
    dwstar = -1.0 if x < g else 1.0
    return slope_interp - dwstar


def reference_enrichment(nu, t, deriv=0):
    """Enrichment on the reference interval [0, 1] with kink at nu:
    2(1-nu)t on [0, nu], 2nu(1-t) on [nu, 1]."""
    t = np.asarray(t, dtype=float)
    if deriv == 0:
        return np.where(t <= nu, 2.0 * (1.0 - nu) * t, 2.0 * nu * (1.0 - t))
    return np.where(t < nu, 2.0 * (1.0 - nu), -2.0 * nu)


def represent_piecewise_poly(a, b, nu, p):
    """Coefficients (alpha, beta) with
    P(x) = sum_j alpha_j x^j + beta_j w(x) x^j on [0, 1],
    for the continuous piecewise polynomial P = (P0 on [0, nu], P1 on [nu, 1])
    with monomial coefficients a and b.  b[0] is overwritten to enforce
    continuity at nu.  beta[p] = 0 always; solved by back-substitution.
    """
    if not 0.0 < nu < 1.0:
        raise InvalidArgumentError(f"nu must lie in (0, 1), got {nu}")
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    if a.shape != (p + 1,) or b.shape != (p + 1,):
        raise InvalidArgumentError("coefficient arrays must have length p+1")
    # continuity at nu fixes b0
    b[0] = a[0] + sum((a[l] - b[l]) * nu**l for l in range(1, p + 1))

    # Matching monomial coefficients on each piece gives, after eliminating
    # alpha, the recursion beta_{k-1} = (a_k - b_k)/2 + nu*beta_k.
    beta = np.zeros(p + 1)
    for k in range(p, 0, -1):
        beta[k - 1] = 0.5 * (a[k] - b[k]) + nu * beta[k]
    alpha = np.empty(p + 1)
    alpha[0] = a[0]
    for k in range(1, p + 1):
        alpha[k] = a[k] - 2.0 * (1.0 - nu) * beta[k - 1]
    return alpha, beta


def _poly_interp_coeffs(f, lo, hi, p, to_ref):
    """Monomial coefficients (in the reference coordinate of the interface
    element) of the degree-p interpolant of f on [lo, hi]."""
    xs = np.linspace(lo, hi, p + 1)
    ts = to_ref(xs)
    vals = np.array([f(x) for x in xs], dtype=float)
    # Vandermonde solve; p is small so this is exact enough.
    V = np.vander(ts, p + 1, increasing=True)
    return np.linalg.solve(V, vals)


def build_interface_interpolant(u0, u1, space):
    """Piecewise degree-p Lagrange interpolant of the piecewise-smooth
    function (u0 on [0, gamma], u1 on [gamma, 1]) in the enriched space.

    Standard nodal interpolation away from the interface element; on the
    interface element the two sub-interval interpolants are converted to
    FEM + enrichment coefficients through represent_piecewise_poly.
    """
    mesh, p = space.mesh, space.p
    g = mesh.gamma
    v0, v1 = u0(g), u1(g)
    if abs(v0 - v1) > 1e-10 * (1.0 + abs(v0)):
        raise DiscontinuousInputError(
            f"u0(gamma)={v0} and u1(gamma)={v1} disagree")
    if not space.enriched:
        raise InvalidArgumentError("space must be enriched (non-fitting mesh)")

    def u(x):
        return u0(x) if x < g else u1(x)

    uF = np.array([u(space.global_node_x(j)) for j in range(1, space.n_fem + 1)])

    r = mesh.r
    a, b = mesh.element_bounds(r)
    h = b - a
    nu = (g - a) / h
    to_ref = lambda x: (np.asarray(x) - a) / h

    c0 = _poly_interp_coeffs(u0, a, g, p, to_ref)
    c1 = _poly_interp_coeffs(u1, g, b, p, to_ref)
    # nodal interpolant restricted to the interface element, same coordinates
    co = _poly_interp_coeffs(u, a, b, p, to_ref)

    alpha, beta = represent_piecewise_poly(c0 - co, c1 - co, nu, p)

    tloc = np.linspace(0.0, 1.0, p + 1)
    q = np.polynomial.polynomial.polyval(tloc, alpha)
    # polynomial correction vanishes at the element endpoints; add it only at
    # the interior nodes (never on the boundary) so neighbours stay untouched
    uF[space.element_dofs(r)[1:p] - 1] += q[1:p]
    # actual enrichment = h * reference enrichment, so coefficients shrink by h
    gb = np.polynomial.polynomial.polyval(tloc, beta) / h
    uE = gb[np.array(space.enriched_set, dtype=int) - (r - 1) * p]
    return DofVector(u_F=uF, u_E=uE)


@dataclass(frozen=True)
class PanelBasis:
    """Every basis function of a space on every integration panel, at the
    panel's Gauss points: the batched quadrature kernel.

    x, w : (panels, points) points and weights (w is None where the
        points are not a quadrature rule, as in eval_solution)
    runs : tuple of (index, rows, vals, ders), one per run of consecutive
        panels with the same functions, in panel order: the element's p+1
        Lagrange functions, and the n_enr enrichment functions after them on
        the interface element's panels.  The slice index picks the run's
        panels; rows (run panels, functions) holds global rows (FEM rows
        first, -1 for a Dirichlet boundary node, to be dropped); vals, ders
        (run panels, functions, points) are values and x-derivatives
    """

    x: np.ndarray
    w: np.ndarray
    runs: tuple

    def combine(self, dofs, deriv=0):
        """The function with coefficients dofs (or its derivative) at every
        point, shape (panels, points)."""
        c = np.concatenate([dofs.u_F, dofs.u_E, [0.0]])  # row -1 picks 0
        return np.concatenate([np.einsum("pf,pfn->pn", c[rows], ders if deriv else vals)
                               for _, rows, vals, ders in self.runs])


def _basis_runs(space, elements, t, which):
    """PanelBasis.runs for panels lying in the ascending 1-based elements,
    panel i at the reference points t[which[i]]: the runs before, in and
    after the interface element."""
    mesh, p, nf, r = space.mesh, space.p, space.n_fem, space.mesh.r
    g = (elements[:, None] - 1) * p + np.arange(p + 1)
    rows = np.where(g <= nf, g - 1, -1)
    lv, ld = _lagrange(p, t)
    h = mesh.nodes[elements] - mesh.nodes[elements - 1]
    vals, ders = lv.transpose(1, 0, 2)[which], ld.transpose(1, 0, 2)[which] / h[:, None, None]
    if not space.n_enr:
        return ((slice(None), rows, vals, ders),)
    # w = h * reference_enrichment, on the interface element only
    lo, hi = np.searchsorted(elements, (r, r + 1))
    a, b = mesh.element_bounds(r)
    nu, tk = (mesh.gamma - a) / (b - a), t[which[lo:hi]]
    w = (b - a) * reference_enrichment(nu, tk)[:, None]
    dw = reference_enrichment(nu, tk, 1)[:, None]
    local = np.array(space.enriched_set) - (r - 1) * p
    phi, dphi = vals[lo:hi, local], ders[lo:hi, local]
    enr = np.tile(nf + np.arange(len(local)), (hi - lo, 1))
    on = (slice(lo, hi), np.concatenate([rows[lo:hi], enr], 1),
          np.concatenate([vals[lo:hi], w * phi], 1),
          np.concatenate([ders[lo:hi], dw * phi + w * dphi], 1))
    before, after = ((i, rows[i], vals[i], ders[i]) for i in (slice(0, lo), slice(hi, None)))
    return tuple(run for run in (before, on, after) if len(run[1])) or (on,)


def panel_basis(space, n):
    """The n-point Gauss rule on every integration panel of the space's
    mesh (split at gamma on non-fitting meshes) with every basis function
    evaluated there, as a PanelBasis."""
    mesh = space.mesh
    elements, edges = panels(mesh)
    x, w = composite_rule(edges[:-1], edges[1:], n)
    # A panel is a whole element or, in the interface element of a
    # non-fitting mesh, one side of gamma: shape tables on these three
    # reference intervals serve every panel.
    a, b = mesh.element_bounds(mesh.r)
    nu = (mesh.gamma - a) / (b - a)
    t, _ = composite_rule([0.0, 0.0, nu], [1.0, nu, 1.0], n)
    which = np.zeros(len(elements), dtype=int)
    if not mesh.fitting:
        which[mesh.r - 1:mesh.r + 1] = (1, 2)
    return PanelBasis(x, w, _basis_runs(space, elements, t, which))


def eval_solution(space, dofs, x, deriv=0):
    """Evaluate a DofVector (or its derivative) at points x in [0, 1].  A
    point on a node belongs to the element on its left (x = 0 to the
    first); at gamma the derivative is the right limit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    o = np.argsort(x, axis=None)  # sorted points make at most three runs
    flat = x.ravel()[o, None]
    nodes = space.mesh.nodes
    elements = locate(space.mesh, flat[:, 0])
    a, b = nodes[elements - 1, None], nodes[elements, None]
    t = (flat - a) / (b - a)
    q = PanelBasis(flat, None, _basis_runs(space, elements, t,
                                           np.arange(len(flat))))
    return q.combine(dofs, deriv)[np.argsort(o), 0].reshape(x.shape)
