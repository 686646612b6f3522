"""Degree-p C0 nodal basis, interface enrichment, and local representation.

The FEM space uses Lagrange shape functions on p+1 equispaced nodes per
element with C0 gluing; the two boundary shape functions are dropped so
homogeneous Dirichlet conditions are built in (n_fem = p*N - 1 interior
degrees of freedom).

The enrichment is w = I_h w* - w* with w* = |x - gamma|, supported on the
interface element only and positive there.  The enriched space adds the
p+1 products w * N_j for the nodal functions of the interface element, a
boundary node's too: w, and so each product, vanishes at x = 0 and x = 1.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

import numpy as np

from .exceptions import DiscontinuousInputError, InvalidArgumentError
from .mesh import locate
from .quadrature import composite_rule, gauss_rule, panels

# Gauss point counts past p of the rules for K and M, the norms, and the load
RULES = MATRIX_RULE, NORM_RULE, LOAD_RULE = 2, 4, 6


@cache  # per degree and ndim(t): _lagrange's nodes up and down, and denominators
def _nodes(p, ndim):
    ts, tail = np.linspace(0.0, 1.0, p + 1), (1,) * ndim
    return (np.stack([ts, ts[::-1]], 1).reshape((p + 1, 2) + tail),
            np.prod(ts[:, None] - ts + np.eye(p + 1), axis=1).reshape((p + 1,) + tail))


def _lagrange(p, t):
    """Values and first derivatives, each of shape (p+1,) + shape(t), of all
    p+1 equispaced Lagrange shape functions on [0, 1] at reference points t."""
    t = np.asarray(t, dtype=float)
    nodes, denom = _nodes(p, t.ndim)
    # L_i = pre_i suf_i / denom_i, pre_i (suf_i) the product of the d_m = t - t_m
    # over m < i (m > i), in order from d[0] = 1 up column 0 (down column 1).
    d = np.ones((p + 2, 2) + t.shape)
    np.subtract(t, nodes, out=d[1:])
    prods, dprods = np.cumprod(d[:-1], axis=0), np.zeros_like(d[1:])
    dprods[1] = 1.0  # = dprods[0] * d[1] + prods[0]; the product rule goes on
    for m in range(1, p):
        dprods[m + 1] = dprods[m] * d[m + 1] + prods[m]
    pre, suf, dpre, dsuf = prods[:, 0], prods[::-1, 1], dprods[:, 0], dprods[::-1, 1]
    ders = (dpre * suf + pre * dsuf) / denom
    # The derivatives of a partition of unity sum to zero.  Enforcing it
    # keeps K * const = 0 on each element to rounding: a table shared by
    # every element would otherwise repeat its error in every row of K.
    return pre * suf / denom, ders - np.add.reduce(ders, 0) / (p + 1)


@dataclass(frozen=True)
class EnrichedSpace:
    """Degree-p approximation space on a mesh, optionally SGFEM-enriched.

    If enriched, the nodal functions of all p+1 nodes of the interface
    element are multiplied by the enrichment; the counts n_fem and n_enr are
    derived from p, mesh and the flag.
    """

    p: int
    mesh: object
    enriched: bool
    n_fem = property(lambda self: self.p * self.mesh.N - 1)
    n_enr = property(lambda self: (self.p + 1) * self.enriched)

    def global_node_x(self, g):
        """Coordinate of global node g (0 <= g <= p*N), or of each g of an array."""
        k, i = np.divmod(g, self.p)
        x = np.append(self.mesh.nodes, 1.0)  # g = p*N reads x[N] = 1.0
        return x[k] + (x[k + 1] - x[k]) * i / self.p

    def element_dofs(self, k):
        """Global indices of the p+1 nodes of element k (1-based)."""
        return np.arange((k - 1) * self.p, k * self.p + 1)

    @cached_property  # kept in the instance __dict__: freed with the space
    def norm_basis(self):
        """The (p+4)-point PanelBasis of the error norms and the alignment,
        built on first use and shared, read-only, by every later call."""
        q = panel_basis(self, self.p + NORM_RULE)
        for a in (q.x, q.w):
            a.setflags(write=False)
        return q

    @property
    def panel_layout(self):
        """What every panel_basis call shares, read-only, built once per mesh and p for
        build_space(mesh, p) and kept on the mesh: the panel ends lo, hi; each panel's Lagrange
        rows (-1: a Dirichlet boundary node) and element size h; the panels at gamma (a slice),
        their rows (enrichment last) and own tables for the p + RULES rules; the first panel of
        each distinct size (negated past gamma, 0 at it) and each panel's."""
        mesh, p, r = self.mesh, self.p, self.mesh.r
        shared = vars(mesh).setdefault("panel_layouts", {})  # freed with the mesh
        if p not in shared:
            sgfem, nf, (elements, edges) = build_space(mesh, p), self.n_fem, panels(mesh)
            g = (elements[:, None] - 1) * p + np.arange(p + 1)
            rows, lo, hi = np.where(g <= nf, g - 1, -1), edges[:-1], edges[1:]
            h = mesh.nodes[elements] - mesh.nodes[elements - 1]
            at = slice(0, 0) if mesh.fitting else slice(r - 1, r + 1)
            # every point of a whole element lies on its midpoint's side of gamma
            signed = np.where(lo + hi > 2 * mesh.gamma, -h, h)
            signed[at] = 0.0  # so the first panel of every other size is a whole element
            _, first, key = np.unique(signed, return_index=True, return_inverse=True)
            enr = nf + np.arange(sgfem.n_enr)  # the enrichment rows
            gamma_rows = np.concatenate([rows[at], np.repeat(enr[None], len(rows[at]), 0)], 1)
            for a in (lo, hi, rows, h, gamma_rows, first, key):
                a.setflags(write=False)
            tables = _gamma_tables(sgfem, h[r - 1], tuple(p + k for k in RULES))
            shared[p] = lo, hi, rows, h, at, gamma_rows, tables, first, key
        return shared[p]


@dataclass
class DofVector:
    """Coefficients of a function in the enriched space."""

    u_F: np.ndarray
    u_E: np.ndarray

    def scaled(self, s):
        return DofVector(u_F=s * self.u_F, u_E=s * self.u_E)


def build_space(mesh, p, enrich=True):
    """Construct the degree-p space, with the p+1 products w N_j unless the mesh fits."""
    if p != int(p) or p < 1:
        raise InvalidArgumentError(f"degree must be a whole number >= 1, got {p}")
    return EnrichedSpace(int(p), mesh, bool(enrich) and not mesh.fitting)


def eval_fem_basis(space, j, x, deriv=0):
    """Value or first derivative of the j-th interior global shape function."""
    if not 1 <= j <= space.n_fem:
        raise IndexError(f"basis index {j} outside 1..{space.n_fem}")
    mesh, p, k = space.mesh, space.p, locate(space.mesh, x)
    i = j - (k - 1) * p
    if not 0 <= i <= p:
        return 0.0
    a, b = mesh.element_bounds(k)
    v = _lagrange(p, (x - a) / (b - a))[1 if deriv else 0][i]
    return float(v / (b - a) if deriv else v)


def eval_enrichment(space, x, deriv=0):
    """The enrichment w = I_h w* - w* (w* = |x - gamma|), or its one-sided
    slope (right limit at gamma and at the left element endpoint, left limit
    at the right endpoint).  Zero outside the interface element and on
    fitting meshes.
    """
    mesh = space.mesh
    a, b = mesh.element_bounds(mesh.r)
    if mesh.fitting or x < a or x > b:
        return 0.0
    g, h = mesh.gamma, b - a
    if deriv == 0:  # the interpolant of w* at a and b, minus w*
        return (g - a) + (x - a) * ((b - g) - (g - a)) / h - abs(x - g)
    # the interpolant's slope minus d|x-gamma|/dx, its right limit at gamma
    return ((b - g) - (g - a)) / h - (-1.0 if x < g else 1.0)


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
    a, b = (np.array(c, dtype=float) for c in (a, b))  # copies
    if a.shape != (p + 1,) or b.shape != (p + 1,):
        raise InvalidArgumentError("coefficient arrays must have length p+1")
    b[0] = a[0] + sum((a[l] - b[l]) * nu**l for l in range(1, p + 1))  # continuity at nu
    # Matching monomial coefficients on each piece gives, after eliminating
    # alpha, the recursion beta_{k-1} = (a_k - b_k)/2 + nu*beta_k; then
    # alpha_k = a_k - 2 (1 - nu) beta_{k-1}, with alpha_0 = a_0.
    beta = np.zeros(p + 1)
    for k in range(p, 0, -1):
        beta[k - 1] = 0.5 * (a[k] - b[k]) + nu * beta[k]
    return a - 2.0 * (1.0 - nu) * np.append(0.0, beta[:-1]), beta


def build_interface_interpolant(u0, u1, space):
    """Piecewise degree-p Lagrange interpolant of the piecewise-smooth
    function (u0 on [0, gamma], u1 on [gamma, 1]) in the enriched space.

    Standard nodal interpolation away from the interface element; on the
    interface element the two sub-interval interpolants are converted to
    FEM + enrichment coefficients through represent_piecewise_poly.
    """
    mesh, p, g = space.mesh, space.p, space.mesh.gamma
    v0, v1 = u0(g), u1(g)
    if abs(v0 - v1) > 1e-10 * (1.0 + abs(v0)):
        raise DiscontinuousInputError(f"u0(gamma)={v0} and u1(gamma)={v1} disagree")
    if not space.enriched:
        raise InvalidArgumentError("space must be enriched (non-fitting mesh)")

    u = lambda x: u0(x) if x < g else u1(x)  # one interior node at a time
    uF = np.array([u(x) for x in space.global_node_x(np.arange(1, space.n_fem + 1))])
    r, (a, b) = mesh.r, mesh.element_bounds(mesh.r)
    h = b - a

    def coeffs(f, lo, hi):  # of f's degree-p interpolant on [lo, hi], in t
        xs = np.linspace(lo, hi, p + 1)
        V = np.vander((xs - a) / h, p + 1, increasing=True)  # p is small
        return np.linalg.solve(V, np.array([f(x) for x in xs], dtype=float))

    # co: the nodal interpolant on the interface element, same coordinates
    c0, c1, co = coeffs(u0, a, g), coeffs(u1, g, b), coeffs(u, a, b)
    alpha, beta = represent_piecewise_poly(c0 - co, c1 - co, (g - a) / h, p)

    q, gb = (np.polynomial.polynomial.polyval(np.linspace(0.0, 1.0, p + 1), c)
             for c in (alpha, beta))
    # polynomial correction vanishes at the element endpoints; add it only at
    # the interior nodes (never on the boundary) so neighbours stay untouched
    uF[space.element_dofs(r)[1:p] - 1] += q[1:p]
    # actual enrichment = h * reference enrichment, so coefficients shrink by h
    return DofVector(u_F=uF, u_E=gb / h)


@dataclass(frozen=True)
class PanelBasis:
    """Every basis function of a space on every integration panel, at its n Gauss points x
    with weights w, both (panels, n).  Whole elements read the shared reference_tables vals
    and ders (p+1, n) through the layout's rows and h (ders / h: x-derivatives); gamma is
    (index, rows, vals, ders): the panels at gamma (a slice), their rows and own tables."""

    x: np.ndarray
    w: np.ndarray
    rows: np.ndarray
    h: np.ndarray
    vals: np.ndarray
    ders: np.ndarray
    gamma: tuple

    def combine(self, dofs, deriv=0):
        """The function with coefficients dofs (or its derivative) at every
        point, shape (panels, points)."""
        c = np.concatenate([dofs.u_F, dofs.u_E, [0.0]])  # row -1 picks 0
        out = c[self.rows] @ self.ders / self.h if deriv else c[self.rows] @ self.vals
        at, rows, vals, ders = self.gamma
        out[at] = np.einsum("pf,pfn->pn", c[rows], ders if deriv else vals)
        return out


@cache  # at most 30 rules per degree, read-only, shared like gauss_rule
def reference_tables(p, n):
    """The n Gauss points t of [0, 1], shape (1, n), and _lagrange(p, t)."""
    t = composite_rule([0.0], [1.0], n)[0]
    for a in (tables := (t, *_lagrange(p, t))):
        a.setflags(write=False)
    return tables


def _enrichment(space, t, vals, ders):
    """Values and x-derivatives, function axis first, of the enrichment functions w N_j (if
    any) at points t of the interface element's [0, 1], from its Lagrange vals and x-ders."""
    mesh, n = space.mesh, space.n_enr
    a, b = mesh.element_bounds(mesh.r)
    nu = (mesh.gamma - a) / (b - a)
    w, dw = (b - a) * reference_enrichment(nu, t), reference_enrichment(nu, t, 1)
    return w * vals[:n], dw * vals[:n] + w * ders[:n]


@cache  # per tuple of point counts, read-only, like gauss_rule
def _joint_points(ns):
    """The points on [-1, 1] of the Gauss rules of ns points, side by side."""
    (points := np.concatenate([gauss_rule(n).points for n in ns])).setflags(write=False)
    return points


def _gamma_tables(space, h, ns):
    """{n: (vals, ders)}, read-only, (panels, functions, n), of every function on [0, nu] and
    [nu, 1] of the interface element (size h), from one _lagrange and _enrichment call."""
    mesh, p = space.mesh, space.p
    if mesh.fitting:
        return {n: 2 * (np.empty((0, p + 1, n)),) for n in ns}
    nu = float((mesh.gamma - mesh.nodes[mesh.r - 1]) / h)
    # composite_rule's mid + half * points on the two panels, in floats: the same bits
    mid, half = [[0.5 * nu], [0.5 * (nu + 1.0)]], [[0.5 * nu], [0.5 * (1.0 - nu)]]
    t = np.add(mid, np.multiply(half, _joint_points(ns)))
    gv, gd = _lagrange(p, t)
    gd = gd / h
    gv, gd = (np.concatenate(f).transpose(1, 0, 2)
              for f in zip((gv, gd), _enrichment(space, t, gv, gd)))
    for f in (gv, gd):
        f.setflags(write=False)
    return {n: (gv[..., e - n:e], gd[..., e - n:e]) for n, e in zip(ns, accumulate(ns))}


def panel_basis(space, n):
    """The n-point Gauss rule (n in p + RULES) on every integration panel of the
    space's mesh (split at gamma off a node) and every basis function there, as
    a PanelBasis: whole elements read the shared reference table, the sides of
    gamma the layout's tables."""
    lo, hi, rows, h, at, gamma_rows, tables = space.panel_layout[:7]
    x, w = composite_rule(lo, hi, n)
    _, vals, ders = reference_tables(space.p, n)
    gv, gd = tables[n]
    m = space.p + 1 + space.n_enr  # an unenriched space's functions end before the enrichment
    return PanelBasis(x, w, rows, h[:, None], vals[:, 0], ders[:, 0],
                      (at, gamma_rows[:, :m], gv[:, :m], gd[:, :m]))


def eval_solution(space, dofs, x, deriv=0):
    """Evaluate a DofVector (or its derivative) at points x in [0, 1].  A
    point on a node belongs to the element on its left (x = 0 to the
    first); at gamma the derivative is the right limit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mesh, p, k = space.mesh, space.p, locate(space.mesh, x.ravel())
    c = np.concatenate([dofs.u_F, dofs.u_E, [0.0]])  # row -1 picks 0
    a, b = mesh.nodes[k - 1], mesh.nodes[k]
    vals, ders = _lagrange(p, t := (x.ravel() - a) / (b - a))
    ders, g = ders / (b - a), (k - 1) * p + np.arange(p + 1)[:, None]
    out = np.sum(c[np.where(g <= space.n_fem, g - 1, -1)] * (ders if deriv else vals), 0)
    on = k == mesh.r  # the enrichment, if any, lives on the interface element
    out[on] += dofs.u_E @ _enrichment(space, t[on], vals[:, on], ders[:, on])[deriv]
    return out.reshape(x.shape)
