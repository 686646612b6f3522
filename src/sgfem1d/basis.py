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
from functools import cache, cached_property

import numpy as np

from .exceptions import DiscontinuousInputError, InvalidArgumentError
from .mesh import locate
from .quadrature import composite_rule, panels


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

    enriched_set holds the global basis indices whose nodal functions are
    multiplied by the enrichment (the nodes of the interface element that
    are interior to the domain); the counts n_fem, n_enr and the flag
    enriched are derived from p, mesh and it.
    """

    p: int
    mesh: object
    enriched_set: tuple
    n_fem = property(lambda self: self.p * self.mesh.N - 1)
    n_enr = property(lambda self: len(self.enriched_set))
    enriched = property(lambda self: bool(self.enriched_set))

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
        q = panel_basis(self, self.p + 4)
        for a in (q.x, q.w, *(a for run in q.runs for a in run[1:])):
            a.setflags(write=False)
        return q

    @cached_property  # kept in the instance __dict__: freed with the space
    def panel_layout(self):
        """What every panel_basis call shares, read-only: the panel ends lo,
        hi, followed off a node by those of [0, nu] and [nu, 1]; each panel's
        table (0: whole element, 1 and 2: the sides of gamma); the _layout."""
        elements, edges = panels(self.mesh)
        layout, which = _layout(self, elements), np.zeros(len(elements), dtype=int)
        lo, hi, nu = edges[:-1], edges[1:], layout[2]
        if not self.mesh.fitting:
            lo, hi = np.concatenate([lo, (0.0, nu)]), np.concatenate([hi, (nu, 1.0)])
            which[self.mesh.r - 1:self.mesh.r + 1] = (1, 2)
        for a in (lo, hi, which, layout[1], *(run[1] for run in layout[0])):
            a.setflags(write=False)
        return lo, hi, which, layout


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
    enriched = bool(enrich) and not mesh.fitting
    cand = range((mesh.r - 1) * p, mesh.r * p + 1) if enriched else ()
    return EnrichedSpace(p, mesh, tuple(g for g in cand if 1 <= g < p * mesh.N))


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
    v = _lagrange(p, (x - a) / (b - a))[1 if deriv else 0][i]
    return float(v / (b - a) if deriv else v)


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
        raise DiscontinuousInputError(
            f"u0(gamma)={v0} and u1(gamma)={v1} disagree")
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
    uE = gb[np.array(space.enriched_set, dtype=int) - (r - 1) * p] / h
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


@cache  # at most 30 rules per degree, read-only, shared like gauss_rule
def reference_tables(p, n):
    """The n Gauss points t of [0, 1], shape (1, n), and _lagrange(p, t)."""
    t = composite_rule([0.0], [1.0], n)[0]
    for a in (tables := (t, *_lagrange(p, t))):
        a.setflags(write=False)
    return tables


def _layout(space, elements):
    """(runs, h, nu) for panels in the ascending 1-based elements: one (index,
    rows, enr) per run, enr = (local, size) on a run with the enrichment; the
    element sizes, shape (panels, 1, 1); gamma's reference point."""
    mesh, p, nf, r = space.mesh, space.p, space.n_fem, space.mesh.r
    g = (elements[:, None] - 1) * p + np.arange(p + 1)
    rows = np.where(g <= nf, g - 1, -1)
    runs, (a, b) = ((slice(None), rows, None),), mesh.element_bounds(r)
    if space.n_enr:
        lo, hi = np.searchsorted(elements, (r, r + 1))
        local = np.array(space.enriched_set) - (r - 1) * p
        enr = np.repeat(nf + np.arange(space.n_enr)[None], hi - lo, 0)
        on = slice(lo, hi), np.concatenate([rows[lo:hi], enr], 1), (local, b - a)
        before, after = ((i, rows[i], None) for i in (slice(0, lo), slice(hi, None)))
        runs = tuple(run for run in (before, on, after) if len(run[1])) or (on,)
    h = mesh.nodes[elements] - mesh.nodes[elements - 1]
    return runs, h[:, None, None], (mesh.gamma - a) / (b - a)


def _basis_runs(runs, h, nu, t, lv, ld, which):
    """PanelBasis.runs, one by one, of a _layout (runs, h, nu): panel i at table
    which[i] of the points t, whose _lagrange tables lv, ld are (p+1, tables, n)."""
    vals, ders = lv.transpose(1, 0, 2)[which], ld.transpose(1, 0, 2)[which] / h
    for index, rows, enr in runs:
        v, d = vals[index], ders[index]
        if enr is not None:  # w = h * reference_enrichment, interface element only
            tk, (local, size) = t[which[index]], enr
            w = size * reference_enrichment(nu, tk)[:, None]
            dw = reference_enrichment(nu, tk, 1)[:, None]
            phi, dphi = v[:, local], d[:, local]
            v, d = (np.concatenate([v, w * phi], 1),
                    np.concatenate([d, dw * phi + w * dphi], 1))
        yield index, rows, v, d


def panel_basis(space, n):
    """The n-point Gauss rule on every integration panel of the space's mesh
    (split at gamma off a node) and every basis function there, as a
    PanelBasis: only the two sides of gamma need tables of their own."""
    lo, hi, which, layout = space.panel_layout
    x, w = composite_rule(lo, hi, n)
    tables = reference_tables(space.p, n)
    if not space.mesh.fitting:  # the last two rows: the sides of gamma in [0, 1]
        x, w, t = x[:-2], w[:-2], x[-2:]
        tables = [np.concatenate(a, -2) for a in zip(tables, (t, *_lagrange(space.p, t)))]
    return PanelBasis(x, w, tuple(_basis_runs(*layout, *tables, which)))


def eval_solution(space, dofs, x, deriv=0):
    """Evaluate a DofVector (or its derivative) at points x in [0, 1].  A
    point on a node belongs to the element on its left (x = 0 to the
    first); at gamma the derivative is the right limit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    o = np.argsort(x, axis=None)  # sorted points make at most three runs
    flat = x.ravel()[o, None]
    elements = locate(space.mesh, flat[:, 0])
    a, b = space.mesh.nodes[elements - 1, None], space.mesh.nodes[elements, None]
    t = (flat - a) / (b - a)
    runs = _basis_runs(*_layout(space, elements), t, *_lagrange(space.p, t), np.arange(len(t)))
    q = PanelBasis(flat, None, tuple(runs))
    return q.combine(dofs, deriv)[np.argsort(o), 0].reshape(x.shape)
