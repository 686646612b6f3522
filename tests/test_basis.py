"""Nodal basis, enrichment function, and enriched-space representation."""

import dataclasses
import gc
import weakref
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgfem1d.basis
from sgfem1d import (DofVector, build_interface_interpolant, build_space,
                     build_uniform_mesh, eval_enrichment, eval_fem_basis,
                     eval_solution, represent_piecewise_poly)
from sgfem1d.basis import (RULES, EnrichedSpace, _lagrange, panel_basis,
                           reference_enrichment, reference_tables)
from sgfem1d.exceptions import (DiscontinuousInputError, InvalidArgumentError,
                                OutOfDomainError)
from sgfem1d.quadrature import composite_rule, panels

polyval = np.polynomial.polynomial.polyval


# ---------------------------------------------------------------------------
# Lagrange shape functions

@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_partition_of_unity(p):
    t = np.linspace(0.0, 1.0, 57)
    vals = _lagrange(p, t)[0]
    np.testing.assert_allclose(vals.sum(axis=0), 1.0, atol=1e-12)
    ders = _lagrange(p, t)[1]
    np.testing.assert_allclose(ders.sum(axis=0), 0.0, atol=1e-11)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_kronecker_delta_at_nodes(p):
    ts = np.linspace(0.0, 1.0, p + 1)
    vals = _lagrange(p, ts)[0]
    np.testing.assert_allclose(vals, np.eye(p + 1), atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_shape_derivative_vs_finite_difference(p):
    t = np.linspace(0.05, 0.95, 19)
    eps = 1e-6
    fd = (_lagrange(p, t + eps)[0] - _lagrange(p, t - eps)[0]) / (2 * eps)
    np.testing.assert_allclose(_lagrange(p, t)[1], fd, atol=1e-7)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_degree_p_polynomial_reproduced(p):
    # nodal combination of shape functions reproduces t^p
    t = np.linspace(0.0, 1.0, 33)
    nodes = np.linspace(0.0, 1.0, p + 1)
    combo = (nodes[:, None] ** p * _lagrange(p, t)[0]).sum(axis=0)
    np.testing.assert_allclose(combo, t**p, atol=1e-12)


def _lagrange_loop(p, t):
    """The product-rule recurrence one statement per product, as _lagrange
    computed it before its prefix and suffix products shared one array."""
    t = np.asarray(t, dtype=float)
    ts = np.linspace(0.0, 1.0, p + 1)
    d = t - ts.reshape((p + 1,) + (1,) * t.ndim)
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
    return pre * suf / denom, ders - ders.mean(axis=0)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_lagrange_equals_the_loop_recurrence_bit_for_bit(p):
    rng = np.random.default_rng(p)
    for t in (0.3, rng.random(7), rng.random((2, 9)), rng.random((5, 1))):
        for got, want in zip(_lagrange(p, t), _lagrange_loop(p, t)):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_lagrange_at_a_scalar_matches_a_one_point_array(p):
    for deriv in (0, 1):
        got = _lagrange(p, 0.3)[deriv]
        assert got.shape == (p + 1,)
        assert np.array_equal(got, _lagrange(p, np.array([0.3]))[deriv][:, 0])


# ---------------------------------------------------------------------------
# space construction

@pytest.mark.parametrize("p,N", [(1, 10), (2, 10), (3, 10), (3, 160)])
def test_space_dimensions(p, N):
    mesh = build_uniform_mesh(N, 1.0 / 3.0)
    space = build_space(mesh, p)
    assert space.n_fem == p * N - 1
    assert space.n_enr == p + 1  # interface element is interior here
    fem = build_space(mesh, p, enrich=False)
    assert fem.n_enr == 0 and not fem.enriched


def test_fitting_mesh_disables_enrichment():
    mesh = build_uniform_mesh(12, 1.0 / 3.0)
    space = build_space(mesh, 2, enrich=True)
    assert not space.enriched
    assert space.n_enr == 0


def test_global_node_coordinates():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 3)
    assert space.global_node_x(0) == 0.0
    assert space.global_node_x(30) == 1.0
    assert space.global_node_x(3) == pytest.approx(0.1)
    assert space.global_node_x(5) == pytest.approx(0.1 + 2 * 0.1 / 3)


@pytest.mark.parametrize("p,N,gamma", [(1, 7, 0.3), (3, 10, 1.0 / 3.0),
                                       (4, 41, 1.0 / np.pi), (6, 160, 0.99)])
def test_global_node_x_array_matches_scalar_calls(p, N, gamma):
    space = build_space(build_uniform_mesh(N, gamma), p)
    g = np.arange(p * N + 1)
    want = np.array([space.global_node_x(int(j)) for j in g])
    assert space.global_node_x(g).tobytes() == want.tobytes()
    assert space.global_node_x(p * N) == 1.0


def test_invalid_degree_rejected():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    with pytest.raises(InvalidArgumentError):
        build_space(mesh, 0)


def test_degree_must_be_a_whole_number():
    # 2.5 used to give n_fem = 24.0, and assemble then raised a TypeError
    mesh = build_uniform_mesh(10, 0.3)
    for p in (2.5, 1.5, np.float64(3.25)):
        with pytest.raises(InvalidArgumentError, match="whole number"):
            build_space(mesh, p)
    for p in (2.0, np.int64(2), np.float64(2.0)):
        space = build_space(mesh, p)
        assert type(space.p) is int and space == build_space(mesh, 2)
        assert type(space.n_fem) is int and space.n_fem == 19


@pytest.mark.parametrize("gamma", [1.0 / 3.0, 0.5, 0.01, 0.99])
@pytest.mark.parametrize("enrich", [False, True])
def test_counts_are_derived_from_the_space(gamma, enrich):
    # a space stores p, mesh and the enriched flag only: no constructor can
    # be given counts that disagree with them
    mesh = build_uniform_mesh(10, gamma)
    space = build_space(mesh, 3, enrich=enrich)
    assert [f.name for f in dataclasses.fields(space)] == ["p", "mesh", "enriched"]
    assert space.n_fem == 3 * 10 - 1
    assert space.enriched == (enrich and not mesh.fitting)
    # every node of the interface element, the boundary node included when
    # gamma lies in the first (0.01) or the last (0.99) element
    assert space.n_enr == (4 if space.enriched else 0)
    with pytest.raises(TypeError):
        EnrichedSpace(p=3, mesh=mesh, enriched=False, n_fem=29)


def test_fem_basis_index_out_of_range():
    space = build_space(build_uniform_mesh(10, 1.0 / 3.0), 2)
    for j in (0, space.n_fem + 1):
        with pytest.raises(IndexError, match="outside 1..19"):
            eval_fem_basis(space, j, 0.5)


# ---------------------------------------------------------------------------
# enrichment function

def _interface_space(N=10, p=2, gamma=1.0 / 3.0):
    mesh = build_uniform_mesh(N, gamma)
    return build_space(mesh, p)


def test_enrichment_support_and_sign():
    space = _interface_space()
    mesh = space.mesh
    a, b = mesh.element_bounds(mesh.r)
    assert eval_enrichment(space, a - 1e-6) == 0.0
    assert eval_enrichment(space, b + 1e-6) == 0.0
    assert eval_enrichment(space, a) == pytest.approx(0.0, abs=1e-15)
    assert eval_enrichment(space, b) == pytest.approx(0.0, abs=1e-15)
    for x in np.linspace(a + 1e-9, b - 1e-9, 41):
        assert eval_enrichment(space, x) > 0.0


def test_enrichment_peak_value_at_interface():
    # w(gamma) = 2 (x_r - gamma)(gamma - x_{r-1}) / h
    space = _interface_space()
    mesh = space.mesh
    a, b = mesh.element_bounds(mesh.r)
    want = 2.0 * (b - mesh.gamma) * (mesh.gamma - a) / (b - a)
    assert eval_enrichment(space, mesh.gamma) == pytest.approx(want, rel=1e-14)


def test_enrichment_derivative_vs_finite_difference():
    space = _interface_space()
    mesh = space.mesh
    a, b = mesh.element_bounds(mesh.r)
    eps = 1e-7
    for x in np.linspace(a + 1e-3, b - 1e-3, 23):
        if abs(x - mesh.gamma) < 1e-2:
            continue  # skip the kink
        fd = (eval_enrichment(space, x + eps) -
              eval_enrichment(space, x - eps)) / (2 * eps)
        assert eval_enrichment(space, x, 1) == pytest.approx(fd, abs=1e-6)


def test_enrichment_kink_slopes():
    # slope jumps by -2 across gamma (d|x-gamma|/dx jumps by +2)
    space = _interface_space()
    g = space.mesh.gamma
    left = eval_enrichment(space, g - 1e-9, 1)
    right = eval_enrichment(space, g, 1)  # right-limit convention at gamma
    assert right - left == pytest.approx(-2.0, abs=1e-6)


def test_enrichment_matches_reference_scaling():
    # enrichment on the physical element = h * reference enrichment
    space = _interface_space(N=10, p=3)
    mesh = space.mesh
    a, b = mesh.element_bounds(mesh.r)
    h = b - a
    nu = (mesh.gamma - a) / h
    for t in np.linspace(0.0, 1.0, 37):
        got = eval_enrichment(space, a + t * h)
        want = h * reference_enrichment(nu, t)
        assert got == pytest.approx(want, abs=1e-15)


def test_enrichment_zero_on_fitting_mesh():
    mesh = build_uniform_mesh(12, 1.0 / 3.0)
    space = build_space(mesh, 2)
    assert eval_enrichment(space, 1.0 / 3.0) == 0.0


# ---------------------------------------------------------------------------
# piecewise-polynomial representation in the reference enriched space

def _eval_repr(alpha, beta, nu, t):
    t = np.asarray(t, dtype=float)
    return polyval(t, alpha) + reference_enrichment(nu, t) * polyval(t, beta)


def _eval_pieces(a, b, nu, t):
    t = np.asarray(t, dtype=float)
    return np.where(t <= nu, polyval(t, a), polyval(t, b))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_representation_round_trip(p):
    rng = np.random.default_rng(42 + p)
    for _ in range(25):
        nu = rng.uniform(0.05, 0.95)
        a = rng.standard_normal(p + 1)
        b = rng.standard_normal(p + 1)
        alpha, beta = represent_piecewise_poly(a, b, nu, p)
        # continuity at nu is enforced by overwriting b[0]
        b = b.copy()
        b[0] = a[0] + sum((a[l] - b[l]) * nu**l for l in range(1, p + 1))
        t = np.linspace(0.0, 1.0, 201)
        np.testing.assert_allclose(_eval_repr(alpha, beta, nu, t),
                                   _eval_pieces(a, b, nu, t), atol=1e-12)


def test_representation_beta_top_is_zero():
    alpha, beta = represent_piecewise_poly([1.0, 2.0, 3.0], [0.5, -1.0, 2.0],
                                           0.4, 2)
    assert beta[2] == 0.0


def test_representation_polynomial_input_needs_no_enrichment():
    # identical pieces: a continuous plain polynomial, so beta must vanish
    a = np.array([1.0, -2.0, 0.5, 3.0])
    alpha, beta = represent_piecewise_poly(a, a, 0.3, 3)
    np.testing.assert_allclose(beta, 0.0, atol=1e-14)
    np.testing.assert_allclose(alpha, a, atol=1e-14)


def test_representation_invalid_nu():
    with pytest.raises(InvalidArgumentError):
        represent_piecewise_poly([0.0, 1.0], [0.0, 1.0], 0.0, 1)


@pytest.mark.parametrize("a, b", [([0.0, 1.0, 2.0], [0.0, 1.0]),
                                  ([0.0, 1.0], [0.0])])
def test_representation_coefficient_length(a, b):
    with pytest.raises(InvalidArgumentError, match="length p\\+1"):
        represent_piecewise_poly(a, b, 0.5, 1)


@settings(max_examples=80)
@given(p=st.integers(1, 3),
       nu=st.floats(0.05, 0.95),
       seed=st.integers(0, 10**6))
def test_representation_round_trip_property(p, nu, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, p + 1)
    b = rng.uniform(-3.0, 3.0, p + 1)
    alpha, beta = represent_piecewise_poly(a, b, nu, p)
    b = b.copy()
    b[0] = a[0] + sum((a[l] - b[l]) * nu**l for l in range(1, p + 1))
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(_eval_repr(alpha, beta, nu, t),
                               _eval_pieces(a, b, nu, t), atol=1e-10)


# ---------------------------------------------------------------------------
# interface interpolant and solution evaluation

@pytest.mark.parametrize("p", [1, 2, 3])
def test_interpolant_reproduces_piecewise_polynomial(p):
    # continuous piecewise degree-p polynomial lies in the enriched space
    g = 1.0 / 3.0
    rng = np.random.default_rng(7 * p)
    c0 = rng.standard_normal(p + 1)
    c1 = rng.standard_normal(p + 1)
    # zero boundary values and continuity at gamma
    c0[0] = 0.0
    u0 = lambda x: polyval(np.asarray(x), c0)
    shift = polyval(g, c0) - polyval(g, c1)
    scale = polyval(1.0, c1) + shift  # subtract to zero the right boundary
    u1 = lambda x: (polyval(np.asarray(x), c1) + shift
                    - scale * (np.asarray(x) - g) / (1.0 - g))
    mesh = build_uniform_mesh(10, g)
    space = build_space(mesh, max(p, 1))
    dofs = build_interface_interpolant(u0, u1, space)
    for k in range(1, mesh.N + 1):
        a, b = mesh.element_bounds(k)
        xs = np.linspace(a + 1e-12, b - 1e-12, 9)
        want = np.where(xs <= g, u0(xs), u1(xs))
        np.testing.assert_allclose(eval_solution(space, dofs, xs), want,
                                   atol=1e-11)


def test_interpolant_nodally_exact_for_smooth_data():
    g = 1.0 / 3.0
    u0 = lambda x: np.sin(6.0 * np.pi * np.asarray(x))
    u1 = lambda x: 0.5 * np.sin(3.0 * np.pi * (np.asarray(x) - 1.0))
    mesh = build_uniform_mesh(10, g)
    space = build_space(mesh, 2)
    dofs = build_interface_interpolant(u0, u1, space)
    for j in (1, 5, 11, 19):
        x = space.global_node_x(j)
        if abs(x - mesh.element_bounds(mesh.r)[0]) < 1e-12 or \
                mesh.element_bounds(mesh.r)[0] < x < mesh.element_bounds(mesh.r)[1]:
            continue  # interface element carries the corrected coefficients
        got = eval_solution(space, dofs, np.array([x]))[0]
        assert got == pytest.approx(u0(x) if x <= g else u1(x), abs=1e-12)


def test_interpolant_matches_value_at_interface():
    g = 1.0 / 3.0
    u0 = lambda x: np.sin(6.0 * np.pi * np.asarray(x))
    u1 = lambda x: 0.5 * np.sin(3.0 * np.pi * (np.asarray(x) - 1.0))
    mesh = build_uniform_mesh(10, g)
    space = build_space(mesh, 3)
    dofs = build_interface_interpolant(u0, u1, space)
    got = eval_solution(space, dofs, np.array([g]))[0]
    assert got == pytest.approx(float(u0(g)), abs=1e-9)


def test_interpolant_rejects_discontinuous_data():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    with pytest.raises(DiscontinuousInputError):
        build_interface_interpolant(lambda x: 0.0 * np.asarray(x),
                                    lambda x: 1.0 + 0.0 * np.asarray(x),
                                    space)


def test_interpolant_requires_enriched_space():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1, enrich=False)
    z = lambda x: 0.0 * np.asarray(x)
    with pytest.raises(InvalidArgumentError):
        build_interface_interpolant(z, z, space)


@pytest.mark.parametrize("p,j,xs", [
    (2, 7, (0.31, 0.355, 0.39)),
    # node 12 sits at x = 0.3, the left end of the interface element [0.3,
    # 0.4]: points left of it and on both sides of gamma inside it
    (4, 12, (0.25, 0.29, 0.3, 0.305, 0.32, 1.0 / 3.0, 0.34, 0.37, 0.395)),
], ids=["p2", "p4"])
def test_eval_solution_single_basis_function(p, j, xs):
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, p)
    uF = np.zeros(space.n_fem)
    uF[j - 1] = 1.0
    dofs = DofVector(uF, np.zeros(space.n_enr))
    for x in xs:
        got = eval_solution(space, dofs, np.array([x]))[0]
        assert got == pytest.approx(eval_fem_basis(space, j, x), abs=1e-13)
    # all points in one call: the interface element's and the others
    np.testing.assert_allclose(
        eval_solution(space, dofs, np.array(xs)),
        [eval_fem_basis(space, j, x) for x in xs], rtol=0, atol=1e-13)


def test_eval_solution_derivative_vs_finite_difference():
    g = 1.0 / 3.0
    mesh = build_uniform_mesh(10, g)
    space = build_space(mesh, 3)
    rng = np.random.default_rng(5)
    dofs = DofVector(rng.standard_normal(space.n_fem),
                     rng.standard_normal(space.n_enr))
    a, b = mesh.element_bounds(mesh.r)
    eps = 1e-7
    for x in (a + 0.2 * (b - a), g + 0.6 * (b - g), 0.55):
        fd = (eval_solution(space, dofs, np.array([x + eps]))[0]
              - eval_solution(space, dofs, np.array([x - eps]))[0]) / (2 * eps)
        got = eval_solution(space, dofs, np.array([x]), deriv=1)[0]
        assert got == pytest.approx(fd, abs=1e-5 * max(1.0, abs(fd)))


def test_eval_solution_outside_domain_raises():
    space = build_space(build_uniform_mesh(10, 1.0 / 3.0), 2)
    dofs = DofVector(np.ones(space.n_fem), np.ones(space.n_enr))
    for x in (-1e-3, 1.0 + 1e-3):
        with pytest.raises(OutOfDomainError):
            eval_solution(space, dofs, np.array([0.5, x]))


@pytest.mark.parametrize("p,N,gamma,enrich", [
    (3, 10, 1.0 / 3.0, True), (2, 7, 0.05, True), (4, 5, 0.99, True),
    (1, 2, 0.3, True), (2, 10, 1.0 / 3.0, False), (3, 6, 0.5, True)])
def test_panel_tables_carry_enrichment_on_interface_panels_only(p, N, gamma,
                                                                 enrich):
    mesh = build_uniform_mesh(N, gamma)
    space = build_space(mesh, p, enrich=enrich)
    q = panel_basis(space, p + 2)
    elements = panels(mesh)[0]
    at, rows, vals, ders = q.gamma
    on = np.arange(len(elements))[at]
    assert q.rows.shape == (len(elements), p + 1) and q.h.shape == (len(elements), 1)
    assert q.vals.shape == q.ders.shape == (p + 1, p + 2)  # one table for all
    assert np.all(q.rows < space.n_fem)
    # tables of their own only on the interface element's panels, off a node
    assert on.tolist() == ([] if mesh.fitting else [mesh.r - 1, mesh.r])
    assert np.all(elements[on] == mesh.r)
    width = p + 1 + space.n_enr
    assert rows.shape == (len(on), width)
    assert vals.shape == ders.shape == (len(on), width, p + 2)
    assert np.array_equal(rows[:, :p + 1], q.rows[at])
    assert np.all(rows[:, p + 1:] == space.n_fem + np.arange(space.n_enr))


def _direct_panel_tables(space, n):
    """Per panel, the values and x-derivatives of the functions living on it,
    each from its own _lagrange and reference_enrichment call at the Gauss
    points of the panel's reference interval: [0, 1], [0, nu] or [nu, 1]."""
    mesh, p = space.mesh, space.p
    a, b = mesh.element_bounds(mesh.r)
    nu = (mesh.gamma - a) / (b - a)
    tables = []
    for i, e in enumerate(panels(mesh)[0]):
        split = not mesh.fitting and e == mesh.r
        lo, hi = ((nu, 1.0) if i == mesh.r else (0.0, nu)) if split else (0.0, 1.0)
        t = composite_rule([lo], [hi], n)[0][0]
        vals, ders = _lagrange(p, t)
        h = mesh.nodes[e] - mesh.nodes[e - 1]
        ders = ders / h
        if space.enriched and e == mesh.r:
            local = np.arange(p + 1)  # every node of the interface element
            w, dw = h * reference_enrichment(nu, t), reference_enrichment(nu, t, 1)
            vals, ders = (np.concatenate([vals, w * vals[local]]),
                          np.concatenate([ders, dw * vals[local] + w * ders[local]]))
        tables.append((vals, ders))
    return tables


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("N,gamma", [
    (6, 1.0 / 3.0), (7, 0.3), (10, 0.3 + 5e-5), (10, 0.7 - 5e-5), (10, 0.05), (10, 0.97)])
@pytest.mark.parametrize("enrich", [False, True])
def test_panel_basis_matches_direct_per_panel_tables_bit_for_bit(p, N, gamma, enrich):
    # fitting, non-fitting, gamma within 1e-3 h of a node on either side, and
    # gamma in the first and in the last element; the three rules of the
    # per-space batch
    space = build_space(build_uniform_mesh(N, gamma), p, enrich=enrich)
    edges = panels(space.mesh)[1]
    for n in (p + 2, p + 4, p + 6):
        q = panel_basis(space, n)
        x, w = composite_rule(edges[:-1], edges[1:], n)
        assert np.array_equal(q.x, x) and np.array_equal(q.w, w)
        # a whole element reads the shared table, the panels at gamma their own
        got = [(q.vals, q.ders / h) for h in q.h[:, 0]]
        got[q.gamma[0]] = zip(*q.gamma[2:])
        want = _direct_panel_tables(space, n)
        assert len(got) == len(want)
        for (gv, gd), (wv, wd) in zip(got, want):
            assert np.array_equal(gv, wv) and np.array_equal(gd, wd)


@pytest.mark.parametrize("p,n", [(1, 3), (3, 7), (6, 12)])
def test_reference_tables_are_shared_and_read_only(p, n):
    tables = reference_tables(p, n)
    assert reference_tables(p, n) is tables
    t, vals, ders = tables
    assert t.shape == (1, n) and vals.shape == ders.shape == (p + 1, 1, n)
    for a in tables:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.0


def _layout_arrays(layout, bases=True):
    """Every array of a panel layout: the tuple's, the tables' and (bases) what they view."""
    tables = list(chain(*layout[6].values()))
    views = [a for a in layout if isinstance(a, np.ndarray)] + tables
    return views + [a.base for a in views if a.base is not None and bases]


def test_panel_layout_is_shared_per_mesh_and_degree_and_read_only():
    mesh, p = build_uniform_mesh(20, 0.31), 2
    fem, a = build_space(mesh, p, enrich=False), build_space(mesh, p)
    # one layout per (mesh, p), for the enriched space, whichever space asks first
    assert fem.panel_layout is a.panel_layout is build_space(mesh, p).panel_layout
    lo, hi, rows, h, at, gamma_rows, tables, first, key = a.panel_layout
    # FEM's panel bases read the Lagrange prefix of the gamma rows and tables
    # as views, with the same strides; SGFEM's read them whole
    for n in tables:
        for space in (fem, a):
            m = p + 1 + space.n_enr
            got = panel_basis(space, n).gamma
            assert got[0] == at
            for view, full in zip(got[1:], (gamma_rows, *tables[n])):
                # the same first address, strides and leading shape: full[:, :m] itself
                assert view.ctypes.data == full.ctypes.data and view.strides == full.strides
                assert view.shape == full.shape[:1] + (m,) + full.shape[2:]
    # another degree, or another mesh of the same size, has a layout of its own
    for other in (build_space(mesh, p + 1), build_space(build_uniform_mesh(20, 0.31), p)):
        assert not any(np.shares_memory(x, y) for x in _layout_arrays(other.panel_layout)
                       for y in _layout_arrays(a.panel_layout))
    edges = panels(mesh)[1]
    assert np.array_equal(lo, edges[:-1]) and np.array_equal(hi, edges[1:])
    assert at == slice(mesh.r - 1, mesh.r + 1)  # the two sides of gamma
    assert gamma_rows.shape == (2, p + 1 + a.n_enr)
    # the sides of gamma carry their own tables for the package's three rules
    assert sorted(tables) == [p + k for k in RULES]
    for n, (vals, ders) in tables.items():
        assert vals.shape == ders.shape == (2, p + 1 + a.n_enr, n)
    # a whole element's key leads to a whole element of its exact size and side
    whole, right = np.ones(len(h), bool), (lo + hi) / 2 > mesh.gamma
    whole[at] = False
    rep = first[key]
    assert whole[rep[whole]].all() and not np.isin(key[at], key[whole]).any()
    assert np.array_equal(h[rep], h) and np.array_equal(right[rep[whole]], right[whole])
    assert len(first) == len(set(zip(h[whole], right[whole]))) + 1
    for arr in _layout_arrays(a.panel_layout, bases=False):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


def test_panel_layout_is_freed_with_its_mesh():
    mesh = build_uniform_mesh(20, 0.31)
    layout = build_space(mesh, 2, enrich=False).panel_layout
    refs = [weakref.ref(a) for a in _layout_arrays(layout)]
    del layout
    gc.collect()
    # the space is gone and only the mesh holds the layout: a new space reads it
    assert all(r() is not None for r in refs)
    assert build_space(mesh, 2).panel_layout[0] is refs[0]()
    sgfem = build_space(mesh, 2)
    q = panel_basis(sgfem, 4)  # its gamma tuple views the layout
    refs += [weakref.ref(a) for a in (mesh, sgfem, *q.gamma[1:])]
    del mesh, sgfem, q
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


@pytest.fixture
def lagrange_points(monkeypatch):
    """The point count of every _lagrange call made through the basis module."""
    counts, real = [], sgfem1d.basis._lagrange

    def recorder(p, t):
        counts.append(np.size(t))
        return real(p, t)

    monkeypatch.setattr(sgfem1d.basis, "_lagrange", recorder)
    return counts


@pytest.mark.parametrize("gamma,enrich,split", [
    (0.3, True, True), (0.3, False, True), (1.0 / 3.0, True, False),
    (0.05, True, True), (0.97, True, True)])
def test_panel_basis_evaluates_lagrange_only_on_the_sides_of_gamma(
        lagrange_points, gamma, enrich, split):
    mesh, p = build_uniform_mesh(12, gamma), 2
    rules = [p + k for k in RULES]
    for n in rules:  # fill the shared (p, n) tables, on a mesh of its own
        panel_basis(build_space(build_uniform_mesh(12, gamma), p, enrich=enrich), n)
    lagrange_points.clear()
    once = [2 * sum(rules)] if split else []
    space = build_space(mesh, p, enrich=enrich)
    for _ in range(2):
        for n in rules:
            panel_basis(space, n)
    space.norm_basis
    # one call per mesh and p, at the points of all three rules on [0, nu] and
    # [nu, 1]; a fitting mesh has no such panels
    assert lagrange_points == once
    # a second space on the mesh, of either kind, evaluates nothing
    for other in (build_space(mesh, p, enrich=False), build_space(mesh, p)):
        for n in rules:
            panel_basis(other, n)
        other.norm_basis
    assert lagrange_points == once
    # a space on a fresh mesh evaluates once
    panel_basis(build_space(build_uniform_mesh(12, gamma), p, enrich=not enrich), p + 2)
    assert lagrange_points == 2 * once
