"""Stiffness/mass/load assembly against hand computations and invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem1d import (DofVector, InterfaceProblem, assemble, build_space,
                     build_uniform_mesh, eval_enrichment, eval_fem_basis,
                     eval_solution, manufactured_source, solve_spd)
from sgfem1d.assembly import _gram
from sgfem1d.basis import LOAD_RULE, _lagrange, panel_basis, reference_enrichment
from sgfem1d.errors import h1_semi_error, l2_error
from sgfem1d.exceptions import (CoefficientNotPositiveError, InvalidArgumentError,
                                NotPositiveDefiniteError)
from sgfem1d.quadrature import composite_rule, panels, sample


def test_linear_fem_tridiagonal_by_hand():
    # kappa = 1 on a fitting mesh: K is the classic (1/h) tridiag(-1, 2, -1)
    # and M is (h/6) tridiag(1, 4, 1) over interior nodes.
    N, h = 4, 0.25
    mesh = build_uniform_mesh(N, 0.5)
    assert mesh.fitting
    space = build_space(mesh, 1)
    sys_ = assemble(space, InterfaceProblem(gamma=0.5, kappa0=1.0, kappa1=1.0))
    K_want = (1.0 / h) * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
    M_want = (h / 6.0) * (4 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1))
    np.testing.assert_allclose(sys_.K, K_want, atol=1e-13)
    np.testing.assert_allclose(sys_.M, M_want, atol=1e-15)


def test_constant_kappa_scales_stiffness_only():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 2)
    s1 = assemble(space, InterfaceProblem(gamma=mesh.gamma, kappa0=1.0, kappa1=1.0))
    s3 = assemble(space, InterfaceProblem(gamma=mesh.gamma, kappa0=3.0, kappa1=3.0))
    np.testing.assert_allclose(s3.K, 3.0 * np.asarray(s1.K), rtol=1e-13)
    np.testing.assert_allclose(s3.M, np.asarray(s1.M), rtol=1e-14)


def test_callable_coefficient_rejected():
    # kappa0 and kappa1 are numbers; a function of x is not sampled
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    with pytest.raises(TypeError):
        assemble(space, InterfaceProblem(gamma=mesh.gamma,
                                         kappa1=lambda x: 5.0 + 0.0 * x))


@pytest.mark.parametrize("p,method", [(1, "FEM"), (2, "SGFEM"), (3, "SGFEM")])
def test_symmetry_and_positive_definiteness(p, method, benchmark_problem):
    _, _, prob = benchmark_problem
    mesh = build_uniform_mesh(20, prob.gamma)
    space = build_space(mesh, p, enrich=(method == "SGFEM"))
    sys_ = assemble(space, prob)
    for A in (sys_.K, sys_.M):
        np.testing.assert_array_equal(A, A.T)
        assert np.linalg.eigvalsh(A)[0] > 0.0


def test_block_shapes(small_sgfem_system):
    space, sys_ = small_sgfem_system
    nf, ne = space.n_fem, space.n_enr
    assert sys_.K_FF.shape == (nf, nf)
    assert sys_.K_FE.shape == (nf, ne)
    assert sys_.K_EE.shape == (ne, ne)
    assert sys_.K.shape == (nf + ne, nf + ne)
    # CSR slices of K, entry for entry the blocks of the dense K
    D = np.asarray(sys_.K)
    np.testing.assert_array_equal(D[nf:, :nf], D[:nf, nf:].T)
    for block, want in ((sys_.K_FF, D[:nf, :nf]), (sys_.K_FE, D[:nf, nf:]),
                        (sys_.K_EE, D[nf:, nf:])):
        assert block.format == "csr"
        np.testing.assert_array_equal(block.toarray(), want)


def test_mass_matrix_is_built_on_first_read(monkeypatch, benchmark_problem):
    # assemble keeps the element chain and lays no band: K and M are each laid
    # once, on their first read.  A source problem reads only K and F, and the
    # benchmark's per-layer counters read K_FF, K_FE and K_EE on every traced
    # assemble, so those reads lay K and never M.
    from sgfem1d import assembly
    calls, band = [], assembly._band

    def counted(whole, gamma, *layout):
        calls.append(whole)
        return band(whole, gamma, *layout)

    monkeypatch.setattr(assembly, "_band", counted)
    _, _, prob = benchmark_problem
    sys_ = assemble(build_space(build_uniform_mesh(10, prob.gamma), 2), prob)
    assert len(calls) == 0
    sys_.K_FF, sys_.K_FE, sys_.K_EE
    assert len(calls) == 1
    K = sys_.K
    assert len(calls) == 1
    M = sys_.M
    assert len(calls) == 2
    assert sys_.K is K and sys_.M is M and not M.band[1].flags.writeable
    assert len(calls) == 2


@pytest.mark.parametrize("N", [1000, 20000])
def test_assembly_memory_is_linear_in_ndof(N, benchmark_problem):
    # p=3: ndof 3N + 3, so one dense K would take 72 MB at N=1000; the
    # bands of half-bandwidth 7 take 64 bytes per dof.  The panel tables
    # carry the enrichment functions on the interface panels only, so the
    # peak per dof does not grow with N.
    u, _, prob = benchmark_problem
    space = build_space(build_uniform_mesh(N, prob.gamma), 3)
    ndof = space.n_fem + space.n_enr
    tracemalloc.start()
    try:
        sys_ = assemble(space, prob)
        sys_.K, sys_.M
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 850 * ndof
    if N == 20000:
        # on the built panel layout, assemble keeps F, the row order and the
        # element chain until a band is read: measured 18.8 bytes/dof (82.7
        # when it laid K's band at once)
        del sys_
        tracemalloc.start()
        try:
            sys_ = assemble(space, prob)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 20 * ndof
    # the solve and the H1 norm on a fresh space (its norm basis built here)
    space = build_space(build_uniform_mesh(N, prob.gamma), 3)
    sys_ = assemble(space, prob)
    tracemalloc.start()
    try:
        U = solve_spd(sys_.K, sys_.F)
        h1_semi_error(DofVector(U[:space.n_fem], U[space.n_fem:]), space, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 420 * ndof


def test_assembly_and_norms_hold_no_per_point_basis_tables(benchmark_problem):
    # p=3, N=2*10^4 (ndof 60003).  Whole elements read one shared reference
    # table, so neither assemble nor the norms build (panels, functions,
    # points) arrays: measured 150 bytes/dof at the peak of assemble with a
    # load and K's first read (531 with such tables, when that peak was 307)
    # and 37.5 kept by the space after the H1 norm, its p+4 points and weights
    # (187 with the tables).
    u, _, prob = benchmark_problem
    space = build_space(build_uniform_mesh(20000, prob.gamma), 3)
    ndof = space.n_fem + space.n_enr
    tracemalloc.start()
    try:
        sys_ = assemble(space, prob)
        sys_.K
        peak = tracemalloc.get_traced_memory()[1]
        dofs = DofVector(*np.split(solve_spd(sys_.K, sys_.F), [space.n_fem]))
        del sys_
        before = tracemalloc.get_traced_memory()[0]
        h1_semi_error(dofs, space, u)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < 400 * ndof
    assert kept < 64 * ndof


def test_assembly_builds_no_per_entry_pattern(benchmark_problem):
    # p=3, N=2*10^4 (ndof 60003).  K's and M's row order and band layout follow
    # from the element chain in closed form, so assemble with a load and K's
    # first read hold no (entries,) index arrays: measured 150 bytes/dof at
    # their peak, 326 when assemble scattered through a row and column index
    # per element-matrix entry.
    _, _, prob = benchmark_problem
    space = build_space(build_uniform_mesh(20000, prob.gamma), 3)
    ndof = space.n_fem + space.n_enr
    tracemalloc.start()
    try:
        assemble(space, prob).K
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 270 * ndof


def test_mass_matrix_total_is_function_inner_products():
    # quadratic form u^T M u equals the L2 norm squared of the function
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 2)
    sys_ = assemble(space, InterfaceProblem(gamma=mesh.gamma))
    rng = np.random.default_rng(3)
    U = rng.standard_normal(space.n_fem + space.n_enr)
    dofs = DofVector(U[:space.n_fem], U[space.n_fem:])
    from sgfem1d.quadrature import gauss_rule, panel_list
    rule = gauss_rule(8)
    total = 0.0
    for _, lo, hi in panel_list(mesh):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xq = mid + half * rule.points
        total += half * np.sum(rule.weights *
                               eval_solution(space, dofs, xq) ** 2)
    assert U @ (sys_.M @ U) == pytest.approx(total, rel=1e-11)


def test_gamma_mismatch_rejected(benchmark_problem):
    _, _, prob = benchmark_problem
    mesh = build_uniform_mesh(10, 0.25)
    space = build_space(mesh, 1)
    with pytest.raises(InvalidArgumentError):
        assemble(space, prob)


def test_nonpositive_coefficient_rejected():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    with pytest.raises(CoefficientNotPositiveError):
        assemble(space, InterfaceProblem(gamma=mesh.gamma, kappa0=-1.0))


@pytest.mark.parametrize("kappa1", [float("nan"), float("inf")])
def test_non_finite_coefficient_rejected(kappa1):
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    with pytest.raises(CoefficientNotPositiveError):
        assemble(space, InterfaceProblem(gamma=mesh.gamma, kappa1=kappa1))


def test_coefficient_error_names_both_numbers():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    with pytest.raises(CoefficientNotPositiveError,
                       match=r"kappa = \(1\.0, nan\) not positive and finite"):
        assemble(space, InterfaceProblem(gamma=mesh.gamma, kappa0=1.0,
                                         kappa1=float("nan")))


def test_load_vector_matches_block_system(benchmark_problem):
    # F is the FEM load followed by the enrichment load
    _, _, prob = benchmark_problem
    mesh = build_uniform_mesh(10, prob.gamma)
    space = build_space(mesh, 2)
    sys_ = assemble(space, prob)
    F_F, F_E = sys_.F[:space.n_fem], sys_.F[space.n_fem:]
    assert F_F.shape == (space.n_fem,) and F_E.shape == (space.n_enr,)


def test_load_requires_source():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    sys_ = assemble(space, InterfaceProblem(gamma=mesh.gamma))
    assert sys_.F is None


def test_quadratic_solve_is_exact_for_parabola():
    # -u'' = 2 with u(0) = u(1) = 0 has u = x(1 - x), a degree-2 polynomial,
    # so the p = 2 Galerkin solution is exact.
    mesh = build_uniform_mesh(5, 0.4)
    space = build_space(mesh, 2, enrich=False)
    prob = InterfaceProblem(gamma=0.4, kappa0=1.0, kappa1=1.0,
                            source=lambda x: 2.0 + 0.0 * np.asarray(x))
    sys_ = assemble(space, prob)
    U = solve_spd(sys_.K, sys_.F)
    dofs = DofVector(U[:space.n_fem], U[space.n_fem:])
    xs = np.linspace(0.21, 0.39, 7)
    np.testing.assert_allclose(eval_solution(space, dofs, xs),
                               xs * (1.0 - xs), atol=1e-13)


def test_galerkin_orthogonality_residual(benchmark_problem):
    # the discrete residual K U - F vanishes for the Galerkin solution
    _, _, prob = benchmark_problem
    mesh = build_uniform_mesh(20, prob.gamma)
    space = build_space(mesh, 3)
    sys_ = assemble(space, prob)
    U = solve_spd(sys_.K, sys_.F)
    res = sys_.K @ U - sys_.F
    assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.max(np.abs(sys_.F)))


# ---------------------------------------------------------------------------
# the batched kernel against a per-panel, per-point oracle

def _brute_force_system(space, prob):
    """K, M and F as Gauss sums over each panel (elements, the interface
    element split at gamma), point by point, from the scalar basis
    evaluators: p+2 points for K and M, p+6 for F, as assemble uses."""
    mesh, nf = space.mesh, space.n_fem
    ndof = nf + space.n_enr
    K, M, F = np.zeros((ndof, ndof)), np.zeros((ndof, ndof)), np.zeros(ndof)

    def node(g, x, deriv=0):  # N_g on the interface element, a boundary node's too
        a, b = mesh.element_bounds(mesh.r)
        v = _lagrange(space.p, (x - a) / (b - a))[deriv][g - (mesh.r - 1) * space.p]
        return v / (b - a) if deriv else v

    def basis(x, deriv):
        fem = [eval_fem_basis(space, j, x, deriv) for j in range(1, nf + 1)]
        w, dw = eval_enrichment(space, x), eval_enrichment(space, x, 1)
        enr = [dw * node(g, x) + w * node(g, x, 1) if deriv else w * node(g, x)
               for g in range((mesh.r - 1) * space.p, mesh.r * space.p + 1)
               if space.enriched]
        return np.array(fem + enr)

    for k in range(1, mesh.N + 1):
        a, b = mesh.element_bounds(k)
        cuts = [(a, mesh.gamma), (mesh.gamma, b)] \
            if k == mesh.r and not mesh.fitting else [(a, b)]
        for lo, hi in cuts:
            for n, load in ((space.p + 2, False), (space.p + 6, True)):
                for t, wt in zip(*np.polynomial.legendre.leggauss(n)):
                    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
                    wq = 0.5 * (hi - lo) * wt
                    v = basis(x, 0)
                    if load:
                        F += wq * prob.source(x) * v
                    else:
                        d = basis(x, 1)
                        K += wq * prob.kappa(x) * np.outer(d, d)
                        M += wq * np.outer(v, v)
    return K, M, F


def _scaled_error(got, want, scale):
    return np.max(np.abs(np.asarray(got) - want) / scale)


@st.composite
def _cells(draw):
    N = draw(st.integers(2, 8))
    gamma = draw(st.one_of(st.integers(1, N - 1).map(lambda j: j / N),
                           st.floats(0.02, 0.98)))
    return (N, gamma, draw(st.integers(1, 4)), draw(st.booleans()),
            draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))


@settings(max_examples=30, deadline=None)
@given(_cells())
@example((5, 0.25, 2, True, 1.0, 2.0))       # gamma in the left half of r
@example((8, 0.35, 4, True, 3.0, 0.5))       # gamma in the right half of r
@example((6, 1.0 / 3.0, 3, True, 1.0, 4.0))  # fitting: no enrichment
def test_kernel_matches_pointwise_oracle(cell):
    N, gamma, p, enrich, k0, k1 = cell
    mesh = build_uniform_mesh(N, gamma)
    space = build_space(mesh, p, enrich=enrich)
    prob = InterfaceProblem(gamma=gamma, kappa0=k0, kappa1=k1,
                            source=lambda x: np.exp(x) * np.cos(5.0 * x))
    sys_ = assemble(space, prob)
    K, M, F = _brute_force_system(space, prob)
    # each entry to 1e-12 of its Cauchy-Schwarz bound: sqrt(A_ii A_jj) for
    # K and M, and max|f| sqrt(M_ii) <= 3 sqrt(M_ii) for F
    dK, dM = np.sqrt(np.diag(K)), np.sqrt(np.diag(M))
    assert _scaled_error(sys_.K, K, np.outer(dK, dK)) <= 1e-12
    assert _scaled_error(sys_.M, M, np.outer(dM, dM)) <= 1e-12
    assert _scaled_error(sys_.F, F, 3.0 * dM) <= 1e-12


# ---------------------------------------------------------------------------
# one element matrix per distinct element size against one per panel

def _panel_order_scatter(n, rows, mats):
    """Row order (stably by first coupled column) and lower band of the sum of
    the square matrices mats, each at its rows (-1: none), added in panel order."""
    first = np.arange(n)
    for r in rows:
        r = r[r >= 0]
        first[r] = np.minimum(first[r], r.min())
    order = np.argsort(first, kind="stable")
    pos = np.argsort(order)
    entries = [(pos[i] - pos[j], pos[j], E[a, b]) for r, E in zip(rows, mats)
               for a, i in enumerate(r) for b, j in enumerate(r)
               if min(i, j) >= 0 and pos[i] >= pos[j]]
    ab = np.zeros((max(d for d, _, _ in entries) + 1, n))
    for d, j, v in entries:
        ab[d, j] += v
    return order, ab


def _per_panel_system(space, prob):
    """K's and M's (order, band) and F, summed in panel order: K and M from one
    _gram per panel at its own p+2 Gauss points, from its own _lagrange table
    (and the enrichment on the interface element); F from the per-panel loads
    assemble contracts (the shared table's for whole elements)."""
    mesh, p, nf, n = space.mesh, space.p, space.n_fem, space.p + 2
    a, b = mesh.element_bounds(mesh.r)
    nu = (mesh.gamma - a) / (b - a)
    elements, edges = panels(mesh)
    rows, Ks, Ms = [], [], []
    for i, e in enumerate(elements):
        x, w = composite_rule(edges[i:i + 1], edges[i + 1:i + 2], n)
        split = not mesh.fitting and e == mesh.r
        t = composite_rule(*(((nu,), (1.0,)) if i == mesh.r else ((0.0,), (nu,)))
                           if split else ((0.0,), (1.0,)), n)[0]
        vals, ders = _lagrange(p, t[0])
        h = mesh.nodes[e] - mesh.nodes[e - 1]
        ders = ders / h
        g = (e - 1) * p + np.arange(p + 1)
        r = list(np.where(g <= nf, g - 1, -1))
        if space.enriched and e == mesh.r:
            local = np.arange(p + 1)  # every node of the interface element
            we, dw = h * reference_enrichment(nu, t[0]), reference_enrichment(nu, t[0], 1)
            vals, ders = (np.concatenate([vals, we * vals[local]]),
                          np.concatenate([ders, dw * vals[local] + we * ders[local]]))
            r += list(nf + np.arange(space.n_enr))
        rows.append(np.array(r))
        Ks.append(_gram(ders[None], prob.kappa(x) * w)[0, :-1].reshape(len(r), -1))
        Ms.append(_gram(vals[None], w)[0, :-1].reshape(len(r), -1))
    q = panel_basis(space, p + LOAD_RULE)
    g = q.w * sample(prob.source, q.x)
    loads = list(g @ q.vals.T)
    at, _, gamma_vals, _ = q.gamma
    loads[at] = np.einsum("pfn,pn->pf", gamma_vals, g[at])
    F = np.zeros(nf + space.n_enr)
    for r, load in zip(rows, loads):
        for i, v in zip(r, load):
            if i >= 0:
                F[i] += v
    ndof = nf + space.n_enr
    return _panel_order_scatter(ndof, rows, Ks), _panel_order_scatter(ndof, rows, Ms), F


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 6), N=st.integers(2, 700), fitting=st.booleans(),
       where=st.floats(0.0, 1.0), enrich=st.booleans(),
       k1=st.sampled_from([4.0, 1e-3, 1e3, 1.0]))
@example(p=3, N=640, fitting=False, where=0.3, enrich=True, k1=4.0)
@example(p=1, N=2, fitting=True, where=0.0, enrich=True, k1=4.0)
@example(p=1, N=10, fitting=False, where=0.0, enrich=True, k1=4.0)    # gamma in element 1
@example(p=1, N=10, fitting=False, where=0.999, enrich=True, k1=4.0)  # and in element N
@example(p=3, N=7, fitting=False, where=0.05, enrich=True, k1=1e-3)
@example(p=2, N=9, fitting=False, where=0.97, enrich=True, k1=1e3)
@example(p=3, N=2, fitting=False, where=0.2, enrich=True, k1=4.0)     # N = 2
@example(p=1, N=2, fitting=False, where=0.7, enrich=True, k1=4.0)
@example(p=1, N=3, fitting=False, where=0.1, enrich=True, k1=4.0)     # FEM row 1 couples row 0
@example(p=1, N=40, fitting=False, where=0.01, enrich=True, k1=4.0)   # too, then element 3
@example(p=3, N=6, fitting=False, where=0.99, enrich=True, k1=4.0)    # no element after gamma
@example(p=4, N=11, fitting=False, where=0.5, enrich=False, k1=4.0)   # FEM, not fitting
@example(p=2, N=5, fitting=False, where=0.9, enrich=False, k1=1e3)    # and gamma in element N
def test_bands_equal_per_panel_element_matrices_bit_for_bit(p, N, fitting, where, enrich, k1):
    # uniform meshes from np.linspace have a few distinct element sizes; off a
    # node gamma may lie in any element, the first and the last included
    j = min(max(int(where * N), int(fitting)), N - 1)
    gamma = j / N if fitting else (j + 0.05 + 0.9 * (where * N % 1.0)) / N
    mesh = build_uniform_mesh(N, gamma)
    space = build_space(mesh, p, enrich=enrich)
    prob = InterfaceProblem(gamma=mesh.gamma, kappa0=1.0, kappa1=k1,
                            source=lambda x: np.exp(x) * np.cos(5.0 * x))
    system = assemble(space, prob)
    *bands, F = _per_panel_system(space, prob)
    for got, want in zip((system.K.band, system.M.band), bands):
        assert np.array_equal(got[0], want[0]) and got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()  # bit for bit, signed zeros too
    assert system.F.tobytes() == F.tobytes()


# ---------------------------------------------------------------------------
# FEM and SGFEM on one mesh share its panel layout and give the same bits

def _cell_bytes(space, gamma):
    """The bytes of K's and M's row orders and bands, F, the solution U and
    U's H1 and L2 errors of the manufactured source problem; the exception's
    type in place of U and its errors if the solve raises."""
    u, f = manufactured_source()
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=4.0, source=f))
    out = [a.tobytes() for A in (system.K, system.M) for a in A.band] + [system.F.tobytes()]
    try:
        U = solve_spd(system.K, system.F)
    except NotPositiveDefiniteError as exc:
        return out + [type(exc)]
    dofs = DofVector(U[:space.n_fem], U[space.n_fem:])
    return out + [U.tobytes()] + [np.float64(e(dofs, space, u)).tobytes()
                                  for e in (h1_semi_error, l2_error)]


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 6), N=st.integers(2, 200),
       where=st.sampled_from(["anywhere", "node", "first", "last"]),
       t=st.floats(0.0, 1.0), fem_first=st.booleans())
@example(p=6, N=200, where="anywhere", t=0.3, fem_first=True)
@example(p=3, N=160, where="anywhere", t=1.0 / 3.0, fem_first=False)  # the ladder's gamma
@example(p=2, N=9, where="node", t=0.5, fem_first=True)
@example(p=4, N=2, where="first", t=0.5, fem_first=False)
@example(p=5, N=37, where="last", t=0.999, fem_first=True)
def test_spaces_on_one_mesh_equal_spaces_on_their_own_bit_for_bit(p, N, where, t, fem_first):
    # gamma anywhere in (0, 1), on a node, or in the first or the last element
    gamma = {"anywhere": 0.001 + 0.998 * t, "node": min(max(round(t * N), 1), N - 1) / N,
             "first": (0.01 + 0.98 * t) / N, "last": 1.0 - (0.01 + 0.98 * t) / N}[where]
    flags = (False, True) if fem_first else (True, False)
    mesh = build_uniform_mesh(N, gamma)
    shared = [build_space(mesh, p, enrich=e) for e in flags]  # both built, then used
    got = [_cell_bytes(space, mesh.gamma) for space in shared]
    alone = [build_space(build_uniform_mesh(N, gamma), p, enrich=e) for e in flags]
    assert got == [_cell_bytes(space, mesh.gamma) for space in alone]
