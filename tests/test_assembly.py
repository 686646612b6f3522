"""Stiffness/mass/load assembly against hand computations and invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem1d import (DofVector, InterfaceProblem, assemble, build_space,
                     build_uniform_mesh, eval_enrichment, eval_fem_basis,
                     eval_solution, solve_spd)
from sgfem1d.errors import h1_semi_error
from sgfem1d.exceptions import CoefficientNotPositiveError, InvalidArgumentError


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


def test_callable_coefficient_accepted():
    mesh = build_uniform_mesh(10, 1.0 / 3.0)
    space = build_space(mesh, 1)
    prob_c = InterfaceProblem(gamma=mesh.gamma,
                              kappa0=lambda x: 2.0 + 0.0 * np.asarray(x),
                              kappa1=lambda x: 5.0 + 0.0 * np.asarray(x))
    prob_k = InterfaceProblem(gamma=mesh.gamma, kappa0=2.0, kappa1=5.0)
    np.testing.assert_allclose(assemble(space, prob_c).K,
                               assemble(space, prob_k).K, rtol=1e-14)


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
    np.testing.assert_array_equal(sys_.K_FE, np.asarray(sys_.K)[nf:, :nf].T)
    assert sys_.K.shape == (nf + ne, nf + ne)


def test_mass_matrix_is_built_on_first_read(monkeypatch, benchmark_problem):
    from sgfem1d import assembly
    calls = []
    band_form = assembly._band_form

    def counted(*args):
        order, band = band_form(*args)
        return order, lambda vals: calls.append(vals.shape) or band(vals)

    monkeypatch.setattr(assembly, "_band_form", counted)
    _, _, prob = benchmark_problem
    sys_ = assemble(build_space(build_uniform_mesh(10, prob.gamma), 2), prob)
    assert len(calls) == 1  # K only: a source problem needs K and F
    M = sys_.M
    assert len(calls) == 2
    assert sys_.M is M and not np.asarray(M).flags.writeable
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
        sys_.M
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 850 * ndof
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

    def basis(x, deriv):
        fem = [eval_fem_basis(space, j, x, deriv) for j in range(1, nf + 1)]
        w, dw = eval_enrichment(space, x), eval_enrichment(space, x, 1)
        enr = [dw * eval_fem_basis(space, g, x) + w * eval_fem_basis(space, g, x, 1)
               if deriv else w * eval_fem_basis(space, g, x)
               for g in space.enriched_set]
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
