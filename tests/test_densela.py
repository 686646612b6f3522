"""SPD solves, generalized eigenpairs and scaled condition numbers in band
storage, against dense references."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem1d import (InterfaceProblem, SweepConfig, assemble, build_space,
                     build_uniform_mesh, generalized_eigs, run_cond_sweep,
                     run_eigen_sweep, run_source_sweep, scaled_condition_number,
                     solve_matching_system, solve_spd)
from scipy.linalg import lapack
from scipy.linalg.blas import dsbmv
from scipy.sparse.linalg import ArpackNoConvergence

from sgfem1d import densela
from sgfem1d.densela import BandMatrix, _banded
from sgfem1d.exceptions import (ConvergenceFailureError, InvalidArgumentError,
                                NotPositiveDefiniteError)


def _random_spd(n, seed, shift=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + shift * np.eye(n)


def test_solve_spd_round_trip():
    A = _random_spd(12, 0)
    np.testing.assert_allclose(A @ solve_spd(A, A), A, rtol=1e-12)


def test_solve_spd_rejects_non_square():
    # symmetry and definiteness: test_nonsymmetric_input_is_rejected and
    # test_indefinite_input_is_rejected
    with pytest.raises(InvalidArgumentError):
        solve_spd(np.ones((2, 3)), np.ones(2))


@settings(max_examples=25)
@given(n=st.integers(1, 20), seed=st.integers(0, 10**6))
def test_solve_spd_property(n, seed):
    A = _random_spd(n, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    got = solve_spd(A, A @ x)
    np.testing.assert_allclose(got, x, atol=1e-8 * max(1.0, np.abs(x).max()))


def test_generalized_eigs_diagonal_pencil():
    # K = diag(k), M = diag(m): eigenvalues are k/m in ascending order
    k = np.array([4.0, 9.0, 1.0, 25.0])
    m = np.array([1.0, 3.0, 2.0, 5.0])
    sol = generalized_eigs(np.diag(k), np.diag(m), 4)
    np.testing.assert_allclose(sol.values, sorted(k / m), rtol=1e-13)


def test_generalized_eigs_invariants():
    K = _random_spd(15, 11)
    M = _random_spd(15, 12, shift=2.0)
    k = 6
    sol = generalized_eigs(K, M, k)
    # ascending eigenvalues
    assert np.all(np.diff(sol.values) >= 0.0)
    # eigen-residuals small relative to the matrix scale
    for j in range(k):
        v = sol.vectors[:, j]
        res = K @ v - sol.values[j] * (M @ v)
        assert np.max(np.abs(res)) < 1e-8 * np.abs(K).max() * max(
            1.0, np.abs(v).max())
    # M-orthonormality
    G = sol.vectors.T @ M @ sol.vectors
    np.testing.assert_allclose(G, np.eye(k), atol=1e-10)
    # sign convention: largest-magnitude entry positive
    for j in range(k):
        v = sol.vectors[:, j]
        assert v[np.argmax(np.abs(v))] > 0.0


def test_generalized_eigs_matches_scipy_reference():
    import scipy.linalg
    K = _random_spd(20, 21)
    M = _random_spd(20, 22, shift=2.0)
    want = np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))[:5]
    sol = generalized_eigs(K, M, 5)
    np.testing.assert_allclose(sol.values, want, rtol=1e-10)


def test_generalized_eigs_too_many_pairs():
    A = np.eye(3)
    with pytest.raises(InvalidArgumentError):
        generalized_eigs(A, A, 4)


def test_generalized_eigs_requires_spd():
    J = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(NotPositiveDefiniteError):
        generalized_eigs(J, np.eye(2), 1)


def test_scaled_condition_number_diagonal_is_one():
    assert scaled_condition_number(np.diag([3.0, 7.0, 0.5])) == pytest.approx(1.0)


def test_scaled_condition_number_known_2x2():
    # scaled matrix [[1, c], [c, 1]] has eigenvalues 1 +- c
    c = 0.5
    A = np.array([[4.0, 2.0 * c], [2.0 * c, 1.0]])
    want = (1.0 + c) / (1.0 - c)
    assert scaled_condition_number(A) == pytest.approx(want, rel=1e-12)


def test_scaled_condition_number_scaling_invariance():
    A = _random_spd(8, 33)
    d = np.exp(np.linspace(-3, 3, 8))
    B = A * np.outer(d, d)  # diagonal rescaling leaves the measure unchanged
    assert scaled_condition_number(B) == pytest.approx(
        scaled_condition_number(A), rel=1e-9)


@pytest.mark.parametrize("p,N,enrich", [(1, 320, False), (3, 640, True), (6, 40, True)])
def test_scaled_condition_number_finds_lambda_min_in_few_solves(monkeypatch, p, N, enrich):
    # lambda_min's run is sized to its one pair: at most 10 triangular solve
    # pairs (ARPACK's default subspace took 21), and the number it gave to 1e-12
    gamma = 1.0 / 3.0 + 1e-3
    K = assemble(build_space(build_uniform_mesh(N, gamma), p, enrich),
                 InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=4.0)).K
    solves, real = [], densela.lapack.dpbtrs
    monkeypatch.setattr(densela.lapack, "dpbtrs",
                        lambda *a, **k: solves.append(1) or real(*a, **k))
    got = scaled_condition_number(K)
    assert 1 <= len(solves) <= 10
    lanczos = densela._lanczos  # ARPACK's default subspace for both runs
    monkeypatch.setattr(densela, "_lanczos", lambda f, n, k=1, ncv=None: lanczos(f, n, k))
    assert got == pytest.approx(scaled_condition_number(K), rel=1e-12)
    d = 1.0 / np.sqrt(np.diag(np.asarray(K)))
    lam = np.linalg.eigvalsh(np.asarray(K) * np.outer(d, d))  # to about cond * eps
    assert got == pytest.approx(lam[-1] / lam[0], rel=1e-6)


def test_scaled_condition_number_rejects_nonpositive_diagonal():
    with pytest.raises(NotPositiveDefiniteError):
        scaled_condition_number(np.array([[0.0, 1.0], [1.0, 1.0]]))


EPS = np.finfo(float).eps
NONSYMMETRIC = np.array([[2.0, 1.0], [0.0, 2.0]])


@pytest.mark.parametrize("call", [
    lambda A: solve_spd(A, np.ones(2)),
    lambda A: generalized_eigs(A, np.eye(2), 1),
    lambda A: generalized_eigs(2.0 * np.eye(2), A, 1),
    scaled_condition_number,
], ids=["solve_spd", "generalized_eigs-K", "generalized_eigs-M",
        "scaled_condition_number"])
def test_nonsymmetric_input_is_rejected(call):
    with pytest.raises(InvalidArgumentError):
        call(NONSYMMETRIC)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    lambda A: solve_spd(A, np.ones(2)),
    lambda A: generalized_eigs(A, np.eye(2), 1),
    lambda A: generalized_eigs(2.0 * np.eye(2), A, 1),
    scaled_condition_number,
], ids=["solve_spd", "generalized_eigs-K", "generalized_eigs-M",
        "scaled_condition_number"])
def test_non_finite_input_is_rejected_without_a_warning(call, bad):
    # NaN and inf used to be reported as "matrix must be symmetric", inf
    # with numpy's RuntimeWarning (invalid value in subtract)
    A = np.array([[2.0, 1.0], [1.0, bad]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="matrix must be finite"):
            call(A)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
def test_symmetry_tolerance_is_relative_to_the_largest_entry(scale):
    # asymmetry up to 1e-12 of each entry plus 1e-12 of the largest passes
    A = scale * np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    B = A.copy()
    B[0, 1] += 0.9 * 1e-12 * max(1.0, 4.0 * scale)
    assert solve_spd(B, np.ones(3)).shape == (3,)
    B[0, 1] += 3e-12 * max(1.0, 4.0 * scale)
    with pytest.raises(InvalidArgumentError, match="symmetric"):
        solve_spd(B, np.ones(3))


def test_mass_matrix_of_another_size_is_rejected():
    with pytest.raises(InvalidArgumentError, match="matrix must be 3x3"):
        generalized_eigs(np.eye(3), np.eye(4), 1)


def test_right_hand_side_of_another_length_is_rejected():
    with pytest.raises(InvalidArgumentError, match="right-hand side has 4 rows"):
        solve_spd(np.eye(3), np.ones(4))


def test_band_product_rejects_a_mismatched_shape(small_sgfem_system):
    _, system = small_sgfem_system
    n = system.K.shape[0]
    with pytest.raises(ValueError, match="matmul"):
        system.K @ np.ones(n + 1)
    with pytest.raises(ValueError, match="matmul"):
        np.ones((2, n - 1)) @ system.K


@pytest.mark.parametrize("call", [
    lambda A: solve_spd(A, np.ones(2)),
    lambda A: generalized_eigs(np.eye(2), A, 1),
    scaled_condition_number,
], ids=["solve_spd", "generalized_eigs-M", "scaled_condition_number"])
def test_indefinite_input_is_rejected(call):
    with pytest.raises(NotPositiveDefiniteError):
        call(np.array([[1.0, 2.0], [2.0, 1.0]]))


@st.composite
def cells(draw, max_N=40, min_eta=0.25):
    """(p, N, gamma, eta, enrich) of an assembled cell; gamma on a node or
    at least h/10 away from every node."""
    N = draw(st.integers(2, max_N))
    t = draw(st.one_of(st.just(0.0), st.floats(0.1, 0.9)))
    i = draw(st.integers(0 if t else 1, N - 1))
    return (draw(st.integers(1, 4)), N, (i + t) / N,
            draw(st.floats(min_eta, 16.0)), draw(st.booleans()))


def _assemble(p, N, gamma, eta, enrich):
    space = build_space(build_uniform_mesh(N, gamma), p, enrich=enrich)
    return space, assemble(space, InterfaceProblem(
        gamma=gamma, kappa0=1.0, kappa1=eta,
        source=lambda x: 1.0 + np.sin(3.0 * x)))


@settings(max_examples=40, deadline=None)
@given(cell=cells())
@example(cell=(3, 160, 1.0 / np.pi, np.e ** 2, True))  # case3, SGFEM
@example(cell=(4, 17, 0.68, 4.0, True))  # nearly dependent enriched basis
# nearly dependent bases with a thin residual margin: k = n = 8, and cells
# whose Lanczos residual (n = 11) or dense eigh(M, K) residual (n = 8) was
# above 1e-9
@example(cell=(3, 2, 0.9472, 5.378, True))
@example(cell=(4, 2, 0.0546875, 3.0, True))
@example(cell=(4, 2, 0.05, 5.5859375, True))
@example(cell=(3, 2, 0.95, 15.77, True))
def test_banded_matches_dense_references(cell):
    _, system = _assemble(*cell)
    K, M, F = system.K, system.M, system.F
    n = len(F)
    # Each check allows a fixed tolerance plus a multiple of its own
    # rounding floor: the SGFEM basis of a small cell can be nearly dependent
    # (scaled condition of M ~1e9 at p=4, N=2), and there two dense solvers
    # differ by more than the fixed tolerance.
    s = 1.0 / np.sqrt(np.diag(K))
    ev = scipy.linalg.eigvalsh(K * np.outer(s, s))
    kappa = ev[-1] / ev[0]
    assert abs(scaled_condition_number(K) / kappa - 1.0) <= 1e-8 + 100 * EPS * kappa

    want = scipy.linalg.solve(K, F, assume_a="pos")
    err = np.linalg.norm(solve_spd(K, F) - want) / np.linalg.norm(want)
    assert err <= 1e-10 + 100 * EPS * kappa

    k = min(n, 8)
    sol = generalized_eigs(K, M, k)
    # the reference reduces through K, so its smallest eigenvalues keep
    # their relative accuracy (eigh(K, M) reduces through M)
    lam = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:k]
    V, aV = sol.vectors, np.abs(sol.vectors)
    KV, MV = K @ V, M @ V
    floor_M = EPS * aV.T @ np.abs(M) @ aV  # rounding of V^T M V
    floor_lam = (EPS * np.einsum("ij,ij->j", aV, np.abs(K) @ aV) / sol.values
                 + np.diag(floor_M))
    assert np.all(np.abs(sol.values / lam - 1.0) <= 1e-10 + 1000 * floor_lam)
    resid = (np.linalg.norm(KV - MV * sol.values, axis=0)
             / np.linalg.norm(KV, axis=0))
    assert resid.max() <= 1e-9
    assert np.all(np.abs(V.T @ MV - np.eye(k)) <= 1e-12 + 1000 * floor_M)


@settings(max_examples=60, deadline=None)
@given(cell=cells(max_N=200))
@example(cell=(3, 640, 1.0 / 3.0, 4.0, True))
def test_ordering_gives_narrow_band(cell):
    space, system = _assemble(*cell)
    order, (ab,) = _banded(system.K)
    if space.enriched:  # dense order: every enrichment row spans the matrix
        assert ab.shape[0] - 1 <= 2 * space.p + 1
    else:
        assert ab.shape[0] - 1 <= space.p
        np.testing.assert_array_equal(order, np.arange(space.n_fem))


@pytest.mark.parametrize("k_short", [0, 1], ids=["k=n", "k=n-1"])
def test_generalized_eigs_whole_spectrum(k_short):
    _, system = _assemble(2, 4, 0.3, 4.0, True)
    K, M = system.K, system.M
    k = K.shape[0] - k_short
    sol = generalized_eigs(K, M, k)
    want = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:k]
    np.testing.assert_allclose(sol.values, want, rtol=1e-10)
    assert np.all(sol.values >= want * (1.0 - 1e-12))  # Ritz values: upper bounds
    np.testing.assert_allclose(sol.vectors.T @ M @ sol.vectors, np.eye(k),
                               atol=1e-12)


def _banded_spd(n, kd, seed, shift):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = np.tril(np.triu(A, -kd), kd)
    return A @ A.T + shift * np.eye(n)  # half-bandwidth 2 kd


def test_permuted_band_matrix():
    n = 60
    K, M = _banded_spd(n, 2, 1, 1.0), _banded_spd(n, 1, 2, 0.5)
    perm = np.random.default_rng(3).permutation(n)
    K, M = K[np.ix_(perm, perm)], M[np.ix_(perm, perm)]
    F = np.random.default_rng(4).standard_normal(n)
    np.testing.assert_allclose(solve_spd(K, F), scipy.linalg.solve(K, F),
                               rtol=1e-10, atol=1e-12)
    sol = generalized_eigs(K, M, 6)
    want = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:6]
    np.testing.assert_allclose(sol.values, want, rtol=1e-10)
    np.testing.assert_allclose(sol.vectors.T @ M @ sol.vectors, np.eye(6),
                               atol=1e-12)
    s = 1.0 / np.sqrt(np.diag(K))
    ev = scipy.linalg.eigvalsh(K * np.outer(s, s))
    assert scaled_condition_number(K) == pytest.approx(ev[-1] / ev[0], rel=1e-10)


def test_results_are_reproducible(small_sgfem_system):
    _, system = small_sgfem_system
    K, M, F = system.K, system.M, system.F
    a, b = generalized_eigs(K, M, 5), generalized_eigs(K, M, 5)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(solve_spd(K, F), solve_spd(K, F))
    assert scaled_condition_number(K) == scaled_condition_number(K)


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3)
                                  for k in sorted({0, 1, n - 1, n})])
def test_generalized_eigs_tiny_systems(n, k):
    # the sizes at ARPACK's limits (it needs 0 < k < n), here dense
    K, M = _random_spd(n, 40 + n), _random_spd(n, 50 + n, shift=2.0)
    sol = generalized_eigs(K, M, k)
    want = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:k]
    assert sol.values.shape == (k,) and sol.vectors.shape == (n, k)
    np.testing.assert_allclose(sol.values, want, rtol=1e-10)
    assert np.all(np.diff(sol.values) >= 0.0)
    V = sol.vectors
    np.testing.assert_allclose(V.T @ M @ V, np.eye(k), atol=1e-12)
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(k)] > 0.0)


@pytest.mark.parametrize("n, k", [(96, 8), (97, 8), (120, 20), (121, 20)])
def test_generalized_eigs_on_both_sides_of_the_dense_switch(monkeypatch, n, k):
    # n <= 80 + 2k takes the dense reduction, a larger n ARPACK
    K, M = _random_spd(n, 80 + n), _random_spd(n, 90 + n, shift=2.0)
    calls = []
    eigsh = densela.eigsh
    monkeypatch.setattr(densela, "eigsh", lambda *args, **kwargs: calls.append(
        1) or eigsh(*args, **kwargs))
    sol = generalized_eigs(K, M, k)
    assert len(calls) == (n > 80 + 2 * k)
    want = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:k]
    np.testing.assert_allclose(sol.values, want, rtol=1e-10)
    V = sol.vectors
    np.testing.assert_allclose(V.T @ M @ V, np.eye(k), atol=1e-12)
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(k)] > 0.0)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("gamma, eta", [(1.0 / 3.0, 4.0), (1.0 / np.pi, np.e**2)],
                         ids=["case2", "case3"])
def test_paper_cells_on_both_sides_of_the_dense_switch(p, gamma, eta):
    # the paper's eigen cells, ndof 9-483: N <= 40 (p = 1, 2) and N <= 20
    # (p = 3) go dense at k = 8, the larger ones to ARPACK.  Eigenvalues
    # agree with the dense reference to 1e-12 plus the rounding floor of
    # v^T K v and v^T M v, which reaches 5e-11 at p = 3, N = 160 (where the
    # two differ by 1.2e-12).
    for N in (10, 20, 40, 80, 160):
        for enrich in (False, True):
            _, system = _assemble(p, N, gamma, eta, enrich)
            K, M = np.asarray(system.K), np.asarray(system.M)
            sol = generalized_eigs(system.K, system.M, 8)
            lam = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:8]
            aV = np.abs(sol.vectors)
            floor = EPS * (np.einsum("ij,ij->j", aV, np.abs(K) @ aV) / lam
                           + np.einsum("ij,ij->j", aV, np.abs(M) @ aV))
            assert np.all(np.abs(sol.values / lam - 1.0) <= 1e-12 + floor)
            KV = K @ sol.vectors
            resid = (np.linalg.norm(KV - (M @ sol.vectors) * sol.values, axis=0)
                     / np.linalg.norm(KV, axis=0))
            assert resid.max() <= 1e-9


@pytest.mark.parametrize("p, N, gamma", [(3, 14, (4 + 1e-6) / 14),
                                         (4, 26, (8 + 1e-3) / 26)])
def test_k_near_n_on_a_dependent_basis_is_positive_or_raises(p, N, gamma):
    # gamma within 1e-3 h of a node: the enriched basis is numerically
    # dependent, so M is singular to rounding on some of its n directions
    _, system = _assemble(p, N, gamma, 4.0, True)
    n = len(system.K)
    for k in (n - 1, n):
        try:
            sol = generalized_eigs(system.K, system.M, k)
        except NotPositiveDefiniteError:
            continue
        assert np.all(sol.values > 0.0) and np.all(np.isfinite(sol.values))
        assert np.all(np.isfinite(sol.vectors))


def test_pairs_that_are_not_m_orthonormal_raise():
    # gamma = 0.31 is 0.01 h from a node at N = 29: cond(M) is 4.5e16, and at
    # k = n and n - 1 the Rayleigh-Ritz pairs used to come back with
    # max |V^T M V - I| of 1.6 and 4.2e-3; eight pairs fewer are still sound
    _, system = _assemble(4, 29, 0.31, 4.0, True)
    n = len(system.K)
    for k in (n, n - 1):
        with pytest.raises(NotPositiveDefiniteError, match="singular on the eigenvectors"):
            generalized_eigs(system.K, system.M, k)
    V = generalized_eigs(system.K, system.M, n - 8).vectors
    assert np.abs(V.T @ (system.M @ V) - np.eye(n - 8)).max() <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_scaled_condition_number_tiny_systems(n):
    A = _random_spd(n, 60 + n)
    s = 1.0 / np.sqrt(np.diag(A))
    ev = scipy.linalg.eigvalsh(A * np.outer(s, s))
    assert scaled_condition_number(A) == pytest.approx(ev[-1] / ev[0], rel=1e-12)


def test_arpack_failure_is_a_convergence_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(densela, "eigsh", fail)
    # n = 90 > 80 + 2k: ARPACK's branch (a smaller n goes dense)
    K, M = _random_spd(90, 70), _random_spd(90, 71, shift=2.0)
    with pytest.raises(ConvergenceFailureError, match="No convergence"):
        generalized_eigs(K, M, 2)
    with pytest.raises(ConvergenceFailureError, match="No convergence"):
        scaled_condition_number(K)


@pytest.mark.parametrize("name, n, info, error", [
    ("dsyevr", 20, 1, ConvergenceFailureError),  # n <= 80 + 2k: dense
    ("dsygvd", 90, 1, ConvergenceFailureError),  # ARPACK's branch
    ("dsygvd", 20, 3, NotPositiveDefiniteError),  # info > k: B is not definite
])
def test_lapack_failure_is_a_package_error(monkeypatch, name, n, info, error):
    routine = getattr(densela.lapack, name)
    monkeypatch.setattr(densela.lapack, name, lambda *args, **kw: (
        *routine(*args, **kw)[:-1], info))
    K, M = _random_spd(n, 72), _random_spd(n, 73, shift=2.0)
    with pytest.raises(error, match=f"{name} failed with info = {info}"):
        generalized_eigs(K, M, 2)


def test_non_finite_dense_form_is_a_convergence_failure():
    # C^-1 M C^-T = 1e600 I overflows to inf before dsyevr
    with pytest.raises(ConvergenceFailureError, match="dsyevr: input is not finite"):
        generalized_eigs(1e-300 * np.eye(3), 1e300 * np.eye(3), 1)


def _eigh_reference(K, M, k):
    """(values, vectors) by the algorithm of generalized_eigs as it ran through
    scipy.linalg.eigh (the dense subset solve and the closing step), or None
    where it raised."""
    order, (kb, mb) = _banded(K, M)
    n, c = len(order), lapack.dpbtrf(kb, lower=1)[0]
    block = densela._dia(mb)
    m = lambda x: dsbmv(len(mb) - 1, 1.0, mb, x, lower=1) if x.ndim == 1 else block @ x
    mct = lambda Y: m(lapack.dtbtrs(c, Y, uplo="L", trans="T")[0])
    op = lambda Y: lapack.dtbtrs(c, mct(Y), uplo="L")[0]
    try:
        if n <= 80 + 2 * k:
            Y = scipy.linalg.eigh(op(np.eye(n)), subset_by_index=[n - k, n - 1])[1]
        else:
            Y = densela._lanczos(op, n, k)[1]
        P = mct(Y)
        W = lapack.dpbtrs(c, P, lower=1)[0]
        mu, U = scipy.linalg.eigh(W.T @ m(W), W.T @ P)
    except np.linalg.LinAlgError:
        return None
    V = (W @ U)[:, ::-1] / np.sqrt(np.abs(mu[::-1]))
    if mu[0] <= 0.0 or np.abs(V.T @ m(V) - np.eye(k)).max() > 1e-6:
        return None
    V = V[np.argsort(order)]
    V *= np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(k)])
    return 1.0 / mu[::-1], V


def _no_eigh(*args, **kwargs):
    raise AssertionError("scipy.linalg.eigh called")


@settings(max_examples=30, deadline=None)
@given(cell=cells(max_N=160), p=st.integers(1, 6), eta=st.floats(1e-3, 1e3))
@example(cell=(0, 160, 1.0 / np.pi, 0, True), p=3, eta=np.e ** 2)  # case3: ARPACK at k = 8
@example(cell=(0, 10, 0.31, 0, True), p=6, eta=1e3)  # n = 67: dsytrd blocks
@example(cell=(0, 40, 1.0 / 3.0, 0, False), p=2, eta=1e-3)  # FEM
def test_lapack_calls_keep_the_bits_of_eigh(cell, p, eta):
    # dsyevr and dsygvd get the arguments scipy.linalg.eigh gave them, so every
    # pair keeps its bits (another workspace or the upper triangle would not)
    _, N, gamma, _, enrich = cell
    _, system = _assemble(p, N, gamma, eta, enrich)
    n = system.K.shape[0]
    for k in sorted({1, min(8, n), n}):
        want = _eigh_reference(system.K, system.M, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scipy.linalg, "eigh", _no_eigh)
            try:
                sol = generalized_eigs(system.K, system.M, k)
            except (NotPositiveDefiniteError, ConvergenceFailureError):
                assert want is None
                continue
        assert np.array_equal(sol.values, want[0])
        assert np.array_equal(sol.vectors, want[1])


def test_every_arpack_call_is_standard_mode(monkeypatch):
    # one Lanczos run on one symmetric operator per extreme: an M operator
    # or shift-invert mode adds a Python call back for every M product; each
    # stops at Ritz residuals of 1e-8, which the closing step of
    # generalized_eigs refines to rounding level
    _, system = _assemble(2, 50, 1.0 / 3.0, 4.0, True)  # ndof 102 > 80 + 2k
    K, M = system.K, system.M
    want = generalized_eigs(K, M, 5), scaled_condition_number(K)
    calls = []
    eigsh = densela.eigsh
    monkeypatch.setattr(densela, "eigsh", lambda *args, **kwargs: calls.append(
        (args, kwargs)) or eigsh(*args, **kwargs))
    got = generalized_eigs(K, M, 5)
    assert len(calls) == 1
    cond = scaled_condition_number(K)
    assert len(calls) == 3
    for args, kwargs in calls:
        assert len(args) == 2 and kwargs.get("which") == "LA"
        assert kwargs.get("tol") == 1e-8
        assert not {"M", "sigma", "OPinv"} & kwargs.keys()
    assert np.array_equal(got.values, want[0].values)
    assert np.array_equal(got.vectors, want[0].vectors)
    assert cond == want[1]


def _reference_band(K, M):
    """Row order and lower bands of K and M by a plain dense scan: rows
    sorted (stably) by the first nonzero column of the union pattern."""
    nonzero = (K != 0.0) | (M != 0.0)
    order = np.argsort(np.argmax(nonzero, axis=1), kind="stable")
    pos = np.argsort(order)
    r, c = np.nonzero(nonzero)
    r, c = r[pos[r] >= pos[c]], c[pos[r] >= pos[c]]
    bands = [np.zeros((np.max(pos[r] - pos[c]) + 1, len(K))) for _ in "KM"]
    for ab, A in zip(bands, (K, M)):
        ab[pos[r] - pos[c], pos[c]] = A[r, c]
    return order, bands


@settings(max_examples=40, deadline=None)
@given(cell=cells(max_N=60, min_eta=1.0 / 16.0))
@example(cell=(3, 60, 1.0 / 3.0, 4.0, True))
@example(cell=(4, 7, 3.0 / 7.0, 1.0 / 16.0, True))  # fitting: no enrichment
# p = 1, eta = 1: K's FEM-enrichment entries are zero or rounding-sized, so a
# scan of K alone may find another row order than the scan of K and M
@example(cell=(1, 4, 0.125, 1.0, True))
@example(cell=(1, 33, 0.03787878787878788, 1.0, True))
@example(cell=(1, 3, 0.4583333333333333, 1.0, True))
def test_assembled_band_equals_pattern_scan(cell):
    # assembly scatters into the band the solver would find by scanning the
    # dense matrices, entry for entry, so every result is bit-identical
    _, system = _assemble(*cell)
    K, M, F = system.K, system.M, system.F
    Kd, Md = np.array(K), np.array(M)
    order, bands = _banded(K, M)
    for want_order, want_bands in (_banded(Kd, Md), _reference_band(Kd, Md)):
        np.testing.assert_array_equal(order, want_order)
        for ab, want in zip(bands, want_bands):
            assert ab.shape == want.shape and np.array_equal(ab, want)
    # K on its own: the dense K where its scan finds the assembled order,
    # else the union scan's band of K
    Kref = Kd if np.array_equal(_banded(Kd)[0], order) else \
        BandMatrix(want_order, want_bands[0])
    assert np.array_equal(solve_spd(K, F), solve_spd(Kref, F))
    k = min(len(F), 8)
    got, want = generalized_eigs(K, M, k), generalized_eigs(Kd, Md, k)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors)
    assert scaled_condition_number(K) == scaled_condition_number(Kref)


def test_derived_arrays_carry_no_band(small_sgfem_system):
    _, system = small_sgfem_system
    K = system.K
    assert K.band is not None and not K.band[1].flags.writeable
    np.asarray(K)[0, 0] = 1e300  # a fresh array: writing it leaves K as it was
    assert K[0, 0] != 1e300
    x = np.ones(len(K))
    D = np.asarray(K)
    for A in (D.T, K[:5, :5], K[::-1], K @ x, K @ K, 2.0 * D, D.copy(),
              np.array(K)):
        assert getattr(A, "band", None) is None


def test_bands_are_column_major_and_solvers_read_them_uncopied(monkeypatch):
    # dpbtrf and dsbmv read column-major bands; f2py copies any other layout
    _, system = _assemble(1, 160, 0.31, 4.0, True)  # ndof 161: the ARPACK branch
    K, M = system.K, system.M
    for ab in (K.band[1], M.band[1]):
        assert ab.flags.f_contiguous and not ab.flags.writeable
    _, bands = _banded(np.asarray(K), np.asarray(M))
    assert all(ab.flags.f_contiguous for ab in bands)
    seen = []
    product = densela.dsbmv
    monkeypatch.setattr(densela, "dsbmv",
                        lambda kd, alpha, ab, *args, **kw: seen.append(ab)
                        or product(kd, alpha, ab, *args, **kw))
    generalized_eigs(K, M, 3)
    assert seen and all(ab is M.band[1] for ab in seen)
    seen.clear()
    scaled_condition_number(K)
    assert seen and all(ab.flags.f_contiguous for ab in seen)


@pytest.mark.parametrize("k", [1, 8])
def test_mass_dia_block_is_built_after_lanczos(monkeypatch, k):
    # ARPACK's products are dsbmv's; M's DIA block serves the closing step only
    _, system = _assemble(3, 40, 0.31, 4.0, True)  # ndof 123 > 80 + 2k: ARPACK
    want = generalized_eigs(system.K, system.M, k)
    events, dia, lanczos = [], densela._dia, densela._lanczos
    monkeypatch.setattr(densela, "_dia", lambda ab: events.append("dia") or dia(ab))
    monkeypatch.setattr(densela, "_lanczos", lambda *args, **kw: (
        lanczos(*args, **kw), events.append("lanczos"))[0])
    got = generalized_eigs(system.K, system.M, k)
    assert events == ["lanczos", "dia"]
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors)


@pytest.mark.parametrize("N, k", [(20, 8), (40, 123)])  # ndof 63 and 123, k = n
def test_mass_dia_block_is_built_once_before_the_dense_solve(monkeypatch, N, k):
    # the dense form and the closing step share one DIA block of M
    _, system = _assemble(3, N, 0.31, 4.0, True)
    want = _eigh_reference(system.K, system.M, k)
    events, dia, call = [], densela._dia, densela._lapack
    monkeypatch.setattr(densela, "_dia", lambda ab: events.append("dia") or dia(ab))
    monkeypatch.setattr(densela, "_lapack", lambda name, *args, **kw: (
        events.append(name), call(name, *args, **kw))[1])
    got = generalized_eigs(system.K, system.M, k)
    assert events == ["dia", "dsyevr", "dsygvd"]
    assert np.array_equal(got.values, want[0])
    assert np.array_equal(got.vectors, want[1])


def test_matrices_of_two_systems_take_the_band_path(monkeypatch):
    scans = []  # the dense scan checks its first matrix with n None, the others with n
    symmetric = densela._symmetric
    monkeypatch.setattr(densela, "_symmetric", lambda A, n=None: (
        n is not None or scans.append(A), symmetric(A, n))[1])
    _, one = _assemble(2, 10, 0.31, 4.0, True)
    _, two = _assemble(2, 10, 0.31, 4.0, True)
    want = generalized_eigs(one.K, one.M, 3)
    solve_spd(one.K, one.F)
    scaled_condition_number(one.K)
    assert scans == []  # an assembled system's own K and M carry one order
    assert one.K.band[0] is not two.M.band[0]
    got = generalized_eigs(one.K, two.M, 3)
    assert scans == []  # two assemblies of one space give equal orders
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors)
    # the band of M in another row order (reversed: still a band) takes the
    # pattern path, a scan of the union of K and M, to the same pairs
    D, order = np.asarray(two.M), two.M.band[0][::-1].copy()
    B = D[np.ix_(order, order)]
    M = BandMatrix(order, np.array([np.append(np.diag(B, -d), np.zeros(d))
                                    for d in range(len(two.M.band[1]))]))
    assert np.array_equal(np.asarray(M), D)
    got = generalized_eigs(one.K, M, 3)
    assert len(scans) == 1
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("enrich", [False, True])
def test_band_product_matches_the_dense_matrix(p, enrich):
    _, system = _assemble(p, 12, 0.31, 4.0, enrich)
    rng = np.random.default_rng(p)
    for A in (system.K, system.M):
        D = np.asarray(A)
        assert A.T is A and len(A) == D.shape[0]
        assert (A.shape, A.ndim, A.dtype) == (D.shape, 2, D.dtype)
        for x in (rng.standard_normal(len(A)), rng.standard_normal((len(A), 8))):
            # rounding of a product is relative to |D| |x|, row by row
            bound = 1e-13 * (np.abs(D) @ np.abs(x))
            assert np.all(np.abs(A @ x - D @ x) <= bound)
            assert np.all(np.abs(x.T @ A - x.T @ D) <= bound.T)


def test_library_calls_never_convert_a_band_matrix(monkeypatch):
    conversions = []
    to_array = densela.BandMatrix.__array__

    def counted(A, *args, **kwargs):
        conversions.append(A)
        return to_array(A, *args, **kwargs)

    monkeypatch.setattr(densela.BandMatrix, "__array__", counted)
    for N in (2, 30):  # the dense branch (ndof 11) and the ARPACK branch (124)
        _, system = _assemble(4, N, 0.31, 4.0, True)
        solve_spd(system.K, system.F)
        generalized_eigs(system.K, system.M, 3)
        scaled_condition_number(system.K)
        X = np.ones((len(system.M), 2))
        X.T @ system.M @ X
    run_source_sweep(SweepConfig(problem="source", degrees=(1, 3), Ns=(10, 20, 40)))
    # the p=3, N=40 cells (ndof 119 and 123) take ARPACK, the others the
    # dense branch
    run_eigen_sweep(SweepConfig(problem="eigen", case="case2", degrees=(1, 3),
                                Ns=(10, 20, 40), outputs=("eigenfunctions",)))
    run_cond_sweep(2, (10, 20, 40))
    assert conversions == []
    np.asarray(system.K)  # the counter counts
    assert len(conversions) == 1


# Drawn cells of the large_cell benchmark (seeds 2, 7, 22, 25, 27 and 54:
# p = 3, N = 640, SGFEM, kappa = (1, eta) split at gamma) that hold the
# conforming bound with less than a 2x margin (the lowest eigenvalue lies
# 4.8e-11 to 7.3e-11 below the exact one): a change that moves the rounding
# of K, M or the eigensolver can tip them below it.
@pytest.mark.parametrize("gamma,eta", [(0.3331284939745215, 0.8651048251550764),
                                       (0.3601163994378578, 9.456594088887021),
                                       (0.47153593132076266, 15.200572051144539),
                                       (0.2348967891598134, 0.6393278700118443),
                                       (0.23483796920313912, 0.9602947062436178),
                                       (0.21028427172724143, 1.6606371340783264)])
def test_thin_margin_large_cell_eigenvalues_are_not_below_exact(gamma, eta):
    space = build_space(build_uniform_mesh(640, gamma), 3)
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=1.0,
                                              kappa1=eta))
    lam_h = generalized_eigs(system.K, system.M, 8).values
    lam = np.array([pair.lam for pair in solve_matching_system(gamma, eta, 8)])
    assert np.all(lam_h >= lam * (1.0 - 1e-10))


# Two drawn cells of the large_cell benchmark (seeds 8 and 11: p = 3,
# N = 640, SGFEM, kappa = (1, eta) split at gamma) where an eigenvalue of the
# assembled pencil lies 1.25e-10 and 1.53e-10 (relative) below the exact one:
# the rounding floor of K and M, not of the eigensolver.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="assembled-pencil rounding floor, ROADMAP item 12")
@pytest.mark.parametrize("gamma,eta", [(0.3788805936238925, 15.175383390373701),
                                       (0.23999914193843971, 1.9940024393387281)])
def test_drawn_large_cell_eigenvalues_are_not_below_exact(gamma, eta):
    space = build_space(build_uniform_mesh(640, gamma), 3)
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=1.0,
                                              kappa1=eta))
    lam_h = generalized_eigs(system.K, system.M, 8).values
    lam = np.array([pair.lam for pair in solve_matching_system(gamma, eta, 8)])
    assert np.all(lam_h >= lam * (1.0 - 1e-10))
