"""SPD solves, generalized eigenpairs and scaled condition numbers in band
storage, against dense references."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem1d import (InterfaceProblem, assemble, build_space,
                     build_uniform_mesh, cholesky, generalized_eigs,
                     scaled_condition_number, solve_spd)
from scipy.sparse.linalg import ArpackNoConvergence

from sgfem1d import densela
from sgfem1d.densela import _banded
from sgfem1d.exceptions import (ConvergenceFailureError, InvalidArgumentError,
                                NotPositiveDefiniteError)


def _random_spd(n, seed, shift=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T + shift * np.eye(n)


def test_cholesky_round_trip():
    A = _random_spd(12, 0)
    L = cholesky(A)
    assert np.allclose(np.triu(L, 1), 0.0)
    np.testing.assert_allclose(L @ L.T, A, rtol=1e-12)


def test_cholesky_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        cholesky(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


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


@pytest.mark.parametrize("call", [
    lambda A: solve_spd(A, np.ones(2)),
    lambda A: generalized_eigs(np.eye(2), A, 1),
    scaled_condition_number,
], ids=["solve_spd", "generalized_eigs-M", "scaled_condition_number"])
def test_indefinite_input_is_rejected(call):
    with pytest.raises(NotPositiveDefiniteError):
        call(np.array([[1.0, 2.0], [2.0, 1.0]]))


@st.composite
def cells(draw, max_N=40):
    """(p, N, gamma, eta, enrich) of an assembled cell; gamma on a node or
    at least h/10 away from every node."""
    N = draw(st.integers(2, max_N))
    t = draw(st.one_of(st.just(0.0), st.floats(0.1, 0.9)))
    i = draw(st.integers(0 if t else 1, N - 1))
    return (draw(st.integers(1, 4)), N, (i + t) / N, draw(st.floats(0.25, 16.0)),
            draw(st.booleans()))


def _assemble(p, N, gamma, eta, enrich):
    space = build_space(build_uniform_mesh(N, gamma), p, enrich=enrich)
    return space, assemble(space, InterfaceProblem(
        gamma=gamma, kappa0=1.0, kappa1=eta,
        source=lambda x: 1.0 + np.sin(3.0 * x)))


@settings(max_examples=40, deadline=None)
@given(cell=cells())
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
    # the sizes at ARPACK's limits: it needs 0 < k < n
    K, M = _random_spd(n, 40 + n), _random_spd(n, 50 + n, shift=2.0)
    sol = generalized_eigs(K, M, k)
    want = np.sort(1.0 / scipy.linalg.eigh(M, K, eigvals_only=True))[:k]
    assert sol.values.shape == (k,) and sol.vectors.shape == (n, k)
    np.testing.assert_allclose(sol.values, want, rtol=1e-10)
    assert np.all(np.diff(sol.values) >= 0.0)
    V = sol.vectors
    np.testing.assert_allclose(V.T @ M @ V, np.eye(k), atol=1e-12)
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(k)] > 0.0)


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
    K, M = _random_spd(6, 70), _random_spd(6, 71, shift=2.0)
    with pytest.raises(ConvergenceFailureError, match="No convergence"):
        generalized_eigs(K, M, 2)
    with pytest.raises(ConvergenceFailureError, match="No convergence"):
        scaled_condition_number(K)
