"""Exact reference eigenpairs, eigenfunctions, and the manufactured source."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfem1d import (analytic, build_uniform_mesh, exact_eigenfunction,
                     integrate_piecewise, manufactured_source,
                     solve_matching_system)
from sgfem1d.exceptions import ConvergenceFailureError, InvalidArgumentError
from sgfem1d.sweep import CASES


def _matching_residuals(pair):
    """Residuals of the two interface conditions for a computed root."""
    rho = np.sqrt(pair.eta)
    w, d, g = pair.omega1, pair.d, pair.gamma
    r1 = np.sin(rho * w * g) - d * np.sin(w * g - w)
    r2 = np.cos(rho * w * g) - d * rho * np.cos(w * g - w)
    return r1, r2


@pytest.mark.parametrize("gamma,eta", [
    (1.0 / 3.0, 4.0),
    (1.0 / np.pi, float(np.e) ** 2),
    (0.42, 2.5),
    (0.75, 0.3),
])
def test_roots_satisfy_both_interface_conditions(gamma, eta):
    for pair in solve_matching_system(gamma, eta, 6):
        r1, r2 = _matching_residuals(pair)
        assert abs(r1) < 1e-11
        assert abs(r2) < 1e-11
        assert pair.lam == pytest.approx(eta * pair.omega1**2, rel=1e-15)


def test_no_coefficient_jump_gives_laplace_spectrum():
    # eta = 1: no jump, so lambda_n = (n pi)^2 regardless of gamma
    pairs = solve_matching_system(1.0 / 3.0, 1.0, 6)
    for n, pair in enumerate(pairs, start=1):
        assert pair.lam == pytest.approx((n * np.pi) ** 2, rel=1e-12)


def test_roots_are_increasing_and_indexed():
    pairs = solve_matching_system(0.3, 5.0, 8)
    ws = [p.omega1 for p in pairs]
    assert all(b > a for a, b in zip(ws, ws[1:]))
    assert [p.index for p in pairs] == list(range(1, 9))


def test_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        solve_matching_system(0.0, 4.0, 3)
    with pytest.raises(InvalidArgumentError):
        solve_matching_system(0.5, -1.0, 3)
    with pytest.raises(InvalidArgumentError):
        solve_matching_system(0.5, 4.0, 0)


@pytest.mark.parametrize("gamma,eta", [
    (1.0 / 3.0, 4.0),
    (1.0 / np.pi, float(np.e) ** 2),
    (0.3788805936238925, 15.175383390373701),
    (0.05, 1e3),
    (0.95, 1e-3),
    (1e-5, 1e12),
    (1.0 - 1e-5, 1e-12),
])
def test_roots_are_refined_to_rounding(gamma, eta):
    # false position stops at a 4-ulp bracket, so the matching function
    # changes sign across every root widened by 1e-14 relative (45 ulp)
    rho = np.sqrt(eta)
    for pair in solve_matching_system(gamma, eta, 20):
        F = analytic._matching_F(pair.omega1 * np.array([1.0 - 1e-14, 1.0 + 1e-14]),
                                 gamma, rho)
        assert np.signbit(F[0]) != np.signbit(F[1])


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.1, 0.9), eta=st.floats(0.3, 9.0))
def test_matching_roots_property(gamma, eta):
    pairs = solve_matching_system(gamma, eta, 3)
    for pair in pairs:
        r1, r2 = _matching_residuals(pair)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_eigenfunction_is_normalized_and_continuous():
    pair = solve_matching_system(1.0 / np.pi, float(np.e) ** 2, 4)[3]
    u = exact_eigenfunction(pair)
    mesh = build_uniform_mesh(50, pair.gamma)
    norm2 = integrate_piecewise(lambda x: u.value(x) ** 2, mesh, 12)
    assert norm2 == pytest.approx(1.0, rel=1e-10)
    g = pair.gamma
    assert float(u.f0(g)) == pytest.approx(float(u.f1(g)), abs=1e-12)
    # flux continuity: kappa u' matches across the interface
    assert float(u.df0(g)) == pytest.approx(pair.eta * float(u.df1(g)),
                                            rel=1e-10)


def test_eigenfunction_satisfies_equation():
    # -(kappa u')' = lambda u pointwise on each side
    pair = solve_matching_system(1.0 / 3.0, 4.0, 3)[2]
    u = exact_eigenfunction(pair)
    eps = 1e-5
    for x, kap in ((0.21, 1.0), (0.77, 4.0)):
        upp = (u.deriv(x + eps) - u.deriv(x - eps)) / (2 * eps)
        assert -kap * upp == pytest.approx(pair.lam * float(u.value(x)),
                                           rel=1e-5)


def test_eigenfunctions_orthogonal():
    pairs = solve_matching_system(1.0 / np.pi, float(np.e) ** 2, 3)
    u1 = exact_eigenfunction(pairs[0])
    u2 = exact_eigenfunction(pairs[1])
    mesh = build_uniform_mesh(60, pairs[0].gamma)
    inner = integrate_piecewise(lambda x: u1.value(x) * u2.value(x), mesh, 12)
    assert abs(inner) < 1e-10


def test_exact_solutions_pickle_and_compare_by_value():
    pair = solve_matching_system(1.0 / np.pi, float(np.e) ** 2, 3)[2]
    x = np.linspace(0.0, 1.0, 101)
    assert exact_eigenfunction(pair) == exact_eigenfunction(pair)  # two builds of one pair
    assert manufactured_source()[0] == manufactured_source()[0]
    for u in (exact_eigenfunction(pair), manufactured_source()[0]):
        copy = pickle.loads(pickle.dumps(u))
        assert copy == u
        assert np.array_equal(copy.value(x), u.value(x))
        assert np.array_equal(copy.deriv(x), u.deriv(x))


def test_manufactured_solution_consistency():
    u, f = manufactured_source()
    g = 1.0 / 3.0
    # boundary and interface continuity
    assert float(u.value(0.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(u.value(1.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(u.f0(g)) == pytest.approx(float(u.f1(g)), abs=1e-13)
    # flux continuity with kappa = (1, 4)
    assert 1.0 * float(u.df0(g)) == pytest.approx(4.0 * float(u.df1(g)),
                                                  rel=1e-13)
    # f = -(kappa u')' via finite differences on each side
    eps = 1e-5
    for x, kap in ((0.2, 1.0), (0.7, 4.0)):
        upp = (u.deriv(x + eps) - u.deriv(x - eps)) / (2 * eps)
        assert -kap * upp == pytest.approx(float(f(x)), rel=1e-6)


def test_exact_function_vectorized_eval():
    u, _ = manufactured_source()
    xs = np.linspace(0.0, 1.0, 11)
    vals = u.value(xs)
    assert vals.shape == xs.shape
    assert float(vals[0]) == pytest.approx(0.0, abs=1e-14)


def _where_reference(fn, x, deriv):
    """Both sides evaluated at every point, then picked by np.where."""
    f0, f1 = (fn.df0, fn.df1) if deriv else (fn.f0, fn.f1)
    x = np.asarray(x, dtype=float)
    return np.where(x <= fn.gamma, f0(x), f1(x))


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1.0), max_size=700), shape=st.sampled_from(["flat", "2d"]))
def test_exact_function_evaluates_each_side_only_on_its_points(xs, shape):
    u, _ = manufactured_source()
    eig = exact_eigenfunction(solve_matching_system(0.3, 9.0, 5)[4])
    # gamma itself, 0-d input and an empty array besides the drawn points
    cases = [np.array(xs), np.array(1.0 / 3.0), np.array(0.3), 1.0 / 3.0, np.empty(0)]
    if shape == "2d" and len(xs) % 2 == 0:
        cases.append(np.array(xs).reshape(2, -1))
    for fn in (u, eig):
        for x in cases + [np.append(xs, fn.gamma)]:
            for deriv in (0, 1):
                got = fn.deriv(x) if deriv else fn.value(x)
                want = _where_reference(fn, x, deriv)
                assert type(got) is type(want) and got.shape == want.shape
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def _certify(gamma, eta, count=9):
    """Completeness and indexing of the roots, independent of the brackets:
    by Sturm's oscillation theorem the n-th eigenfunction has exactly n - 1
    interior zeros, and each is L2-normalised."""
    pairs = solve_matching_system(gamma, eta, count)
    ws = np.array([p.omega1 for p in pairs])
    assert np.all(np.diff(ws) > 0.0)
    assert [p.index for p in pairs] == list(range(1, count + 1))
    for pair in pairs:
        u = exact_eigenfunction(pair)
        # 20 or more points per half-wave of the faster side
        fastest = pair.omega1 * max(np.sqrt(eta), 1.0)
        x = np.linspace(0.0, 1.0, int(20 * fastest / np.pi) + 3)[1:-1]
        neg = np.signbit(u.value(x))
        assert np.count_nonzero(neg[1:] != neg[:-1]) == pair.index - 1
        mesh = build_uniform_mesh(int(fastest) + 2, gamma)
        norm2 = integrate_piecewise(lambda x: u.value(x) ** 2, mesh, 12)
        assert norm2 == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.02, 0.98), log_eta=st.floats(-4.0, 4.0))
def test_roots_are_complete_and_indexed(gamma, log_eta):
    _certify(gamma, 10.0 ** log_eta)


@pytest.mark.parametrize("eta", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.5, 0.95, 0.99])
def test_roots_are_complete_and_indexed_at_corners(gamma, eta):
    _certify(gamma, eta)


@pytest.mark.parametrize("gamma,eta", [
    (float("nan"), 4.0), (float("inf"), 4.0),
    (0.5, float("nan")), (0.5, float("inf")),
])
def test_non_finite_arguments_rejected(gamma, eta):
    with pytest.raises(InvalidArgumentError):
        solve_matching_system(gamma, eta, 3)


def test_missing_roots_raise(monkeypatch):
    # a bracket whose ends share a sign is reported, not refined
    monkeypatch.setattr(analytic, "_matching_F",
                        lambda w, gamma, rho: 1.0 + 0.0 * w)
    with pytest.raises(ConvergenceFailureError, match="found 0 of 3"):
        solve_matching_system(0.3, 4.0, 3)


def test_extreme_contrast_scan_memory_is_bounded():
    # gamma = 1e-5, eta = 1e12: a scan grid would need 7.2e6 points (55 MB
    # as one array); the closed-form brackets need none
    tracemalloc.start()
    try:
        pairs = solve_matching_system(1e-5, 1e12, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    ws = [p.omega1 for p in pairs]
    assert all(b > a for a, b in zip(ws, ws[1:]))
    assert [p.index for p in pairs] == list(range(1, 10))


@pytest.mark.parametrize("gamma,eta", [(1e-5, 1e12), (1.0 - 1e-5, 1e-12)])
def test_extreme_contrast_work_is_bounded(monkeypatch, gamma, eta):
    # one bracket per root: the work does not grow with the contrast
    points, F = [], analytic._matching_F
    monkeypatch.setattr(analytic, "_matching_F",
                        lambda w, g, r: points.append(np.size(w)) or F(w, g, r))
    pairs = solve_matching_system(gamma, eta, 9)
    assert [p.index for p in pairs] == list(range(1, 10))
    assert sum(points) <= 40 * 9


@pytest.mark.parametrize("case,bound", [("case2", 130), ("case3", 290)])
def test_converged_brackets_are_not_evaluated_again(monkeypatch, case, bound):
    # 24 roots: the two bracket ends, then one point per bracket still wider
    # than 4 ulp and per step.  Evaluating every bracket on every step takes
    # 192 (case2) and 336 (case3) points; only the wide ones, 116 and 267.
    points, F = [], analytic._matching_F
    monkeypatch.setattr(analytic, "_matching_F",
                        lambda w, g, r: points.append(np.size(w)) or F(w, g, r))
    pairs = solve_matching_system(CASES[case]["gamma"], CASES[case]["eta"], 24)
    assert [p.index for p in pairs] == list(range(1, 25))
    assert points[:3] == [24, 24, 24]  # the ends, then the first step
    assert all(a >= b for a, b in zip(points[2:], points[3:]))
    assert points[-1] < 24 and sum(points) <= bound
