"""Gauss-Legendre rules and interface-split integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfem1d import build_uniform_mesh, gauss_rule, integrate_piecewise
from sgfem1d.exceptions import InvalidArgumentError
from sgfem1d.quadrature import panel_list, sample


@pytest.mark.parametrize("n", range(1, 31))
def test_rule_integrates_constant(n):
    r = gauss_rule(n)
    assert r.weights.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.all(np.diff(r.points) > 0)
    assert np.all(np.abs(r.points) < 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
def test_rule_exact_for_polynomials(n):
    # n-point Gauss is exact through degree 2n-1
    r = gauss_rule(n)
    for d in range(2 * n):
        got = np.sum(r.weights * r.points**d)
        want = 0.0 if d % 2 else 2.0 / (d + 1)
        assert got == pytest.approx(want, abs=5e-14)


def test_rule_not_exact_beyond_order():
    r = gauss_rule(3)
    d = 6  # degree 2n = 6 must not be integrated exactly
    got = np.sum(r.weights * r.points**d)
    assert abs(got - 2.0 / 7.0) > 1e-4


def test_known_two_point_rule():
    r = gauss_rule(2)
    np.testing.assert_allclose(r.points, [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                               atol=1e-15)
    np.testing.assert_allclose(r.weights, [1.0, 1.0], atol=1e-15)


def test_symmetry_of_nodes_and_weights():
    for n in (4, 7, 12):
        r = gauss_rule(n)
        np.testing.assert_allclose(r.points, -r.points[::-1], atol=1e-15)
        np.testing.assert_allclose(r.weights, r.weights[::-1], atol=1e-15)


def test_point_count_bounds():
    with pytest.raises(InvalidArgumentError):
        gauss_rule(0)
    with pytest.raises(InvalidArgumentError):
        gauss_rule(31)


def test_panels_split_at_interface():
    m = build_uniform_mesh(10, 1.0 / 3.0)
    panels = panel_list(m)
    assert len(panels) == m.N + 1
    cut = [pan for pan in panels if pan[0] == m.r]
    assert len(cut) == 2
    assert cut[0][2] == pytest.approx(m.gamma)
    assert cut[1][1] == pytest.approx(m.gamma)
    # panels tile [0, 1]
    assert panels[0][1] == 0.0
    assert panels[-1][2] == 1.0
    for prev, nxt in zip(panels[:-1], panels[1:]):
        assert prev[2] == pytest.approx(nxt[1], abs=1e-15)


def test_no_split_on_fitting_mesh():
    m = build_uniform_mesh(12, 1.0 / 3.0)
    assert len(panel_list(m)) == m.N


def test_integrate_kinked_function_exactly():
    # |x - gamma| integrates exactly once panels are split at gamma
    g = 1.0 / 3.0
    m = build_uniform_mesh(10, g)
    got = integrate_piecewise(lambda x: np.abs(x - g), m, 2)
    want = 0.5 * (g**2 + (1 - g) ** 2)
    assert got == pytest.approx(want, abs=1e-15)


@settings(max_examples=40)
@given(st.integers(2, 50), st.floats(0.05, 0.95))
def test_integrate_sine_any_mesh(N, gamma):
    m = build_uniform_mesh(N, gamma)
    got = integrate_piecewise(lambda x: np.sin(np.pi * x), m, 8)
    assert got == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_sample_reshapes_an_array_result_like_x():
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    calls = []
    y = sample(lambda t: calls.append(t.shape) or np.sin(t), x)
    assert calls == [(12,)]  # one call on the flattened points
    assert y.shape == (3, 4)
    np.testing.assert_array_equal(y, np.sin(x))


@pytest.mark.parametrize("value", [2.5, np.float64(2.5), np.array(2.5), np.array([2.5])])
def test_sample_broadcasts_a_scalar_result_to_x(value):
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    y = sample(lambda t: value, x)
    assert y.shape == (3, 4) and y.dtype == float
    np.testing.assert_array_equal(y, np.full((3, 4), 2.5))
