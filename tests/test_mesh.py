"""Mesh construction, interface element location, fitting detection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfem1d import build_uniform_mesh, locate
from sgfem1d.exceptions import InvalidArgumentError, OutOfDomainError
from sgfem1d.mesh import FITTING_TOL


def test_nodes_cover_unit_interval():
    m = build_uniform_mesh(10, 1.0 / 3.0)
    assert m.nodes[0] == 0.0
    assert m.nodes[-1] == 1.0
    assert m.N == 10
    assert m.h == pytest.approx(0.1)
    np.testing.assert_allclose(np.diff(m.nodes), m.h, rtol=1e-14)


@pytest.mark.parametrize("N", [2, 3, 7, 10, 640])
def test_element_size_is_derived_from_N(N):
    m = build_uniform_mesh(N, 1.0 / 3.0)
    assert m.h == 1.0 / N
    assert "h" not in [f.name for f in dataclasses.fields(m)]


def test_interface_element_nonfitting():
    # gamma = 1/3 with N = 10: interface inside element 4 = (0.3, 0.4)
    m = build_uniform_mesh(10, 1.0 / 3.0)
    assert not m.fitting
    assert m.r == 4
    a, b = m.element_bounds(m.r)
    assert a < m.gamma < b


def test_fitting_mesh_detected():
    # gamma = 1/3 lands on node 4 of a 12-element mesh
    m = build_uniform_mesh(12, 1.0 / 3.0)
    assert m.fitting
    assert abs(m.nodes[m.r] - m.gamma) < FITTING_TOL


@pytest.mark.parametrize("N", [3, 6, 9, 30, 150])
def test_fitting_for_multiples_of_three(N):
    assert build_uniform_mesh(N, 1.0 / 3.0).fitting


@pytest.mark.parametrize("N", [10, 20, 40, 80, 160])
def test_benchmark_ladder_is_nonfitting(N):
    assert not build_uniform_mesh(N, 1.0 / 3.0).fitting
    assert not build_uniform_mesh(N, 1.0 / np.pi).fitting


def test_invalid_arguments_rejected():
    with pytest.raises(InvalidArgumentError):
        build_uniform_mesh(1, 0.5)
    with pytest.raises(InvalidArgumentError):
        build_uniform_mesh(10, 0.0)
    with pytest.raises(InvalidArgumentError):
        build_uniform_mesh(10, 1.0)


def test_element_count_must_be_a_whole_number():
    # 10.7 used to build a mesh of 10 elements
    for N in (10.7, 2.5, 10.000001, np.float64(3.5)):
        with pytest.raises(InvalidArgumentError, match="whole number"):
            build_uniform_mesh(N, 0.3)
    want = build_uniform_mesh(10, 0.3)
    for N in (10.0, np.int64(10), np.int32(10), np.float64(10.0)):
        mesh = build_uniform_mesh(N, 0.3)
        assert type(mesh.N) is int and mesh.N == 10
        assert np.array_equal(mesh.nodes, want.nodes) and mesh.r == want.r


def test_locate_conventions():
    m = build_uniform_mesh(10, 1.0 / 3.0)
    assert locate(m, 0.0) == 1
    assert locate(m, 1.0) == 10
    # shared nodes belong to the left element
    assert locate(m, 0.1) == 1
    assert locate(m, 0.35) == 4
    with pytest.raises(OutOfDomainError):
        locate(m, -0.01)
    with pytest.raises(OutOfDomainError):
        locate(m, 1.01)


def test_locate_array_matches_scalar_calls():
    m = build_uniform_mesh(10, 1.0 / 3.0)
    xs = np.concatenate([m.nodes, [0.05, 0.35, 0.95]])  # 0, interior nodes, 1
    np.testing.assert_array_equal(locate(m, xs), [locate(m, x) for x in xs])
    assert locate(m, xs.reshape(2, 7)).shape == (2, 7)
    with pytest.raises(OutOfDomainError):
        locate(m, np.array([0.5, 1.01]))


@settings(max_examples=60)
@given(N=st.integers(2, 400), x=st.floats(0.0, 1.0))
def test_locate_brackets_point(N, x):
    m = build_uniform_mesh(N, 1.0 / np.pi)
    k = locate(m, x)
    a, b = m.element_bounds(k)
    assert a <= x <= b


@settings(max_examples=60)
@given(N=st.integers(2, 400),
       gamma=st.floats(1e-3, 1.0 - 1e-3))
def test_interface_element_contains_gamma(N, gamma):
    m = build_uniform_mesh(N, gamma)
    a, b = m.element_bounds(m.r)
    assert a - FITTING_TOL <= m.gamma <= b + FITTING_TOL
