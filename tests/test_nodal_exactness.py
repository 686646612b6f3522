"""Nodal exactness of SGFEM: a check of the source solve that needs no
reference data.

For piecewise-constant kappa the Green's function of a mesh node, and of
gamma, is piecewise linear with kinks only there and at gamma, and every
SGFEM space contains it.  So, with a load the quadrature integrates
exactly (a polynomial source), Galerkin orthogonality makes the SGFEM
solution exact at every node and at gamma, up to rounding whose floor grows
like N^2.  FEM on a non-fitting mesh lacks the kink at gamma; it is the
negative control, and its nodal error falls like h.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from sgfem1d import (DofVector, InterfaceProblem, assemble, build_space,
                     build_uniform_mesh, eval_solution, solve_spd)

EPS = np.finfo(float).eps
# The SGFEM nodal error, relative to max|u|, is at most C eps N^2.  Measured
# over 1500 draws of the hypothesis test's space (N 10-400): at most 89 eps N^2,
# at p = 6; 2 eps N^2 at p = 5, N = 640.
C = 512


def _exact(f, gamma, k1):
    """(u0, u1), the polynomials on [0, gamma] and [gamma, 1] of u with
    -(kappa u')' = f, u(0) = u(1) = 0 and kappa = (1, k1): kappa u' = c - F1
    with F1' = f, and c such that u(1) = 0."""
    F1 = f.integ()
    F2 = F1.integ()
    c = (F2(gamma) + (F2(1.0) - F2(gamma)) / k1) / (gamma + (1.0 - gamma) / k1)
    u0 = Polynomial([0.0, c]) - F2
    return u0, u0(gamma) + (Polynomial([-c * gamma, c]) - F2 + F2(gamma)) / k1


def _nodal_error(N, gamma, p, k1, f, enrich=True):
    """max |u_h - u| over the mesh nodes and gamma, relative to max |u|."""
    mesh = build_uniform_mesh(N, gamma)
    assert not mesh.fitting
    space = build_space(mesh, p, enrich=enrich)
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=k1,
                                              source=f))
    U = solve_spd(system.K, system.F)
    uh = DofVector(U[:space.n_fem], U[space.n_fem:])
    (u0, u1), x = _exact(f, gamma, k1), np.append(mesh.nodes, gamma)
    u = lambda x: np.where(x <= gamma, u0(x), u1(x))  # noqa: E731
    scale = np.abs(u(np.append(np.linspace(0.0, 1.0, 2001), gamma))).max()
    return np.abs(eval_solution(space, uh, x) - u(x)).max() / scale


def test_exact_solution_solves_the_interface_problem():
    f, gamma, k1 = Polynomial([1.0, 2.0, -3.0]), 0.3, 7.0
    u0, u1 = _exact(f, gamma, k1)
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(-u0.deriv(2)(x), f(x), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(-k1 * u1.deriv(2)(x), f(x), rtol=1e-13, atol=1e-13)
    assert u0(0.0) == 0.0 and abs(u1(1.0)) < 1e-15
    assert abs(u0(gamma) - u1(gamma)) < 1e-15  # continuous at gamma
    assert abs(u0.deriv()(gamma) - k1 * u1.deriv()(gamma)) < 1e-14  # and its flux


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 6), N=st.integers(10, 400), where=st.floats(0.0, 1.0),
       nu=st.floats(0.1, 0.9), log_eta=st.floats(-3.0, 3.0),
       coeffs=st.lists(st.floats(-1.0, 1.0), max_size=3))
@example(p=2, N=10, where=0.0, nu=0.5, log_eta=1.0, coeffs=[2.0, -3.0])  # element 1
@example(p=1, N=10, where=1.0, nu=0.3, log_eta=3.0, coeffs=[2.0, -3.0])  # element N
@example(p=6, N=400, where=0.0, nu=0.1, log_eta=-3.0, coeffs=[1.0, 1.0, 1.0])
@example(p=5, N=640, where=0.37, nu=0.5, log_eta=np.log10(15.175383390373701),
         coeffs=[-1.0, 0.5])
def test_sgfem_is_exact_at_the_nodes_and_gamma(p, N, where, nu, log_eta, coeffs):
    # gamma at least h/10 from a node, in any element, the first and last included
    gamma = (min(int(where * N), N - 1) + nu) / N
    f = Polynomial([1.0, *coeffs])  # the p+6 load rule integrates it exactly
    assert _nodal_error(N, gamma, p, 10.0 ** log_eta, f) <= C * EPS * N ** 2


@pytest.mark.parametrize("p", [1, 3, 6])
@pytest.mark.parametrize("c,nu,k1", [(0.4, 0.5, 4.0), (0.3, 0.25, 1e-3), (0.7, 0.7, 1e3)])
def test_fem_nodal_error_on_a_nonfitting_mesh_falls_like_h(p, c, nu, k1):
    # gamma at the same place nu of its element at every N, near c
    Ns, f = np.array([10, 20, 40, 80, 160]), Polynomial([1.0, 2.0, -3.0])
    fem = np.array([_nodal_error(N, (round(c * N) + nu) / N, p, k1, f, enrich=False)
                    for N in Ns])
    slope = -np.polyfit(np.log(Ns), np.log(fem), 1)[0]
    assert 0.85 <= slope <= 1.2  # measured 0.93-1.11
    # four orders of magnitude above the bound SGFEM meets on the same meshes
    assert np.all(fem > 1e4 * C * EPS * Ns ** 2)
    sgfem = [_nodal_error(N, (round(c * N) + nu) / N, p, k1, f) for N in Ns]
    assert np.all(sgfem <= C * EPS * Ns ** 2)
