"""Reference-free invariances of the discrete spectrum.

Reflecting the problem, x -> 1 - x, maps gamma to 1 - gamma and kappa =
(kappa0, kappa1) to (kappa1, kappa0), and the mesh, the FEM space and the
enrichment |x - gamma| onto those of the reflected problem; scaling kappa by
c scales K by c and leaves M.  So the k = min(n, 8) smallest eigenvalues of
K v = lambda M v must come out unchanged by the one and scaled by c by the
other, on every cell, with or without enrichment, up to rounding.

The bound is a stated multiple of eps N^2, the floor of the assembled pencil
(tests/test_nodal_exactness.py).  Measured over about 5400 drawn cells (p 1-4,
gamma on a node or at least h/10 from every one, eta in [1/20, 20], c in
[1e-2, 1e2]), relative to the eigenvalue: at most 25 eps N^2 from N = 6 on; up
to 2.1e4 eps N^2 (6e-11) at N = 3-5, where k = 8 reaches the top of a pencil
of 16-30 rows and the nearly dependent enrichment of p = 4 sets the floor, not
N.  At contrast 1e3 that small-N floor reaches 7e5 eps N^2, so the draws keep
eta within [1/20, 20], which holds the paper's 4, e^2 and 15.18.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem1d import (InterfaceProblem, assemble, build_space, build_uniform_mesh,
                     generalized_eigs)

EPS = np.finfo(float).eps
C = 128  # 5x the measured 25, for N >= 6
C_SMALL_N = 2**17  # 6x the measured 2.1e4, for N <= 5


def _tolerance(N):
    return (C if N >= 6 else C_SMALL_N) * EPS * N**2


@st.composite
def cells(draw):
    """(p, N, gamma, eta, enrich): gamma on a node, or at least h/10 from every one."""
    p, N = draw(st.integers(1, 4)), draw(st.integers(3, 200))
    if draw(st.booleans()):
        gamma = draw(st.integers(1, N - 1)) / N
    else:
        gamma = (draw(st.integers(0, N - 1)) + draw(st.floats(0.1, 0.9))) / N
    return p, N, gamma, 20.0 ** draw(st.floats(-1.0, 1.0)), draw(st.booleans())


def _eigenvalues(p, N, gamma, kappa0, kappa1, enrich):
    space = build_space(build_uniform_mesh(N, gamma), p, enrich=enrich)
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=kappa0, kappa1=kappa1))
    return generalized_eigs(system.K, system.M, min(space.n_fem + space.n_enr, 8)).values


# p = 4 near a node at N = 3 and 4, where the largest ratios were measured, and N = 200
@settings(max_examples=40, deadline=None)
@given(cell=cells())
@example(cell=(4, 3, 0.122 / 3, 17.199, True))
@example(cell=(4, 4, 3.89 / 4, 0.051, True))
@example(cell=(4, 200, 97.4 / 200, 0.08, True))
@example(cell=(3, 3, 1.0 / 3.0, 4.0, True))  # on a node: no enrichment
def test_reflection_leaves_the_spectrum_unchanged(cell):
    p, N, gamma, eta, enrich = cell
    lam = _eigenvalues(p, N, gamma, 1.0, eta, enrich)
    reflected = _eigenvalues(p, N, 1.0 - gamma, eta, 1.0, enrich)
    assert np.abs(reflected / lam - 1.0).max() <= _tolerance(N)


@settings(max_examples=40, deadline=None)
@given(cell=cells(), log_c=st.floats(-2.0, 2.0))
@example(cell=(4, 3, 0.122 / 3, 17.199, True), log_c=1.5)
@example(cell=(4, 5, 0.187 / 5, 17.622, True), log_c=1.0)
@example(cell=(2, 200, 0.5 / 200, 0.05, False), log_c=-2.0)
def test_scaling_kappa_scales_the_spectrum(cell, log_c):
    p, N, gamma, eta, enrich = cell
    c = 10.0 ** log_c
    lam = _eigenvalues(p, N, gamma, 1.0, eta, enrich)
    scaled = _eigenvalues(p, N, gamma, c, c * eta, enrich)
    assert np.abs(scaled / (c * lam) - 1.0).max() <= _tolerance(N)
