"""Error norms, eigenfunction alignment, convergence-rate fitting."""

import gc
import weakref

import numpy as np
import pytest

import sgfem1d.assembly
import sgfem1d.basis
from sgfem1d import (DofVector, ErrorRecord, InterfaceProblem,
                     align_eigenfunction, assemble,
                     build_interface_interpolant, build_space,
                     build_uniform_mesh, exact_eigenfunction, fit_rate,
                     generalized_eigs, h1_semi_error, l2_error,
                     manufactured_source, relative_eigenvalue_error,
                     solve_matching_system)
from sgfem1d.errors import MACHINE_FLOOR
from sgfem1d.exceptions import (DegenerateAlignmentError,
                                InsufficientDataError, InvalidArgumentError)
from sgfem1d.quadrature import sample


def _zero_dofs(space):
    return DofVector(np.zeros(space.n_fem), np.zeros(space.n_enr))


def test_norms_of_exactly_represented_function_vanish():
    # the interpolant of a continuous piecewise cubic is exact, so both
    # error norms against that function must be at rounding level
    g = 1.0 / 3.0
    u0 = lambda x: np.asarray(x) * (g - np.asarray(x)) * (1 + np.asarray(x))
    shift = u0(g)

    class Exact:
        gamma = g

        def value(self, x):
            x = np.asarray(x, dtype=float)
            left = x * (g - x) * (1 + x)
            right = shift * (1.0 - x) / (1.0 - g)
            return np.where(x <= g, left, right)

        def deriv(self, x):
            x = np.asarray(x, dtype=float)
            left = (g - x) * (1 + x) + x * (-(1 + x) + (g - x))
            right = -shift / (1.0 - g) + 0.0 * x
            return np.where(x <= g, left, right)

    mesh = build_uniform_mesh(10, g)
    space = build_space(mesh, 3)
    u1 = lambda x: shift * (1.0 - np.asarray(x)) / (1.0 - g)
    dofs = build_interface_interpolant(u0, u1, space)
    exact = Exact()
    assert l2_error(dofs, space, exact) < 1e-13
    assert h1_semi_error(dofs, space, exact) < 1e-11


def test_l2_error_of_zero_function_is_the_norm():
    u, _ = manufactured_source()
    mesh = build_uniform_mesh(20, u.gamma)
    space = build_space(mesh, 2)
    got = l2_error(_zero_dofs(space), space, u)
    # ||u||_L2 computed in closed form: int sin^2 terms over each side
    want = np.sqrt(1.0 / 6.0 + 0.25 * (1.0 / 3.0))
    assert got == pytest.approx(want, rel=1e-10)


def test_alignment_flips_sign():
    u, _ = manufactured_source()
    mesh = build_uniform_mesh(20, u.gamma)
    space = build_space(mesh, 2)
    dofs = build_interface_interpolant(lambda x: u.f0(x), lambda x: u.f1(x),
                                       space)
    flipped = dofs.scaled(-1.0)
    back = align_eigenfunction(flipped, space, u)
    np.testing.assert_allclose(back.u_F, dofs.u_F, rtol=1e-13)
    np.testing.assert_allclose(back.u_E, dofs.u_E, rtol=1e-13)
    kept = align_eigenfunction(dofs, space, u)
    np.testing.assert_allclose(kept.u_F, dofs.u_F, rtol=1e-13)


def test_alignment_rejects_near_orthogonal_function():
    u, _ = manufactured_source()
    mesh = build_uniform_mesh(20, u.gamma)
    space = build_space(mesh, 2)
    with pytest.raises(DegenerateAlignmentError):
        align_eigenfunction(_zero_dofs(space), space, u)


# ---------------------------------------------------------------------------
# The norm basis: one (p+4)-point rule per space

def _eigen_cell(p=2, N=20, gamma=1.0 / 3.0, eta=4.0):
    """A case2 SGFEM space, its eigenvectors 1, 4, 8 as DofVectors and the
    exact eigenfunctions."""
    space = build_space(build_uniform_mesh(N, gamma), p)
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=1.0,
                                              kappa1=eta))
    V = generalized_eigs(system.K, system.M, 8).vectors
    pairs = solve_matching_system(gamma, eta, 8)
    cells = [(DofVector(V[:space.n_fem, i - 1], V[space.n_fem:, i - 1]),
              exact_eigenfunction(pairs[i - 1])) for i in (1, 4, 8)]
    return space, cells


def _norms(space, cells):
    out = []
    for uh, exact in cells:
        uh = align_eigenfunction(uh, space, exact)
        out += [h1_semi_error(uh, space, exact), l2_error(uh, space, exact)]
    return out


@pytest.fixture
def rules_built(monkeypatch):
    """The point counts of every panel_basis call, from the basis module
    (the norm basis) and from assembly's own import."""
    built, real = [], sgfem1d.basis.panel_basis

    def recorder(space, n):
        built.append(n)
        return real(space, n)

    monkeypatch.setattr(sgfem1d.basis, "panel_basis", recorder)
    monkeypatch.setattr(sgfem1d.assembly, "panel_basis", recorder)
    return built


def test_norm_rule_is_built_once_per_space(rules_built):
    space, cells = _eigen_cell()
    rules_built.clear()
    _norms(space, cells)
    _norms(space, cells)
    assert rules_built == [space.p + 4]


def test_assembly_rules_are_built_on_every_call(rules_built):
    space, _ = _eigen_cell()
    prob = InterfaceProblem(gamma=space.mesh.gamma, kappa0=1.0, kappa1=4.0,
                            source=lambda x: 1.0 + x)
    rules_built.clear()
    assemble(space, prob)
    assemble(space, prob)
    assert rules_built == [space.p + 6, space.p + 2] * 2


def test_norm_basis_is_read_only():
    space, _ = _eigen_cell()
    q = space.norm_basis
    at, *gamma = q.gamma
    assert type(at) is slice and len(gamma) == 3
    for a in [q.x, q.w, q.rows, q.h, q.vals, q.ders] + gamma:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def test_norm_basis_is_per_space():
    mesh = build_uniform_mesh(20, 1.0 / 3.0)
    a, b = build_space(mesh, 2), build_space(mesh, 2)
    assert a == b
    assert a.norm_basis is not b.norm_basis
    assert a.norm_basis is a.norm_basis


def test_norm_basis_is_freed_with_its_space():
    space, _ = _eigen_cell()
    q = space.norm_basis
    refs = [weakref.ref(a) for a in (space, q.x, q.w, q.rows, q.h, *q.gamma[1:])]
    del q
    del space
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_norms_match_a_fresh_rule_bit_for_bit():
    space, cells = _eigen_cell(p=3, N=40)
    fresh = sgfem1d.basis.panel_basis(space, space.p + 4)
    want = []
    for uh, exact in cells:
        inner = np.sum(fresh.w * fresh.combine(uh)
                       * sample(exact.value, fresh.x))
        uh = uh if inner > 0.0 else uh.scaled(-1.0)
        for f, d in ((exact.deriv, 1), (exact.value, 0)):
            diff = sample(f, fresh.x) - fresh.combine(uh, d)
            want.append(np.sqrt(np.sum(fresh.w * diff ** 2)))
    assert _norms(space, cells) == want


def test_relative_eigenvalue_error():
    assert relative_eigenvalue_error(101.0, 100.0) == pytest.approx(0.01)
    assert relative_eigenvalue_error(100.0, 100.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        relative_eigenvalue_error(1.0, 0.0)


def _records(Ns, errs, p=1):
    return [ErrorRecord(N, p, "SGFEM", "q", e) for N, e in zip(Ns, errs)]


def test_fit_rate_recovers_exact_slope():
    Ns = (10, 20, 40, 80)
    errs = [3.0 * (1.0 / N) ** 2.5 for N in Ns]
    assert fit_rate(_records(Ns, errs)) == pytest.approx(2.5, abs=1e-12)


def test_fit_rate_excludes_rounding_floor_values():
    Ns = (10, 20, 40, 80, 160)
    errs = [(1.0 / N) ** 4 for N in Ns[:3]] + [MACHINE_FLOOR / 2] * 2
    got = fit_rate(_records(Ns, errs))
    assert got == pytest.approx(4.0, abs=1e-10)


def test_fit_rate_needs_three_levels():
    with pytest.raises(InsufficientDataError):
        fit_rate(_records((10, 20), [1.0, 0.5]))
    with pytest.raises(InsufficientDataError):
        fit_rate(_records((10, 10, 10), [1.0, 1.0, 1.0]))


def test_fit_rate_needs_usable_values():
    Ns = (10, 20, 40)
    with pytest.raises(InsufficientDataError):
        fit_rate(_records(Ns, [MACHINE_FLOOR / 10] * 3))


def test_fit_rate_order_independent():
    Ns = (10, 20, 40, 80)
    errs = [(1.0 / N) ** 2 for N in Ns]
    recs = _records(Ns, errs)
    assert fit_rate(recs[::-1]) == pytest.approx(fit_rate(recs), abs=1e-14)
