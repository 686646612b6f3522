"""Gauss-Legendre rules and composite (panel-wise) quadrature.

Integration panels are the mesh elements, with the interface element split
at gamma on non-fitting meshes, so that every integrand of the package is
smooth (for the discrete ones, polynomial) on each panel.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import InvalidArgumentError


@dataclass(frozen=True)
class QuadRule:
    """n-point Gauss-Legendre rule on [-1, 1]."""

    n: int
    points: np.ndarray
    weights: np.ndarray


@cache  # at most 30 rules, read-only: every caller may share them
def gauss_rule(n):
    """n-point Gauss-Legendre rule, 1 <= n <= 30, nodes ascending."""
    if not 1 <= n <= 30:
        raise InvalidArgumentError(f"point count must be in 1..30, got {n}")
    points, weights = np.polynomial.legendre.leggauss(n)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(n=n, points=points, weights=weights)


def composite_rule(lo, hi, n):
    """Points and weights, each of shape (panels, n), of the n-point Gauss
    rule on every panel [lo[i], hi[i]]."""
    rule = gauss_rule(n)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    return mid + half * rule.points, half * rule.weights


def panels(mesh):
    """(elements, edges): the 1-based element index of every integration
    panel and the panel edges.  The panels are the elements, with the
    interface element split at gamma on non-fitting meshes."""
    N, r = mesh.N, mesh.r
    if mesh.fitting:
        return np.arange(1, N + 1), mesh.nodes
    return (np.concatenate([np.arange(1, r + 1), np.arange(r, N + 1)]),
            np.concatenate([mesh.nodes[:r], [mesh.gamma], mesh.nodes[r:]]))


def panel_list(mesh):
    """The integration panels as (element_index, lo, hi) tuples."""
    elements, edges = panels(mesh)
    return list(zip(elements.tolist(), edges[:-1].tolist(), edges[1:].tolist()))


def sample(f, x):
    """f called once on the flattened points x, reshaped like x (a scalar
    result is broadcast)."""
    flat = x.ravel()
    return np.broadcast_to(np.asarray(f(flat), dtype=float),
                           flat.shape).reshape(x.shape)


def integrate_piecewise(f, mesh, n):
    """Integrate f over [0, 1] with n-point Gauss panels split at the
    interface.  f must accept numpy arrays of points."""
    edges = panels(mesh)[1]
    x, w = composite_rule(edges[:-1], edges[1:], n)
    return float(np.sum(w * sample(f, x)))
