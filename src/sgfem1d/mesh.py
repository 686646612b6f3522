"""Uniform partitions of the unit interval with interface bookkeeping.

The interface sits at ``gamma`` in (0, 1).  The element containing it is
tracked by its 1-based index ``r``; when ``gamma`` lands on a node (within
tolerance) the mesh is called *fitting* and no enrichment is needed
downstream.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidArgumentError, OutOfDomainError

# Absolute tolerance for detecting gamma on a node.  Keeps gamma = 1/3 on
# meshes with N divisible by 3 detected despite binary rounding.
FITTING_TOL = 1e-12


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [0, 1] with interface location data.

    Attributes
    ----------
    N : number of elements
    nodes : array of N+1 node coordinates, nodes[0] = 0, nodes[-1] = 1
    h : maximum element size (= 1/N here, derived from N)
    gamma : interface coordinate
    r : 1-based index of the element containing gamma
    fitting : True iff gamma coincides with a node
    """

    N: int
    nodes: np.ndarray
    gamma: float
    r: int
    fitting: bool
    h = property(lambda self: 1.0 / self.N)

    def element_bounds(self, j):
        """Endpoints (x_{j-1}, x_j) of element j (1-based)."""
        return self.nodes[j - 1], self.nodes[j]


def build_uniform_mesh(N, gamma):
    """Build a uniform N-element mesh of [0, 1] with interface at gamma."""
    N = int(N)
    if N < 2:
        raise InvalidArgumentError(f"need at least 2 elements, got N={N}")
    if not 0.0 < gamma < 1.0:
        raise InvalidArgumentError(f"gamma must lie in (0, 1), got {gamma}")

    nodes = np.linspace(0.0, 1.0, N + 1)  # exact 0 and 1 at the ends
    nodes.setflags(write=False)

    j_near = int(round(gamma * N))
    fitting = abs(gamma - j_near * (1.0 / N)) < FITTING_TOL  # node j_near at j_near h
    # fitting: the element to the left of the coinciding node
    r = max(j_near, 1) if fitting else _element(nodes, gamma)
    return Mesh1D(N=N, nodes=nodes, gamma=float(gamma), r=r, fitting=fitting)


def locate(mesh, x):
    """1-based index of the element containing x (elementwise for arrays).

    Shared nodes belong to the left element, except x = 0 which maps to
    element 1.
    """
    x = np.asarray(x, dtype=float)
    outside = ~((x >= 0.0) & (x <= 1.0))
    if np.any(outside):
        raise OutOfDomainError(f"x={x[outside][0]} outside [0, 1]")
    return _element(mesh.nodes, x)


def _element(nodes, x):
    """1-based element of x among the nodes, by the rule of locate."""
    k = np.maximum(np.searchsorted(nodes, x, side="left"), 1)
    return int(k) if k.ndim == 0 else k
