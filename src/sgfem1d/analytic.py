"""Exact reference solutions for piecewise-constant diffusion.

For kappa = (1 on [0, gamma], eta on [gamma, 1]) the eigenfunctions are
sines on each side, u0 = sin(omega0 x) and u1 = d sin(omega1 (x - 1)) with
omega0 = rho * omega1, rho = sqrt(eta).  Continuity of u and of the flux
kappa u' at gamma yields the transcendental matching system

    sin(rho omega1 gamma) = d sin(omega1 gamma - omega1),
    cos(rho omega1 gamma) = d rho cos(omega1 gamma - omega1),

whose roots omega1 give the eigenvalues lambda = eta * omega1**2.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import InvalidArgumentError
from .quadrature import composite_rule


@dataclass(frozen=True)
class ExactEigenpair:
    """One root of the matching system: lambda = eta * omega1**2."""

    omega1: float
    d: float
    lam: float
    index: int
    gamma: float
    eta: float


@dataclass(frozen=True)
class ExactFunction:
    """Piecewise evaluator for a reference solution and its derivative."""

    gamma: float
    f0: Callable
    f1: Callable
    df0: Callable
    df1: Callable

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.gamma, self.f0(x), self.f1(x))

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.gamma, self.df0(x), self.df1(x))


def _matching_F(w, gamma, rho):
    # eliminating d from the matching system
    return (rho * np.sin(rho * w * gamma) * np.cos(w * (gamma - 1.0))
            - np.cos(rho * w * gamma) * np.sin(w * (gamma - 1.0)))


def _recover_d(w, gamma, rho):
    s = np.sin(w * (gamma - 1.0))
    c = rho * np.cos(w * (gamma - 1.0))
    if abs(s) >= abs(c):
        return np.sin(rho * w * gamma) / s
    return np.cos(rho * w * gamma) / c


def solve_matching_system(gamma, eta, count):
    """The `count` smallest eigenpairs for the interface data (gamma, eta).

    Sign changes of the matching function are located on a scan grid and
    refined by bisection; the amplitude d follows from the matching relation
    with the better-conditioned denominator.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidArgumentError(f"gamma must lie in (0, 1), got {gamma}")
    if eta <= 0.0:
        raise InvalidArgumentError(f"eta must be positive, got {eta}")
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    rho = np.sqrt(eta)
    step = min(np.pi / (rho * 8.0), np.pi / 8.0) / max(gamma, 1.0 - gamma)

    pairs = []
    w_lo = step
    f_lo = _matching_F(w_lo, gamma, rho)
    w = w_lo
    while len(pairs) < count:
        w_hi = w + step
        f_hi = _matching_F(w_hi, gamma, rho)
        if f_lo == 0.0:
            root = w
        elif f_lo * f_hi < 0.0:
            a, b, fa = w, w_hi, f_lo
            while b - a > 1e-14 * a:
                m = 0.5 * (a + b)
                fm = _matching_F(m, gamma, rho)
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            root = 0.5 * (a + b)
        else:
            root = None
        if root is not None:
            d = _recover_d(root, gamma, rho)
            pairs.append(ExactEigenpair(
                omega1=float(root), d=float(d), lam=float(eta * root * root),
                index=len(pairs) + 1, gamma=gamma, eta=eta))
        w, f_lo = w_hi, f_hi
    return pairs


def exact_eigenfunction(pair):
    """L2-normalized evaluator for the eigenfunction of a matching-system
    root."""
    gamma, rho = pair.gamma, np.sqrt(pair.eta)
    w1, d = pair.omega1, pair.d
    w0 = rho * w1

    u0 = lambda x: np.sin(w0 * np.asarray(x))
    u1 = lambda x: d * np.sin(w1 * (np.asarray(x) - 1.0))
    # 8 panels of 16-point Gauss on each side of gamma
    edges = np.union1d(np.linspace(0.0, gamma, 9), np.linspace(gamma, 1.0, 9))
    x, w = composite_rule(edges[:-1], edges[1:], 16)
    norm = np.sqrt(np.sum(w * np.where(x <= gamma, u0(x), u1(x)) ** 2))
    c = 1.0 / norm
    return ExactFunction(
        gamma=gamma,
        f0=lambda x: c * np.sin(w0 * np.asarray(x)),
        f1=lambda x: c * d * np.sin(w1 * (np.asarray(x) - 1.0)),
        df0=lambda x: c * w0 * np.cos(w0 * np.asarray(x)),
        df1=lambda x: c * d * w1 * np.cos(w1 * (np.asarray(x) - 1.0)))


def manufactured_source():
    """The benchmark source problem: gamma = 1/3, kappa = (1, 4), with

        u = sin(6 pi x) on [0, 1/3],  (1/2) sin(3 pi (x - 1)) on [1/3, 1],

    continuous with continuous flux but a kink at the interface.  Returns
    (u, f) with f = -(kappa u')'.
    """
    g = 1.0 / 3.0
    u = ExactFunction(
        gamma=g,
        f0=lambda x: np.sin(6.0 * np.pi * np.asarray(x)),
        f1=lambda x: 0.5 * np.sin(3.0 * np.pi * (np.asarray(x) - 1.0)),
        df0=lambda x: 6.0 * np.pi * np.cos(6.0 * np.pi * np.asarray(x)),
        df1=lambda x: 1.5 * np.pi * np.cos(3.0 * np.pi * (np.asarray(x) - 1.0)))

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= g,
                        36.0 * np.pi**2 * np.sin(6.0 * np.pi * x),
                        18.0 * np.pi**2 * np.sin(3.0 * np.pi * (x - 1.0)))

    return u, f
