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

from .exceptions import ConvergenceFailureError, InvalidArgumentError

_SCAN_BLOCK = 2**16  # root scan grid points held at a time (a few MB)


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


def _piecewise_sine(gamma, a0, w0, a1, w1):
    """a0 sin(w0 x) on [0, gamma] and a1 sin(w1 (x - 1)) on [gamma, 1]."""
    return ExactFunction(
        gamma=gamma,
        f0=lambda x: a0 * np.sin(w0 * np.asarray(x)),
        f1=lambda x: a1 * np.sin(w1 * (np.asarray(x) - 1.0)),
        df0=lambda x: a0 * w0 * np.cos(w0 * np.asarray(x)),
        df1=lambda x: a1 * w1 * np.cos(w1 * (np.asarray(x) - 1.0)))


def _matching_F(w, gamma, rho):
    # eliminating d from the matching system
    t0, t1 = rho * w * gamma, w * (gamma - 1.0)
    return rho * np.sin(t0) * np.cos(t1) - np.cos(t0) * np.sin(t1)


def solve_matching_system(gamma, eta, count):
    """The `count` smallest eigenpairs for the interface data (gamma, eta).

    By domain monotonicity (sines supported on one side only),
    omega1_n <= n pi min(1/(1 - gamma), 1/(rho gamma)), so the matching
    function is sampled in blocks up to that bound until `count` sign changes
    are seen; these are refined by false position and the amplitude d follows
    from the matching relation with the better-conditioned denominator.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidArgumentError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < eta < np.inf:
        raise InvalidArgumentError(f"eta must be positive and finite, got {eta}")
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    rho = np.sqrt(eta)
    step = min(np.pi / (rho * 8.0), np.pi / 8.0) / max(gamma, 1.0 - gamma)
    bound = count * np.pi * min(1.0 / (1.0 - gamma), 1.0 / (rho * gamma))
    # step, 2 step, ... summed in order (the grid of a step-by-step scan),
    # in blocks that each start from the last point of the one before
    n, w, found = int(bound / step) + 1, np.array([step]), []
    for start in range(1, n, _SCAN_BLOCK):
        w = np.cumsum(np.append(w[-1], np.full(min(_SCAN_BLOCK, n - start), step)))
        neg = np.signbit(_matching_F(w, gamma, rho))
        lo = np.flatnonzero(neg[1:] != neg[:-1])
        found += zip(w[lo], w[lo + 1])
        if len(found) >= count:
            break
    if len(found) < count:
        raise ConvergenceFailureError(
            f"found {len(found)} of {count} matching roots below omega1 = {bound:.6g}"
            f" (gamma={gamma}, eta={eta})")
    # Illinois: secant steps in each bracket, F halved at an end kept twice
    a, b = map(np.array, zip(*found[:count]))
    fa, fb = _matching_F(a, gamma, rho), _matching_F(b, gamma, rho)
    while (wide := (np.abs(b - a) > 2.0**-50 * b) & (fb != 0.0)).any():  # 4 ulp
        x = np.where(wide, b - fb * (b - a) / (fb - fa), b)
        fx = _matching_F(x, gamma, rho)
        keep = np.signbit(fx) == np.signbit(fb)
        a, fa = np.where(keep, a, b), np.where(keep, 0.5 * fa, fb)
        b, fb = x, fx
    roots = b

    t0, t1 = rho * roots * gamma, roots * (gamma - 1.0)
    big = np.abs(np.sin(t1)) >= np.abs(rho * np.cos(t1))
    d = np.where(big, np.sin(t0) / np.sin(t1), np.cos(t0) / (rho * np.cos(t1)))
    return [ExactEigenpair(omega1=float(r), d=float(dn), lam=float(eta * r * r),
                           index=n, gamma=gamma, eta=eta)
            for n, (r, dn) in enumerate(zip(roots, d), start=1)]


def exact_eigenfunction(pair):
    """L2-normalized evaluator for the eigenfunction of a matching-system
    root."""
    gamma, w1, d = pair.gamma, pair.omega1, pair.d
    w0 = np.sqrt(pair.eta) * w1
    # integral of the squared sines on [0, gamma] and [gamma, 1]
    norm2 = (gamma / 2.0 - np.sin(2.0 * w0 * gamma) / (4.0 * w0)
             + d * d * ((1.0 - gamma) / 2.0
                        - np.sin(2.0 * w1 * (1.0 - gamma)) / (4.0 * w1)))
    c = 1.0 / np.sqrt(norm2)
    return _piecewise_sine(gamma, c, w0, c * d, w1)


def manufactured_source():
    """The benchmark source problem: gamma = 1/3, kappa = (1, 4), with

        u = sin(6 pi x) on [0, 1/3],  (1/2) sin(3 pi (x - 1)) on [1/3, 1],

    continuous with continuous flux but a kink at the interface.  Returns
    (u, f) with f = -(kappa u')'.
    """
    g = 1.0 / 3.0
    u = _piecewise_sine(g, 1.0, 6.0 * np.pi, 0.5, 3.0 * np.pi)
    f = _piecewise_sine(g, 36.0 * np.pi**2, 6.0 * np.pi,
                        18.0 * np.pi**2, 3.0 * np.pi)
    return u, f.value
