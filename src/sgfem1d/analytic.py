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

import numpy as np

from .exceptions import ConvergenceFailureError, InvalidArgumentError

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
    """a0 sin(w0 x) on [0, gamma] and a1 sin(w1 (x - 1)) on [gamma, 1]: its sides
    f0, f1, their derivatives df0, df1, and the piecewise value and deriv."""

    gamma: float
    a0: float
    w0: float
    a1: float
    w1: float

    f0 = lambda self, x: self.a0 * np.sin(self.w0 * np.asarray(x))
    f1 = lambda self, x: self.a1 * np.sin(self.w1 * (np.asarray(x) - 1.0))
    df0 = lambda self, x: self.a0 * self.w0 * np.cos(self.w0 * np.asarray(x))
    df1 = lambda self, x: self.a1 * self.w1 * np.cos(self.w1 * (np.asarray(x) - 1.0))
    value = lambda self, x: self._sides(self.f0, self.f1, x)
    deriv = lambda self, x: self._sides(self.df0, self.df1, x)

    def _sides(self, f0, f1, x):
        """f0 at the x <= gamma and f1 at the others, each at its points only."""
        x = np.asarray(x, dtype=float)
        left, out = x <= self.gamma, np.empty(x.shape)
        out[left], out[~left] = f0(x[left]), f1(x[~left])
        return out


def _matching_F(w, gamma, rho):
    # eliminating d from the matching system
    t0, t1 = rho * w * gamma, w * (gamma - 1.0)
    return rho * np.sin(t0) * np.cos(t1) - np.cos(t0) * np.sin(t1)


def solve_matching_system(gamma, eta, count):
    """The `count` smallest eigenpairs for the interface data (gamma, eta).

    With t0 = rho omega1 gamma, the matching function is R sin(Theta) for
    R = sqrt(cos(t0)**2 + rho**2 sin(t0)**2) > 0 and the increasing Pruefer
    phase Theta = phi(t0) + omega1 (1 - gamma), tan(phi) = rho tan(t0),
    |phi(t) - t| < pi/2.  So with s = rho gamma + 1 - gamma the n-th root is
    the only one in ((n - 1/2) pi / s, (n + 1/2) pi / s); these brackets are
    refined by false position and the amplitude d follows from the matching
    relation with the better-conditioned denominator.
    """
    if not 0.0 < gamma < 1.0:
        raise InvalidArgumentError(f"gamma must lie in (0, 1), got {gamma}")
    if not 0.0 < eta < np.inf:
        raise InvalidArgumentError(f"eta must be positive and finite, got {eta}")
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    rho = np.sqrt(eta)
    s = rho * gamma + 1.0 - gamma
    a, b = (np.arange(1, count + 1) + [[-0.5], [0.5]]) * np.pi / s
    fa, fb = _matching_F(a, gamma, rho), _matching_F(b, gamma, rho)
    if (found := np.count_nonzero(np.signbit(fa) != np.signbit(fb))) < count:
        raise ConvergenceFailureError(
            f"found {found} of {count} matching roots (gamma={gamma}, eta={eta})")
    # Illinois: secant steps in brackets wider than 4 ulp, F halved at an end kept twice
    roots, i = b.copy(), np.arange(count)
    while (wide := (np.abs(b - a) > 2.0**-50 * b) & (fb != 0.0)).any():
        i, a, b, fa, fb = i[wide], a[wide], b[wide], fa[wide], fb[wide]
        x = b - fb * (b - a) / (fb - fa)
        fx = _matching_F(x, gamma, rho)
        keep = np.signbit(fx) == np.signbit(fb)
        a, fa = np.where(keep, a, b), np.where(keep, 0.5 * fa, fb)
        roots[i], b, fb = x, x, fx
    t0, t1 = rho * roots * gamma, roots * (gamma - 1.0)
    big = np.abs(np.sin(t1)) >= np.abs(rho * np.cos(t1))
    d = np.where(big, np.sin(t0) / np.sin(t1), np.cos(t0) / (rho * np.cos(t1)))
    return [ExactEigenpair(omega1=float(r), d=float(dn), lam=float(eta * r * r),
                           index=n, gamma=gamma, eta=eta)
            for n, (r, dn) in enumerate(zip(roots, d), start=1)]


def exact_eigenfunction(pair):
    """L2-normalized evaluator for the eigenfunction of a matching-system root."""
    gamma, w1, d = pair.gamma, pair.omega1, pair.d
    w0 = np.sqrt(pair.eta) * w1
    # integral of the squared sines on [0, gamma] and [gamma, 1]
    norm2 = (gamma / 2.0 - np.sin(2.0 * w0 * gamma) / (4.0 * w0)
             + d * d * ((1.0 - gamma) / 2.0
                        - np.sin(2.0 * w1 * (1.0 - gamma)) / (4.0 * w1)))
    c = 1.0 / np.sqrt(norm2)
    return ExactFunction(gamma, c, w0, c * d, w1)


def manufactured_source():
    """The benchmark source problem: gamma = 1/3, kappa = (1, 4), with

        u = sin(6 pi x) on [0, 1/3],  (1/2) sin(3 pi (x - 1)) on [1/3, 1],

    continuous with continuous flux but a kink at the interface.  Returns
    (u, f) with f = -(kappa u')'.
    """
    g = 1.0 / 3.0
    u = ExactFunction(g, 1.0, 6.0 * np.pi, 0.5, 3.0 * np.pi)
    f = ExactFunction(g, 36.0 * np.pi**2, 6.0 * np.pi, 18.0 * np.pi**2, 3.0 * np.pi)
    return u, f.value
