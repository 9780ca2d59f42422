"""Geometry, damping profile, cutoff function and run configuration.

The domain is the square (-b, b) x (-b, b); everything here is y-invariant,
so the profile only ever sees the x coordinate. The damping is zero on the
central strip |x| < a, grows like (|x| - a)^beta on a < |x| < a + sigma, and
is bounded away from zero on the outer region a + sigma < |x| < b. A smooth
cutoff equal to 1 below b - 2*delta and 0 above b - delta is used to push
half-line solutions into functions vanishing at the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

BC_DIRICHLET = "dirichlet"


def _falling_step(t):
    """C-infinity step built from the exp(-1/t) bump: 1 for t <= 0, 0 for t >= 1.

    Every derivative vanishes at both ends of the transition.
    """
    out = np.ones_like(t)
    out[t >= 1.0] = 0.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    p = np.exp(-1.0 / (1.0 - tm))  # e(1-t)
    q = np.exp(-1.0 / tm)          # e(t)
    out[mid] = p / (p + q)
    return out


@dataclass(frozen=True)
class DampingProfile:
    """Even, y-invariant damping coefficient on (-b, b).

    beta:   vanishing exponent at the strip edge (>= 0)
    a:      half-width of the undamped strip
    sigma:  width of the polynomial-growth region
    b:      half-width of the domain

    The outer region a + sigma < |x| < b is held at the constant sigma**beta.
    """

    beta: float
    a: float
    sigma: float
    b: float

    def __post_init__(self):
        violations = []
        if not self.a > 0:
            violations.append(f"a must be positive (got {self.a})")
        if not self.sigma > 0:
            violations.append(f"sigma must be positive (got {self.sigma})")
        if not self.beta >= 0:
            violations.append(f"beta must be >= 0 (got {self.beta})")
        if not self.a + self.sigma < self.b:
            violations.append(
                f"a + sigma < b required (got a+sigma={self.a + self.sigma}, b={self.b})"
            )
        if violations:
            raise ConfigError(violations)

    def edge_power(self, x):
        """(|x| - a)_+ ** beta, the model potential the profile follows near the strip."""
        ax = np.abs(np.asarray(x, dtype=float))
        r = np.clip(ax - self.a, 0.0, None)
        if self.beta == 0:
            return np.where(ax > self.a, 1.0, 0.0)
        return r**self.beta

    def damping(self, x):
        """W(x). Raises DomainError if any |x| > b."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if np.any(ax > self.b * (1 + 1e-12)):
            raise DomainError(f"|x| > b = {self.b} in damping evaluation")
        mid = self.edge_power(x)
        w = np.where(ax <= self.a + self.sigma, mid, self.sigma**self.beta)
        return w if w.shape else float(w)


@dataclass(frozen=True)
class UniformDamping:
    """Constant damping W = level everywhere; the synthetic controlled case."""

    level: float
    b: float

    def damping(self, x):
        x = np.asarray(x, dtype=float)
        w = np.full_like(x, self.level)
        return w if w.shape else float(w)


@dataclass(frozen=True)
class CutoffFunction:
    """Smooth plateau cutoff: 1 for x < b - 2*delta, 0 for x > b - delta.

    The transition is the step built from the exp(-1/t) bump, so every
    derivative vanishes at both transition endpoints.
    """

    b: float
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigError([f"delta must be positive (got {self.delta})"])

    def _t(self, x):
        return (np.asarray(x, dtype=float) - (self.b - 2 * self.delta)) / self.delta

    def value(self, x):
        out = _falling_step(self._t(x))
        return out if out.shape else float(out)

    def derivative(self, x, order=1):
        """First or second derivative, analytic on the transition."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        t = self._t(x)
        out = np.zeros_like(t)
        mid = (t > 0.0) & (t < 1.0)
        if not np.any(mid):
            return out if out.shape else float(out)
        tm = t[mid]
        p = np.exp(-1.0 / (1.0 - tm))
        q = np.exp(-1.0 / tm)
        s = p + q
        r = 1.0 / tm**2 + 1.0 / (1.0 - tm) ** 2
        d1 = -p * q * r / s**2
        if order == 1:
            out[mid] = d1 / self.delta
            return out if out.shape else float(out)
        dpq = p * q * (1.0 / tm**2 - 1.0 / (1.0 - tm) ** 2)
        ds = -p / (1.0 - tm) ** 2 + q / tm**2
        dr = -2.0 / tm**3 + 2.0 / (1.0 - tm) ** 3
        d2 = -(dpq * r + p * q * dr - 2.0 * p * q * r * ds / s) / s**2
        out[mid] = d2 / self.delta**2
        return out if out.shape else float(out)


def transverse_shift(m: int, b: float) -> float:
    """4 pi^2 m^2 / b^2, the term transverse mode m adds to -d^2/dx^2."""
    return 4.0 * math.pi**2 * m**2 / b**2


@dataclass(frozen=True)
class StripGrid:
    """The n interior points x of (-b, b), at spacing dx = 2b / (n + 1), and
    the discrete Dirichlet -d^2/dx^2 on them: 2/dx^2 on its diagonal, off
    beside it, and its eigenvalues in spectrum (ascending). x == -x[::-1] bit
    for bit (0.0 at the centre of odd n), so an even profile samples evenly."""

    b: float
    n: int

    @property
    def dx(self) -> float:
        return 2.0 * self.b / (self.n + 1)

    @functools.cached_property
    def x(self) -> np.ndarray:
        half, centre = divmod(self.n, 2)
        right = -self.b + self.dx * np.arange(half + 1, self.n + 1)
        right[:centre] = 0.0
        return np.concatenate([-right[centre:][::-1], right])

    @property
    def off(self) -> float:
        return -1.0 / self.dx**2

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """4/dx^2 sin^2(k pi / (2 (n + 1))) for k = 1..n."""
        k = np.arange(1, self.n + 1)
        return 4.0 / self.dx**2 * np.sin(k * math.pi / (2.0 * (self.n + 1))) ** 2

    def damping(self, profile) -> np.ndarray:
        """W of profile sampled on x."""
        return profile.damping(self.x)


def select_h(m: int, b: float) -> float:
    """Semiclassical parameter for transverse mode m: h = sqrt(b / (2 pi m)).

    Chosen so b / (2 pi h^2) is exactly the integer m.
    """
    if m < 1:
        raise DomainError(f"transverse mode index must be >= 1 (got {m})")
    return math.sqrt(b / (2.0 * math.pi * m))


@dataclass(frozen=True)
class RunConfig:
    """Damping profile and cutoff of one geometry, checked against each other."""

    profile: DampingProfile
    cutoff: CutoffFunction

    def __post_init__(self):
        violations = []
        p, c = self.profile, self.cutoff
        if not p.a + p.sigma < p.b - 2 * c.delta:
            violations.append(
                "a + sigma < b - 2*delta required so the cutoff plateau covers "
                f"the growth region (a+sigma={p.a + p.sigma}, "
                f"b-2*delta={p.b - 2 * c.delta})"
            )
        if abs(c.b - p.b) > 1e-12:
            violations.append("cutoff and profile disagree on the domain half-width b")
        if violations:
            raise ConfigError(violations)
