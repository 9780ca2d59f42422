"""Geometry, damping profile, cutoff function and run configuration.

The domain is the square (-b, b) x (-b, b); everything here is y-invariant,
so the profile only ever sees the x coordinate. The damping is zero on the
central strip |x| < a, grows like (|x| - a)^beta on a < |x| < a + sigma, and
is bounded away from zero on the outer region a + sigma < |x| < b. A smooth
cutoff equal to 1 below b - 2*delta and 0 above b - delta is used to push
half-line solutions into functions vanishing at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError

JOIN_CONSTANT = "constant"
JOIN_SMOOTH = "smooth"

BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"


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
    join:   'constant' holds the outer region at sigma**beta;
            'smooth' blends to the constant (2*sigma)**beta by a + 2*sigma
    """

    beta: float
    a: float
    sigma: float
    b: float
    join: str = JOIN_CONSTANT

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
        if self.join not in (JOIN_CONSTANT, JOIN_SMOOTH):
            violations.append(f"join must be 'constant' or 'smooth' (got {self.join!r})")
        if self.join == JOIN_SMOOTH and not self.a + 2 * self.sigma < self.b:
            violations.append(
                "smooth join needs a + 2*sigma < b so the constant plateau exists"
            )
        if violations:
            raise ConfigError(violations)

    @property
    def c_floor(self) -> float:
        """Lower bound of the damping on the outer region."""
        return self.sigma**self.beta

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
        if self.join == JOIN_CONSTANT:
            outer = np.full_like(ax, self.sigma**self.beta)
        else:
            # blend (|x|-a)^beta into the constant (2 sigma)^beta across one
            # extra sigma; the step is flat to all orders at a + sigma so W
            # stays smooth there
            f = _falling_step((ax - (self.a + self.sigma)) / self.sigma)
            outer = f * mid + (1.0 - f) * (2.0 * self.sigma) ** self.beta
        w = np.where(ax <= self.a + self.sigma, mid, outer)
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

    def edge_power(self, x):
        x = np.asarray(x, dtype=float)
        w = np.zeros_like(x)
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


def select_h(m: int, b: float) -> float:
    """Semiclassical parameter for transverse mode m: h = sqrt(b / (2 pi m)).

    Chosen so b / (2 pi h^2) is exactly the integer m.
    """
    if m < 1:
        raise DomainError(f"transverse mode index must be >= 1 (got {m})")
    return math.sqrt(b / (2.0 * math.pi * m))


def mode_from_h(h: float, b: float) -> float:
    """Inverse of select_h: b / (2 pi h^2)."""
    return b / (2.0 * math.pi * h * h)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle consumed by every driver stage."""

    profile: DampingProfile
    cutoff: CutoffFunction
    bc: str = BC_DIRICHLET
    l: float = 1
    m_list: tuple = (64, 128, 256, 512, 1024, 2048)

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
        if self.bc not in (BC_DIRICHLET, BC_NEUMANN):
            violations.append(f"bc must be 'dirichlet' or 'neumann' (got {self.bc!r})")
        if self.bc == BC_DIRICHLET and abs(self.l - round(self.l)) > 1e-12:
            violations.append(
                f"Dirichlet boundary condition requires integer l (got {self.l})"
            )
        if self.bc == BC_NEUMANN and abs(self.l + 0.5 - round(self.l + 0.5)) > 1e-12:
            violations.append(
                f"Neumann boundary condition requires half-integer l (got {self.l})"
            )
        for m in self.m_list:
            if not (isinstance(m, (int, np.integer)) and m >= 1):
                violations.append(f"m_list entries must be positive integers (got {m!r})")
        if violations:
            raise ConfigError(violations)

    def with_beta(self, beta: float) -> "RunConfig":
        return replace(self, profile=replace(self.profile, beta=beta))


# ---------------------------------------------------------------------------
# plain key = value configuration files

_CONFIG_KEYS = {"beta", "a", "sigma", "b", "delta", "join", "bc", "l", "m_list"}


def parse_config_text(text: str, keys=_CONFIG_KEYS) -> dict:
    """Parse 'key = value' lines; values in JSON syntax, '#" starts a comment.

    Keys outside `keys` are rejected.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected 'key = value' (got {raw!r})"])
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ConfigError([f"line {lineno}: unknown key {key!r}"])
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def config_from_dict(d: dict) -> RunConfig:
    d = dict(d)
    profile = DampingProfile(
        beta=float(d.pop("beta", 1.0)),
        a=float(d.pop("a", 1.0)),
        sigma=float(d.pop("sigma", 1.0)),
        b=float(d.pop("b", 3.0)),
        join=d.pop("join", JOIN_CONSTANT),
    )
    cutoff = CutoffFunction(b=profile.b, delta=float(d.pop("delta", 0.4)))
    bc = d.pop("bc", BC_DIRICHLET)
    l = d.pop("l", 1)
    m_list = tuple(int(m) for m in d.pop("m_list", (64, 128, 256, 512, 1024, 2048)))
    if d:
        raise ConfigError([f"unhandled key {k!r}" for k in d])
    return RunConfig(profile=profile, cutoff=cutoff, bc=bc, l=l, m_list=m_list)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(parse_config_text(fh.read()))
