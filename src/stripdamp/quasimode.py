"""Assembly of one-dimensional quasimodes on (-b, b).

A matched eigen solution provides the frequency lambda and the spectral
parameter eta; the profile on [0, b] is the closed-form oscillatory part v
on (0, a) glued at a, by the constant v(a) / F(0), to the rescaled
half-line solution F, multiplied by the plateau cutoff and extended to
negative x as an odd function (the condition at 0 is Dirichlet).
The pair (q, m) comes from

    q = 1/h^2 + lambda^2 / 2,      m = b / (2 pi h^2)  (an integer),

so the transverse term is 4 pi^2 m^2 / b^2 = 1/h^4 and the zeroth-order
coefficient collapses algebraically:

    4 pi^2 m^2 / b^2 - q^2 = -lambda^2/h^2 - lambda^4/4.

The residual of the reduced stationary operator is evaluated in exactly that
collapsed form, which removes the 1/h^4 cancellation that would otherwise
swamp the measurement in floating point. The half-line factor is solved
on a uniform grid that ends just past x = b - delta, where the cutoff
reaches 0 (sooner only where _wkb_y_limit caps it, past which the factor
has underflowed), and is read as 0 beyond it. Its first derivative is a
fourth-order difference at the grid points bracketing a quadrature node,
computed from their indices rather than from a stored grid; its second
is the equation it solves, applied at the node to the interpolated factor,
so the residual's large terms cancel at every node and not only at grid
points. The oscillatory part and the cutoff are differentiated
analytically.

Quasimode.evaluate re-evaluates a build anywhere from a cubic spline of the
build's own glued factor, kept at every few grid points. The spline, and
the import of scipy.interpolate, are made on the first evaluate of a build,
not in build_quasimode: most builds only measure their residual and are
never re-evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cap
from .eigen import EigenSolution, left_solution
from .errors import ConfigError, PreconditionError
from .model import CutoffFunction, DampingProfile, transverse_shift
from .quadrature import complex_interp, fd_derivative, fd_derivative_at, gauss_panels

__all__ = [
    "Quasimode",
    "ansatz_params",
    "build_quasimode",
    "mass_bound_check",
    "damping_identity",
]

_DIRECT_RESIDUAL_N = 60000   # uniform grid intervals of direct_residual_norm on (0, b)


def ansatz_params(eig: EigenSolution, b: float):
    """(q, m) for a matched eigen solution; m must come out integral."""
    m_real = b / (2.0 * math.pi * eig.h**2)
    m = int(round(m_real))
    if m < 1 or abs(m_real - m) > 1e-6 * max(1.0, m):
        raise ConfigError(
            [f"b/(2 pi h^2) = {m_real} is not a positive integer; build h via select_h"]
        )
    h2 = b / (2.0 * math.pi * m)
    q = 1.0 / h2 + eig.lambda_h**2 / 2.0
    return q, m


def _wkb_y_limit(beta: float) -> float:
    """y beyond which the half-line solution underflows (WKB decay exponent 600).

    It ends the grid of no pinned build (RESIDUAL_SWEEP, TAIL_SWEEP,
    EVOLVE_MODES). There 1.02 y_needed does, except where
    cap.default_truncation(beta) is longer: at m <= 256 for beta = 0,
    m = 64 for beta = 1 and m = 512 for beta = 2. The deepest pinned grids
    end at y = 151, 42.1 and 22.2 against caps of 849, 117 and 41.2; in the
    default geometry the cap binds only from m = 1.3e5, 1.8e5 and 1.9e5.
    """
    c = math.cos(math.pi / 4.0) * 2.0 / (beta + 2.0)
    return (600.0 / c) ** (2.0 / (beta + 2.0))


def _grid_points(i, L, n):
    """np.linspace(0, L, n + 1)[i] without the array: i * (L / n), and L at n."""
    return np.where(i == n, L, i * (L / n))


def _bracket(yq, L, n):
    """np.searchsorted(np.linspace(0, L, n + 1), yq, "right") - 1 without the array.

    The quotient yq / (L / n) can round across a grid point, so its floor is
    corrected by one step either way against the grid points themselves.
    """
    j = np.clip(np.floor(yq / (L / n)), -1, n).astype(np.intp)
    j[(j < n) & (_grid_points(j + 1, L, n) <= yq)] += 1
    j[(j >= 0) & (_grid_points(j, L, n) > yq)] -= 1
    return j


@dataclass(frozen=True)
class Quasimode:
    """Sampled quasimode with the data needed to re-evaluate it anywhere."""

    eig: EigenSolution
    m: int
    q: complex
    h: float
    s: float                # length rescaling h^(2/(beta+2))
    b: float
    delta: float            # cutoff margin used at build time
    # quadrature sample of the half profile on [0, b]
    x: np.ndarray
    w: np.ndarray
    u: np.ndarray           # cutoff * glued profile
    v: np.ndarray           # glued profile without cutoff
    # the glued factor v = B F at every stride-th point y of its grid, which
    # evaluate splines
    y_cap: np.ndarray
    v_cap: np.ndarray
    # measured quantities
    norm: float             # L2 norm of u on (0, b)
    residual: float         # relative residual of the reduced operator
    inner_residual: float   # its part on x < a + sigma, same normalization
    tail: float             # mass ratio beyond a + sigma

    @property
    def lambda_h(self) -> complex:
        return self.eig.lambda_h

    @functools.cached_property
    def _spline(self):
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.y_cap, self.v_cap)

    def evaluate(self, x):
        """Profile on arbitrary points of (-b, b): the odd extension, exactly odd, 0 at x = 0.

        The decaying factor is reconstructed by cubic spline (smooth enough
        to survive finite differencing downstream) and returned as zero
        beyond its stored range. That range ends past x = b - delta, where
        the cutoff is 0; it ends sooner only where _wkb_y_limit caps the
        grid, past which the factor has underflowed.
        """
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        eig = self.eig
        out = np.zeros(ax.shape, dtype=complex)
        left = ax < eig.a
        vl, _ = left_solution(ax[left], eig.lambda_h, self.h, eig.a)
        out[left] = vl
        yq = (ax[~left] - eig.a) / self.s
        vals = self._spline(yq)
        vals[yq > self.y_cap[-1]] = 0.0
        out[~left] = vals
        cut = CutoffFunction(b=self.b, delta=self.delta)
        return np.sign(x) * cut.value(ax) * out


def build_quasimode(
    eig: EigenSolution,
    profile: DampingProfile,
    cutoff: CutoffFunction,
    *,
    cap_dx: float = cap._DEFAULT_DX,
) -> Quasimode:
    """Glue, cut off and extend one matched eigen solution; measure it.

    Preconditions: h < sigma^(beta/2) (the tail estimate needs it) and the
    geometry of eig must match the profile.

    One half-line solve, at spacing cap_dx, serves the build's measurements
    and evaluate. At each quadrature node the decaying factor's second
    derivative is the equation it solves applied to its interpolated value,
    so the residual hardly depends on cap_dx (only the benchmark sets it).
    Fourth-order differences would amplify the linear-solver rounding noise
    by the squared rescaling and floor the measurable residual once
    frequencies get large.
    """
    beta, a, h = eig.beta, eig.a, eig.h
    sigma, b = profile.sigma, profile.b
    if abs(beta - profile.beta) > 0 or abs(a - profile.a) > 0:
        raise ConfigError(["eigen solution and profile disagree on (beta, a)"])
    if not h < sigma ** (beta / 2.0):
        raise PreconditionError(
            f"h = {h} must be below sigma^(beta/2) = {sigma ** (beta / 2.0)}"
        )
    q, m = ansatz_params(eig, b)
    h2 = b / (2.0 * math.pi * m)
    s = h ** (2.0 / (beta + 2.0))
    lam = eig.lambda_h

    # half-line factor on a grid long enough to cover x = b - delta after
    # rescaling: past it the cutoff is 0, so the factor is never read there
    y_needed = (b - cutoff.delta - a) / s
    L = min(max(cap.default_truncation(beta), 1.02 * y_needed), _wkb_y_limit(beta))
    nF = max(2000, int(round(L / cap_dx)))
    _, _, F = cap.boundary_pair(eig.eta, beta, L, nF)
    dy = L / nF
    # glue against this solve's own boundary value so the profile is
    # continuous at a to rounding
    v_at_a, _ = left_solution(np.array([a]), lam, h, a)
    B = complex(v_at_a[0]) / F[0]
    # evaluate splines every stride-th point, about 1e-3 apart: derivatives
    # of the spline amplify the solve's rounding noise by the inverse square
    # of the sample spacing, not of dy
    i_cap = np.arange(0, nF + 1, max(1, int(round(1e-3 * nF / L))))
    y_cap, v_cap = _grid_points(i_cap, L, nF), B * F[i_cap]

    # quadrature panels never straddle the kinks of W, the gluing point or
    # the cutoff transition
    x_cap_end = a + L * s
    breaks = [0.0, a, a + sigma, b - 2 * cutoff.delta, b - cutoff.delta, b]
    if a + sigma < x_cap_end < b:
        breaks.append(x_cap_end)
    breaks = np.unique(breaks)
    period = 2.0 * math.pi * h / abs(lam)
    widths = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= a:
            widths.append(period / 4.0)
        elif lo >= b - 2 * cutoff.delta:
            widths.append(min(cutoff.delta / 6.0, max(s / 2.0, 1e-3)))
        else:
            widths.append(s / 2.0)
    X, W = gauss_panels(breaks, widths)

    left = X < a
    v = np.empty(X.shape, dtype=complex)
    dv = np.empty_like(v)
    d2v = np.empty_like(v)
    vl, dvl = left_solution(X[left], lam, h, a)
    v[left] = vl
    dv[left] = dvl
    d2v[left] = -(lam * lam / h2) * vl
    yq = (X[~left] - a) / s
    # linear interpolation reads only the two grid points bracketing a node,
    # so the factor is differenced at those points alone; each bracket is a
    # pair of adjacent entries of K, and interpolating on the grid points
    # of K gives the full-grid values bit for bit
    j = _bracket(yq, L, nF)
    K = np.unique(np.clip(np.concatenate([j, j + 1]), 0, nF))
    yK, FK = _grid_points(K, L, nF), F[K]
    F1 = fd_derivative_at(F, dy, K, 1)
    v[~left] = B * complex_interp(yq, yK, FK)
    dv[~left] = B * complex_interp(yq, yK, F1) / s
    # the equation F solves, substituted at the node: interpolating it from
    # the grid points instead would leave an O(dy^2) / s^2 mismatch with v
    # that the residual's large terms do not cancel
    d2v[~left] = (1j * yq**beta - eig.eta) * v[~left] / s**2

    phi = cutoff.value(X)
    dphi = cutoff.derivative(X, 1)
    d2phi = cutoff.derivative(X, 2)
    u = phi * v

    norm_sq = float(np.sum(W * np.abs(u) ** 2))
    tail_sel = X >= a + sigma
    tail = float(np.sum(W[tail_sel] * np.abs(u[tail_sel]) ** 2) / norm_sq)

    # residual of the reduced operator in the collapsed-coefficient form
    coef = -(lam * lam) / h2 - lam**4 / 4.0
    Wx = profile.damping(X)
    upp = d2phi * v + 2.0 * dphi * dv + phi * d2v
    R = -upp + 1j * q * Wx * u + coef * u
    R_sq = W * np.abs(R) ** 2
    residual = float(math.sqrt(np.sum(R_sq) / norm_sq))
    inner_residual = float(math.sqrt(np.sum(R_sq[~tail_sel]) / norm_sq))

    return Quasimode(
        eig=eig, m=m, q=q, h=h, s=s,
        b=b, delta=cutoff.delta, x=X, w=W, u=u, v=v, y_cap=y_cap, v_cap=v_cap,
        norm=math.sqrt(norm_sq), residual=residual,
        inner_residual=inner_residual, tail=tail,
    )


def direct_residual_norm(qm: Quasimode, profile: DampingProfile) -> float:
    """Cross-check: same residual from raw finite differences of u.

    Resamples u on a uniform grid, differentiates it blindly and uses the
    uncollapsed coefficient 4 pi^2 m^2/b^2 - q^2. Subject to the 1/h^4
    cancellation, so only meaningful at moderate frequencies; used to
    validate the assembled path, not for sweeps. Meaningless at beta = 0,
    at any frequency: W jumps from 0 to 1 at x = a, so u'' jumps there and
    the blind difference across the jump swamps the norm (0.165 against the
    assembled 3.04e-3 at m = 64; at beta = 1, m = 64 the two agree).
    """
    x, dx = np.linspace(0.0, qm.b, _DIRECT_RESIDUAL_N + 1, retstep=True)
    u = qm.evaluate(x)
    upp = fd_derivative(u, dx, order=2)
    Wx = profile.damping(x)
    coef = transverse_shift(qm.m, qm.b) - qm.q**2
    R = -upp + 1j * qm.q * Wx * u + coef * u
    # trim the endpoints where one-sided stencils meet the Dirichlet zero
    sel = slice(3, -3)
    num = np.trapezoid(np.abs(R[sel]) ** 2, x[sel])
    den = np.trapezoid(np.abs(u[sel]) ** 2, x[sel])
    return float(math.sqrt(num / den))


def mass_bound_check(qm: Quasimode, profile: DampingProfile):
    """(ratio, bound) for the uncut profile mass against its cut-off mass.

    ratio = |v|^2_{L2(0,b)} / |phi v|^2_{L2(0,b)} must not exceed
    bound = 1 + sigma^beta / (sigma^beta - h^2) whenever h < sigma^(beta/2).
    The sampled v is 0 past the end of the factor's grid, just beyond
    x = b - delta, so the ratio leaves out the |v|^2 mass between that end
    and b: at most 1.1e-16 of |v|^2 in the tail sweeps (beta = 1, m = 64),
    below the rounding of the sum, and under 1e-22 from m = 256 on.
    """
    sb = profile.sigma**profile.beta
    if not qm.h**2 < sb:
        raise PreconditionError(
            f"mass bound needs h^2 < sigma^beta (h^2 = {qm.h**2}, sigma^beta = {sb})"
        )
    v2 = float(np.sum(qm.w * np.abs(qm.v) ** 2))
    u2 = float(np.sum(qm.w * np.abs(qm.u) ** 2))
    bound = 1.0 + sb / (sb - qm.h**2)
    return v2 / u2, bound


def damping_identity(qm: Quasimode, profile: DampingProfile):
    """(lhs, rhs): integral of (x-a)_+^beta |v|^2 against Im(lambda^2) |v|^2.

    For the exact half-line solution these are equal; the sampled profile
    reproduces the identity up to solver and truncation error. The sampled
    v is 0 past the end of the factor's grid, just beyond x = b - delta,
    so both sides leave out the |v|^2 mass between that end and b, as
    mass_bound_check does: at most 1.1e-16 of it in the tail sweeps.
    """
    edge = profile.edge_power(qm.x)
    lhs = float(np.sum(qm.w * edge * np.abs(qm.v) ** 2))
    rhs = float((qm.eig.lambda_h**2).imag * np.sum(qm.w * np.abs(qm.v) ** 2))
    return lhs, rhs
