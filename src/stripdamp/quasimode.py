"""Assembly of one-dimensional quasimodes on (-b, b).

A matched eigen solution provides the frequency lambda and gluing constant;
the profile on [0, b] is the closed-form oscillatory part on (0, a) glued at
a to the rescaled half-line solution, multiplied by the plateau cutoff and
extended to negative x by parity (odd for a Dirichlet condition at 0, even
for Neumann). The pair (q, m) comes from

    q = 1/h^2 + lambda^2 / 2,      m = b / (2 pi h^2)  (an integer),

so the transverse term is 4 pi^2 m^2 / b^2 = 1/h^4 and the zeroth-order
coefficient collapses algebraically:

    4 pi^2 m^2 / b^2 - q^2 = -lambda^2/h^2 - lambda^4/4.

The residual of the reduced stationary operator is evaluated in exactly that
collapsed form, which removes the 1/h^4 cancellation that would otherwise
swamp the measurement in floating point. Derivatives of the rescaled
half-line factor are taken by fourth-order differences on its own fine grid;
the oscillatory part and the cutoff are differentiated analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import cap
from .eigen import EigenSolution, left_solution
from .errors import ConfigError, PreconditionError
from .model import BC_DIRICHLET, CutoffFunction, DampingProfile
from .quadrature import complex_interp, fd_derivative, gauss_panels

__all__ = [
    "Quasimode",
    "ansatz_params",
    "build_quasimode",
    "mass_bound_check",
    "damping_identity",
]


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


def _wkb_y_limit(beta: float, max_exponent: float = 600.0) -> float:
    """y beyond which the half-line solution underflows double precision."""
    if beta == 0:
        return max_exponent / math.cos(math.pi / 4.0)
    c = math.cos(math.pi / 4.0) * 2.0 / (beta + 2.0)
    return (max_exponent / c) ** (2.0 / (beta + 2.0))


@dataclass(frozen=True)
class Quasimode:
    """Sampled quasimode with the data needed to re-evaluate it anywhere."""

    eig: EigenSolution
    m: int
    q: complex
    h: float
    h2: float               # b / (2 pi m), the primary small quantity
    s: float                # length rescaling h^(2/(beta+2))
    parity: str             # 'odd' or 'even'
    b: float
    delta: float            # cutoff margin used at build time
    # quadrature sample of the half profile on [0, b]
    x: np.ndarray
    w: np.ndarray
    u: np.ndarray           # cutoff * glued profile
    v: np.ndarray           # glued profile without cutoff
    dv: np.ndarray
    d2v: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    # decimated half-line factor for re-evaluation, with its gluing constant
    y_cap: np.ndarray
    F_cap: np.ndarray
    B_eval: complex
    # measured quantities
    norm: float             # L2 norm of u on (0, b)
    residual: float         # relative residual of the reduced operator
    tail: float             # mass ratio beyond a + sigma

    @property
    def lambda_h(self) -> complex:
        return self.eig.lambda_h

    @property
    def imq_coeff(self) -> float:
        """|Im q| * (Re q)^((beta+3)/(beta+2)), the frequency-placement constant."""
        p = (self.eig.beta + 3.0) / (self.eig.beta + 2.0)
        return abs(self.q.imag) * self.q.real**p

    def evaluate(self, x):
        """Profile on arbitrary points of (-b, b), parity extension included.

        The decaying factor is reconstructed by cubic spline (smooth enough
        to survive finite differencing downstream); beyond its stored range
        the factor has underflowed and is returned as zero.
        """
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        sign = np.where((x < 0) & (self.parity == "odd"), -1.0, 1.0)
        eig = self.eig
        out = np.zeros(ax.shape, dtype=complex)
        left = ax < eig.a
        vl, _ = left_solution(ax[left], eig.lambda_h, self.h, eig.a, eig.bc)
        out[left] = vl
        yq = (ax[~left] - eig.a) / self.s
        spline = CubicSpline(self.y_cap, self.F_cap)
        vals = spline(yq)
        vals[yq > self.y_cap[-1]] = 0.0
        out[~left] = self.B_eval * vals
        cut = CutoffFunction(b=self.b, delta=self.delta)
        return sign * cut.value(ax) * out


def build_quasimode(
    eig: EigenSolution,
    profile: DampingProfile,
    cutoff: CutoffFunction,
    *,
    cap_dx: float = 5e-5,
    quad_nodes: int = 10,
    second_derivative: str = "equation",
) -> Quasimode:
    """Glue, cut off and extend one matched eigen solution; measure it.

    Preconditions: h < sigma^(beta/2) (the tail estimate needs it) and the
    geometry of eig must match the profile.

    second_derivative selects how the decaying factor is twice
    differentiated: 'equation' substitutes the equation it solves (exact
    given the samples, and the samples are cross-checked independently),
    'fd' uses fourth-order differences, which amplify the linear-solver
    rounding noise by the squared rescaling and floor the measurable
    residual once frequencies get large. 'fd' exists for cross-checks at
    moderate frequency.
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

    # half-line factor on a grid long enough to cover x = b after rescaling
    y_needed = (b - a) / s
    L = min(max(cap.default_truncation(beta), 1.02 * y_needed), _wkb_y_limit(beta))
    nF = max(2000, int(round(L / cap_dx)))
    _, _, F = cap.boundary_pair(eig.eta, beta, L, nF)
    y = np.linspace(0.0, L, nF + 1)
    dy = L / nF
    F1 = fd_derivative(F, dy, order=1)
    if second_derivative == "equation":
        F2 = (1j * y**beta - eig.eta) * F
    elif second_derivative == "fd":
        F2 = fd_derivative(F, dy, order=2)
    else:
        raise ValueError("second_derivative must be 'equation' or 'fd'")

    # a coarser companion solve backs pointwise re-evaluation: linear-solver
    # rounding noise scales like 1/dy^2, and it is that noise a downstream
    # finite difference of the reconstruction would amplify
    n_eval = max(2000, int(round(L / 5e-4)))
    _, _, F_eval = cap.boundary_pair(eig.eta, beta, L, n_eval)
    y_eval = np.linspace(0.0, L, n_eval + 1)
    stride = max(1, int(round(1e-3 * n_eval / L)))

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
    X, W = gauss_panels(breaks, widths, nodes_per_panel=quad_nodes)

    left = X < a
    v = np.empty(X.shape, dtype=complex)
    dv = np.empty_like(v)
    d2v = np.empty_like(v)
    vl, dvl = left_solution(X[left], lam, h, a, eig.bc)
    v[left] = vl
    dv[left] = dvl
    d2v[left] = -(lam * lam / h2) * vl
    # glue against this solve's own boundary value so the reconstruction is
    # continuous to rounding (the matched B of eig came from a different grid)
    v_at_a, _ = left_solution(np.array([a]), lam, h, a, eig.bc)
    B_fine = complex(v_at_a[0]) / F[0]
    yq = (X[~left] - a) / s
    Fi = complex_interp(yq, y, F)
    v[~left] = B_fine * Fi
    dv[~left] = B_fine * complex_interp(yq, y, F1) / s
    d2v[~left] = B_fine * complex_interp(yq, y, F2) / s**2

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
    residual = float(math.sqrt(np.sum(W * np.abs(R) ** 2) / norm_sq))

    return Quasimode(
        eig=eig, m=m, q=q, h=h, h2=h2, s=s,
        parity="odd" if eig.bc == BC_DIRICHLET else "even",
        b=b, delta=cutoff.delta, x=X, w=W, u=u, v=v, dv=dv, d2v=d2v,
        phi=phi, dphi=dphi, d2phi=d2phi,
        y_cap=y_eval[::stride].copy(), F_cap=F_eval[::stride].copy(),
        B_eval=complex(v_at_a[0]) / F_eval[0],
        norm=math.sqrt(norm_sq), residual=residual, tail=tail,
    )


def direct_residual_norm(qm: Quasimode, profile: DampingProfile, n: int = 40000) -> float:
    """Cross-check: same residual from raw finite differences of u.

    Resamples u on a uniform grid, differentiates it blindly and uses the
    uncollapsed coefficient 4 pi^2 m^2/b^2 - q^2. Subject to the 1/h^4
    cancellation, so only meaningful at moderate frequencies; used to
    validate the assembled path, not for sweeps.
    """
    x = np.linspace(0.0, qm.b, n + 1)
    dx = qm.b / n
    u = qm.evaluate(x)
    upp = fd_derivative(u, dx, order=2)
    Wx = profile.damping(x)
    coef = 4.0 * math.pi**2 * qm.m**2 / qm.b**2 - qm.q**2
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
    reproduces the identity up to solver and truncation error. Integration
    stops at b, beyond which the factor has decayed below double precision
    for every h this package sweeps.
    """
    edge = profile.edge_power(qm.x)
    lhs = float(np.sum(qm.w * edge * np.abs(qm.v) ** 2))
    rhs = float((qm.eig.lambda_h**2).imag * np.sum(qm.w * np.abs(qm.v) ** 2))
    return lhs, rhs
