"""Time evolution of the reduced damped wave equation per transverse mode.

The displacement of mode m obeys

    u_tt - u_xx + (4 pi^2 m^2 / b^2) u + W(x) u_t = 0   on (-b, b),

with Dirichlet ends. The stepper is the implicit midpoint rule on the
first-order system in (u, v = u_t): unconditionally stable, and for the
quadratic energy it satisfies a discrete dissipation identity

    E[k+1] - E[k] = -dt * integral W |v_{k+1/2}|^2

exactly, so energy is conserved to rounding when W = 0 and never increases
when W >= 0. Each step is one pre-factorized tridiagonal solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InstabilityError, ResolutionError
from .fits import FitResult, linear_fit

__all__ = [
    "WaveState",
    "EnergyTrace",
    "RateFit",
    "make_grid",
    "quasimode_state",
    "discrete_energy",
    "evolve",
    "fit_decay",
    "fit_exponential_rate",
]


@dataclass(frozen=True)
class WaveState:
    """Displacement and velocity samples on the interior grid of (-b, b)."""

    u: np.ndarray
    v: np.ndarray
    m: int
    b: float
    t: float = 0.0

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def dx(self) -> float:
        return 2.0 * self.b / (self.n + 1)

    @property
    def x(self) -> np.ndarray:
        return -self.b + self.dx * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class EnergyTrace:
    times: np.ndarray
    energies: np.ndarray
    m: int


@dataclass(frozen=True)
class RateFit:
    exponent: float | None   # fitted alpha in E ~ t^(-2 alpha); None if inconclusive
    window: tuple
    r2: float
    inconclusive: bool
    fit: FitResult
    reason: str = ""          # 'r2' or 'curvature' when inconclusive


def make_grid(b: float, n: int) -> np.ndarray:
    return -b + (2.0 * b / (n + 1)) * np.arange(1, n + 1)


def _stiffness(n: int, b: float, m: int):
    """Tridiagonal -d^2/dx^2 + 4 pi^2 m^2 / b^2 with Dirichlet ends."""
    dx = 2.0 * b / (n + 1)
    shift = 4.0 * math.pi**2 * m**2 / b**2
    diag = np.full(n, 2.0 / dx**2 + shift)
    off = np.full(n - 1, -1.0 / dx**2)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csc"), dx


def discrete_energy(state: WaveState) -> float:
    """E = (<A u, u> + |v|^2) * dx / 2 with the discrete stiffness A."""
    A, dx = _stiffness(state.n, state.b, state.m)
    u, v = state.u, state.v
    quad = np.vdot(u, A @ u).real + np.vdot(v, v).real
    return 0.5 * dx * float(quad)


def quasimode_state(qm, n: int) -> WaveState:
    """Initial data (u, i q u) resampling a stored quasimode on n points."""
    x = make_grid(qm.b, n)
    u = qm.evaluate(x)
    return WaveState(u=u, v=1j * qm.q * u, m=qm.m, b=qm.b, t=0.0)


def evolve(
    initial: WaveState,
    profile,
    dt: float,
    T: float,
    *,
    stride: int = 1,
    scheme_tol: float = 1e-9,
    store_states: bool = False,
):
    """Implicit midpoint evolution; returns an EnergyTrace (and states if asked).

    dt must resolve the fastest retained oscillation; an energy increase
    beyond scheme_tol (relative, per sample) raises InstabilityError since
    the scheme is dissipative for W >= 0.
    """
    n, b, m = initial.n, initial.b, initial.m
    A, dx = _stiffness(n, b, m)
    x = initial.x
    W = profile.damping(x)
    freq = math.sqrt(4.0 * math.pi**2 * m**2 / b**2)
    if dt * freq > 1.5:
        raise ResolutionError(
            f"dt = {dt} does not resolve the transverse frequency {freq:.3g}"
        )
    alpha = 0.5 * dt
    lhs = sp.diags([np.full(n - 1, 0.0), 1.0 + alpha * W, np.full(n - 1, 0.0)],
                   [-1, 0, 1], format="csc", dtype=complex) + alpha**2 * A.astype(complex)
    lu = spla.splu(sp.csc_matrix(lhs))
    u = initial.u.astype(complex).copy()
    v = initial.v.astype(complex).copy()
    steps = int(round(T / dt))
    times = [initial.t]
    state = WaveState(u=u.copy(), v=v.copy(), m=m, b=b, t=initial.t)
    energies = [discrete_energy(state)]
    states = [state] if store_states else None
    e_prev = energies[0]
    one_plus_aw = 1.0 + alpha * W
    for k in range(1, steps + 1):
        r1 = u + alpha * v
        r2 = v - alpha * (A @ u + W * v)
        u_new = lu.solve(alpha * r2 + one_plus_aw * r1)
        v_new = (u_new - r1) / alpha
        u, v = u_new, v_new
        if k % stride == 0 or k == steps:
            t = initial.t + k * dt
            state = WaveState(u=u.copy(), v=v.copy(), m=m, b=b, t=t)
            e = discrete_energy(state)
            if e > e_prev * (1.0 + scheme_tol):
                raise InstabilityError(
                    f"energy rose from {e_prev:.6e} to {e:.6e} at t = {t:.4g}; "
                    "the damping is nonnegative so this indicates a stepping fault"
                )
            e_prev = e
            times.append(t)
            energies.append(e)
            if store_states:
                states.append(state)
    trace = EnergyTrace(np.asarray(times), np.asarray(energies), m)
    return (trace, states) if store_states else trace


def fit_decay(trace: EnergyTrace, *, t_min: float | None = None,
              t_max: float | None = None, r2_floor: float = 0.9,
              curvature_tol: float = 0.25) -> RateFit:
    """Power-law rate from log E against log t.

    The window drops the first tenth of the horizon (transient) and must span
    at least a decade. Returns alpha-hat = -slope/2. The fit is flagged
    inconclusive, with no exponent asserted, when r^2 drops below the floor
    or when the two window halves disagree on the slope by more than
    curvature_tol relative (an exponential trace bends in log-log but can
    still score r^2 around 0.93 over a single decade, so the bend test is
    what actually catches the model mismatch).
    """
    t, E = trace.times, trace.energies
    lo = 0.1 * t[-1] if t_min is None else max(t_min, 0.1 * t[-1])
    hi = t[-1] if t_max is None else t_max
    sel = (t >= lo) & (t <= hi) & (t > 0) & (E > 0)
    if sel.sum() < 8:
        raise ValueError("fit window too small")
    tw, Ew = t[sel], E[sel]
    if tw[-1] / tw[0] < 9.5:  # a decade up to sampling granularity
        raise ValueError(
            f"fit window spans {tw[-1] / tw[0]:.2f}x in time; need a decade"
        )
    s, y = np.log(tw), np.log(Ew)
    fit = linear_fit(s, y)
    mid = 0.5 * (s[0] + s[-1])
    first, second = s <= mid, s > mid
    bend = 0.0
    if first.sum() >= 3 and second.sum() >= 3 and fit.slope != 0:
        s1 = linear_fit(s[first], y[first]).slope
        s2 = linear_fit(s[second], y[second]).slope
        bend = abs(s2 - s1) / abs(fit.slope)
    reason = ""
    if fit.r2 < r2_floor:
        reason = "r2"
    elif bend > curvature_tol:
        reason = "curvature"
    inconclusive = bool(reason)
    return RateFit(
        exponent=None if inconclusive else -0.5 * fit.slope,
        window=(float(tw[0]), float(tw[-1])),
        r2=fit.r2,
        inconclusive=inconclusive,
        fit=fit,
        reason=reason,
    )


def fit_exponential_rate(trace: EnergyTrace, *, t_min: float = 0.0,
                         t_max: float | None = None) -> FitResult:
    """Linear fit of log E against t; slope is minus the exponential rate."""
    t, E = trace.times, trace.energies
    hi = t[-1] if t_max is None else t_max
    sel = (t >= t_min) & (t <= hi) & (E > 0)
    return linear_fit(t[sel], np.log(E[sel]))
