"""Time evolution of the reduced damped wave equation per transverse mode.

The displacement of mode m obeys

    u_tt - u_xx + (4 pi^2 m^2 / b^2) u + W(x) u_t = 0   on (-b, b),

with Dirichlet ends. The stepper is the implicit midpoint rule on the
first-order system in (u, v = u_t): unconditionally stable, and for the
quadratic energy it satisfies a discrete dissipation identity

    E[k+1] - E[k] = -dt * integral W |v_{k+1/2}|^2

exactly, so energy is conserved to rounding when W = 0 and never increases
when W >= 0.

The step is taken in eliminated form. With alpha = dt/2, the stiffness A
and p = 2 alpha v, the midpoint rule is

    S y = 2 (1 + alpha W) u + p,   S = diag(1 + alpha W) + alpha^2 A,
    u' = y - u,                    p' = 2 (u' - u) - p,

where y = u' + u. A cancels from the right-hand side, so a step needs no
stiffness product. S is real, symmetric and tridiagonal, and positive
definite while 1 + alpha W stays positive: LAPACK `dpttrf` factors it once
as L D L^T, and each step is one `dpttrs` solve with the real and imaginary
parts of the complex state as its two right-hand sides.

The damping must be even: its samples on the mirror-symmetric strip grid
must equal their reversal exactly, and evolve refuses one that does not.
Then S commutes with the reversal J of the grid, x -> -x, and the step is
taken in the reflection basis: the even part (u + Ju)/2 lives on the nodes
x >= 0 and the odd part (u - Ju)/2 on the nodes x > 0, each with its own
block of S. A block differs from S restricted to its nodes only in the row
next to x = 0. For even n the mirror node of that row is a node of the
block with the same (even) or opposite (odd) value, so +/- the
off-diagonal moves onto the diagonal. For odd n the odd part vanishes at
the centre node, so the odd block is S unchanged; the even block carries
the centre, whose row sees its neighbour twice, and the similarity
diag(1/sqrt(2), 1, ...) of `cap.neumann_ground` makes it symmetric. A part
whose u and v are exactly zero stays zero under the linear step and is
left out; the kept blocks are stacked into one factor with a zero
coupling entry. So a state of one parity, such as every quasimode, steps
on half the grid. Energies are taken on the rebuilt full state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import InstabilityError, PreconditionError, ResolutionError
from .fits import FitResult, linear_fit
from .model import StripGrid, transverse_shift

# relative energy rise per sample that evolve reports as an instability;
# the scheme is dissipative for W >= 0, so a real rise is rounding-sized
ENERGY_RISE_RTOL = 1e-9

__all__ = [
    "WaveState",
    "EnergyTrace",
    "RateFit",
    "quasimode_state",
    "discrete_energy",
    "evolve",
    "fit_decay",
    "fit_exponential_rate",
]


@dataclass(frozen=True)
class WaveState:
    """Displacement and velocity samples of mode m on the interior grid of (-b, b)."""

    u: np.ndarray
    v: np.ndarray
    m: int
    b: float

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def grid(self) -> StripGrid:
        return StripGrid(self.b, self.n)

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


@dataclass(frozen=True)
class EnergyTrace:
    """Energies of one run at its sample times; an evolve run starts at t = 0."""

    times: np.ndarray
    energies: np.ndarray


@dataclass(frozen=True)
class RateFit:
    exponent: float | None   # fitted alpha in E ~ t^(-2 alpha); None if inconclusive
    window: tuple
    r2: float
    inconclusive: bool
    reason: str = ""          # 'r2' or 'curvature' when inconclusive


def discrete_energy(state: WaveState) -> float:
    """E = (<A u, u> + |v|^2) * dx / 2 with the discrete stiffness A.

    A is -d^2/dx^2 + 4 pi^2 m^2 / b^2 with Dirichlet ends; <A u, u> is
    summed by parts as the squared differences plus the two end terms.
    """
    u, v, dx = state.u, state.v, state.grid.dx
    du = np.diff(u)
    grad = (np.vdot(du, du).real + abs(u[0]) ** 2 + abs(u[-1]) ** 2) / dx**2
    quad = grad + transverse_shift(state.m, state.b) * np.vdot(u, u).real + np.vdot(v, v).real
    return 0.5 * dx * float(quad)


def quasimode_state(qm, n: int) -> WaveState:
    """Initial data (u, i q u) resampling a stored quasimode on n points.

    evaluate is exactly odd on the mirror-symmetric strip grid, so u is exactly
    odd (0 at the centre node for odd n) and steps on the odd block alone.
    """
    u = qm.evaluate(StripGrid(qm.b, n).x)
    return WaveState(u=u, v=1j * qm.q * u, m=qm.m, b=qm.b)


def _reflection_parts(z: np.ndarray, half: int, centre: int):
    """(even, odd): (z + Jz)/2 on the nodes x >= 0 and (z - Jz)/2 on x > 0.

    J reverses the grid. For odd n the even part starts at the centre node,
    scaled by 1/sqrt(2) to the coordinates of the symmetrised even block.
    """
    jz = z[::-1]
    even = 0.5 * (z[half:] + jz[half:])
    odd = 0.5 * (z[half + centre:] - jz[half + centre:])
    even[:centre] *= math.sqrt(0.5)
    return even, odd


def _from_reflection_parts(even: np.ndarray, odd: np.ndarray, half: int, centre: int):
    """The grid function whose reflection parts are even and odd."""
    z = np.empty(2 * half + centre, dtype=complex)
    z[half + centre:] = even[centre:] + odd
    z[:half] = (even[centre:] - odd)[::-1]
    z[half:half + centre] = math.sqrt(2.0) * even[:centre]
    return z


def evolve(
    initial: WaveState,
    profile,
    dt: float,
    T: float,
    *,
    stride: int = 1,
    store_states: bool = False,
):
    """Implicit midpoint evolution from t = 0; returns an EnergyTrace sampled
    at t = k dt (and states if asked).

    dt must resolve the fastest retained oscillation; an energy increase
    beyond ENERGY_RISE_RTOL (relative, per sample) raises InstabilityError
    since the scheme is dissipative for W >= 0; with negative W the error
    names the minimum of W as the cause. So does a step matrix that is not
    positive definite, which happens only where 1 + W dt/2 <= 0. A step
    dt that is not positive, a negative horizon T, a stride below 1 or a
    damping that is not even raises PreconditionError before any
    factorization.
    """
    if not dt > 0:
        raise PreconditionError(f"dt must be positive (got {dt})")
    if not T >= 0:
        raise PreconditionError(f"T must be nonnegative (got {T})")
    if stride < 1:
        raise PreconditionError(f"stride must be at least 1 (got {stride})")
    n, b, m = initial.n, initial.b, initial.m
    grid = initial.grid
    half, centre = divmod(n, 2)     # x[half] = 0 when n is odd
    x = grid.x[half:]
    W = grid.damping(profile)
    if not np.array_equal(W, W[::-1]):
        worst = half + int(np.argmax(np.abs(W - W[::-1])[half:]))
        raise PreconditionError(
            f"the damping is not even: W(x) = {W[worst]:.6g} but W(-x) = "
            f"{W[-1 - worst]:.6g} at x = {grid.x[worst]:.6g}; the stepper splits the "
            "strip at x = 0 and needs W(-x) = W(x)"
        )
    shift = transverse_shift(m, b)
    freq = math.sqrt(shift)
    if dt * freq > 1.5:
        raise ResolutionError(
            f"dt = {dt} does not resolve the transverse frequency {freq:.3g}"
        )
    alpha = 0.5 * dt
    one_plus_aw = 1.0 + alpha * W[half:]
    diag = one_plus_aw + alpha**2 * (2.0 / grid.dx**2 + shift)
    off = -alpha**2 / grid.dx**2
    u0, v0 = initial.u.astype(complex), initial.v.astype(complex)
    u_even, u_odd = _reflection_parts(u0, half, centre)
    v_even, v_odd = _reflection_parts(v0, half, centre)
    # the row next to x = 0 meets its mirror node: as itself in the even
    # block, as its negative (or as the zero centre node) in the odd one
    d_even, e_even = diag.copy(), np.full(half + centre - 1, off)
    d_even[:1 - centre] += off
    e_even[:centre] *= math.sqrt(2.0)
    d_odd, e_odd = diag[centre:].copy(), np.full(half - 1, off)
    d_odd[:1 - centre] -= off
    # a part that is zero stays zero under the linear step; the zero state
    # keeps its even block, so there is always one to factor, and below 4
    # nodes both are kept (LAPACK's wrapper refuses a one-row factor)
    keep_odd = bool(np.any(u_odd) or np.any(v_odd)) or half < 2
    keep_even = bool(np.any(u_even) or np.any(v_even)) or not keep_odd or half < 2
    blocks = [blk for keep, blk in (
        (keep_even, (d_even, e_even, one_plus_aw, x, u_even, v_even)),
        (keep_odd, (d_odd, e_odd, one_plus_aw[centre:], x[centre:], u_odd, v_odd)),
    ) if keep]
    bd, be, bw, bx, ub, vb = (np.concatenate(col) for col in zip(*blocks))
    if len(blocks) == 2:
        be = np.insert(be, e_even.size, 0.0)    # the blocks do not couple
    sd, se, info = lapack.dpttrf(bd, be)
    if info > 0:
        raise InstabilityError(
            f"the step matrix diag(1 + W dt/2) + (dt/2)^2 A is not positive definite "
            f"at (n, dt, m) = ({n}, {dt}, {m}): pivot {info} of its reflection blocks "
            f"(node x = {bx[info - 1]:.6g}) is not positive; "
            "1 + W dt/2 must stay positive, so the damping is too negative for dt"
        )
    n_even = d_even.size if keep_even else 0
    zero_even, zero_odd = np.zeros(half + centre), np.zeros(half)

    def full(z):
        """The grid function of the blocked vector z."""
        return _from_reflection_parts(z[:n_even] if keep_even else zero_even,
                                      z[n_even:] if keep_odd else zero_odd, half, centre)

    c = (2.0 * bw)[:, None]
    # columns are the real and imaginary parts, so dpttrs solves in place
    u = np.empty((bd.size, 2), order="F")
    p = np.empty_like(u)
    y = np.empty_like(u)
    u[:, 0], u[:, 1] = ub.real, ub.imag
    p[:, 0], p[:, 1] = vb.real, vb.imag
    p *= 2.0 * alpha
    steps = int(round(T / dt))
    times = [0.0]
    state = WaveState(u=u0, v=v0, m=m, b=b)
    energies = [discrete_energy(state)]
    states = [state] if store_states else None
    e_prev = energies[0]
    for k in range(1, steps + 1):
        np.multiply(c, u, out=y)
        y += p
        lapack.dpttrs(sd, se, y, overwrite_b=True)
        y -= u                      # y = u'
        np.subtract(y, u, out=u)    # u = u' - u
        u += u
        np.subtract(u, p, out=p)    # p = 2 (u' - u) - p
        u, y = y, u
        if k % stride == 0 or k == steps:
            t = k * dt
            state = WaveState(u=full(u[:, 0] + 1j * u[:, 1]),
                              v=full((p[:, 0] + 1j * p[:, 1]) / (2.0 * alpha)),
                              m=m, b=b)
            e = discrete_energy(state)
            if e > e_prev * (1.0 + ENERGY_RISE_RTOL):
                w_min = float(W.min())
                cause = ("the damping is nonnegative so this indicates a stepping fault"
                         if w_min >= 0.0 else
                         f"the damping is negative (min W = {w_min:.3g}) and feeds energy in")
                raise InstabilityError(
                    f"energy rose from {e_prev:.6e} to {e:.6e} at t = {t:.4g}; {cause}"
                )
            e_prev = e
            times.append(t)
            energies.append(e)
            if store_states:
                states.append(state)
    trace = EnergyTrace(np.asarray(times), np.asarray(energies))
    return (trace, states) if store_states else trace


def fit_decay(trace: EnergyTrace) -> RateFit:
    """Power-law rate from log E against log t.

    The window drops the first tenth of the horizon (transient) and must span
    at least a decade. Returns alpha-hat = -slope/2. The fit is flagged
    inconclusive, with no exponent asserted, when r^2 drops below 0.9 or
    when the two window halves disagree on the slope by more than 0.25
    relative (an exponential trace bends in log-log but can
    still score r^2 around 0.93 over a single decade, so the bend test is
    what actually catches the model mismatch).
    """
    t, E = trace.times, trace.energies
    if t.size == 0:
        raise PreconditionError("the trace is empty; nothing to fit")
    sel = (t >= 0.1 * t[-1]) & (t > 0) & (E > 0)
    if sel.sum() < 8:
        raise PreconditionError(f"fit window too small: {sel.sum()} usable samples, need 8")
    tw, Ew = t[sel], E[sel]
    if tw[-1] / tw[0] < 9.5:  # a decade up to sampling granularity
        raise PreconditionError(
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
    if fit.r2 < 0.9:
        reason = "r2"
    elif bend > 0.25:
        reason = "curvature"
    inconclusive = bool(reason)
    return RateFit(
        exponent=None if inconclusive else -0.5 * fit.slope,
        window=(float(tw[0]), float(tw[-1])),
        r2=fit.r2,
        inconclusive=inconclusive,
        reason=reason,
    )


def fit_exponential_rate(trace: EnergyTrace, *, t_min: float = 0.0) -> FitResult:
    """Linear fit of log E against t; slope is minus the exponential rate."""
    t, E = trace.times, trace.energies
    sel = (t >= t_min) & (E > 0)
    return linear_fit(t[sel], np.log(E[sel]))
