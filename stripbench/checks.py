"""Output checks computed apart from the stripdamp code paths they check.

Each function recomputes a quantity from a layer's output with its own
arithmetic (closed forms, a DOP853 integration, banded LAPACK solves, an
energy summed from stored states) or tests a property the method must have.
None of them calls the stripdamp function whose output it judges.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lapack

# limits, each well clear of the defect the current program shows (see README)
MATCHING_RTOL = 1e-6          # today 2e-9 to 1e-8
GAP_EXPONENT_TOL = 0.05
CROSSVAL_MU_TOL = 1e-8
BETA0_PROFILE_RTOL = 1e-7     # today 3e-10 to 4e-9 of max|v|
DAMPING_IDENTITY_RTOL = 1e-4  # today at most 1.1e-6
FD_RESIDUAL_RTOL = 0.03       # today 0.5-0.8% at beta = 2, m = 512
SIGMA_MIN_RTOL = 1e-9         # today 1e-13 to 1e-12
DECAY_RATE_RTOL = 0.05        # today 0.36%
DISSIPATION_RTOL = 1e-9       # today below 1e-10 of the initial energy
DISTANCE_RTOL = 1e-6          # today 4e-12
UNIFORM_GROWTH_MAX = 0.05


# ---------------------------------------------------------------------------
# matching of the half-line eigenvalues

def boundary_value_beta0(eta: complex) -> complex:
    """F(0) of -F'' + (i - eta) F = 0, F'(0) = 1, decaying: -1/sqrt(i - eta)."""
    return -1.0 / np.sqrt(1j - eta)


def boundary_value_shooting(eta: complex, beta: float, L: float) -> complex:
    """F(0)/F'(0) of the decaying solution by backward DOP853 from the cut L."""
    theta = np.sqrt(1j * L**beta - eta)

    def rhs(x, y):
        f = y[0] + 1j * y[1]
        fpp = (1j * x**beta - eta) * f
        return [y[2], y[3], fpp.real, fpp.imag]

    sol = solve_ivp(rhs, (L, 0.0), [1.0, 0.0, -theta.real, -theta.imag],
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"backward integration failed: {sol.message}")
    f = sol.y[0, -1] + 1j * sol.y[1, -1]
    fp = sol.y[2, -1] + 1j * sol.y[3, -1]
    return f / fp


def matching_defect(lam: complex, h: float, beta: float, a: float, L: float) -> float:
    """Relative defect of v'(a) F(0) = v(a) / h^(2/(beta+2)) at a Dirichlet root.

    v is the closed-form strip solution vanishing at 0; F(0) is computed at
    eta = lam^2 / h^(2 beta/(beta+2)) by the beta = 0 closed form or by
    shooting over (0, L).
    """
    eta = lam * lam / h ** (2.0 * beta / (beta + 2.0))
    f0 = boundary_value_beta0(eta) if beta == 0 else boundary_value_shooting(eta, beta, L)
    ref = -np.exp(-2j * lam * a / h)
    v_a = 1.0 + ref
    dv_a = (1j * lam / h) * (1.0 - ref)
    rhs = v_a / h ** (2.0 / (beta + 2.0))
    return float(abs(dv_a * f0 - rhs) / abs(rhs))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def gap_exponent(hs, lams, l: float, a: float) -> float:
    """h-exponent of |lambda_h - pi l h / a| along a sweep."""
    hs = np.asarray(hs, float)
    gaps = np.abs(np.asarray(lams) - math.pi * l * hs / a)
    return loglog_slope(hs, gaps)


# ---------------------------------------------------------------------------
# quasimode profiles

def edge_power(x, beta: float, a: float):
    """(|x| - a)_+^beta, the potential the half-line factor solves with."""
    ax = np.abs(np.asarray(x, float))
    return np.where(ax > a, np.clip(ax - a, 0.0, None) ** beta, 0.0)


def damping(x, beta: float, a: float, sigma: float):
    """W with the constant outer join: (|x| - a)_+^beta, held at sigma^beta."""
    return np.minimum(edge_power(x, beta, a), sigma**beta)


def beta0_profile_defect(x, v, lam: complex, eta: complex, h: float, a: float) -> float:
    """max |v - v(a) exp(-sqrt(i - eta)(x - a)/h)| beyond a, relative to max|v|.

    At beta = 0 the half-line factor is a pure exponential, so the glued
    profile beyond the strip edge is known in closed form.
    """
    v_a = 1.0 - np.exp(-2j * lam * a / h)
    beyond = x > a
    model = v_a * np.exp(-np.sqrt(1j - eta) * (x[beyond] - a) / h)
    return float(np.max(np.abs(v[beyond] - model)) / np.max(np.abs(v)))


def damping_identity_defect(x, w, v, lam: complex, beta: float, a: float) -> float:
    """Relative defect of int (x-a)_+^beta |v|^2 = Im(lambda^2) int |v|^2."""
    mass = np.abs(v) ** 2
    lhs = float(np.sum(w * edge_power(x, beta, a) * mass))
    rhs = float((lam * lam).imag * np.sum(w * mass))
    return abs(lhs - rhs) / abs(rhs)


def fd_residual(u, b: float, q: complex, m: int, beta: float, a: float,
                sigma: float) -> float:
    """Relative residual of -u'' + i q W u + (4 pi^2 m^2/b^2 - q^2) u.

    u is sampled on the uniform grid linspace(0, b, len(u)); u'' is the
    fourth-order central difference, and the three points nearest each end
    are left out of both norms.
    """
    n = u.size - 1
    dx = b / n
    x = np.linspace(0.0, b, n + 1)
    upp = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * dx * dx)
    W = damping(x, beta, a, sigma)
    coef = 4.0 * math.pi**2 * m**2 / b**2 - q * q
    R = -upp + 1j * q * W[2:-2] * u[2:-2] + coef * u[2:-2]
    return float(math.sqrt(np.sum(np.abs(R[1:-1]) ** 2) / np.sum(np.abs(u[3:-3]) ** 2)))


# ---------------------------------------------------------------------------
# resolvent

def sigma_min_inverse_iteration(q: float, m: int, n: int, b: float, W,
                                tol: float = 1e-15, maxiter: int = 200):
    """Smallest singular value of the reduced operator by inverse iteration.

    P = -d^2/dx^2 + i q W + (4 pi^2 m^2/b^2 - q^2) on n interior points of
    (-b, b), Dirichlet ends; iterates z <- P^-1 P^-H z with one tridiagonal
    LAPACK factorization (zgttrf/zgttrs). Returns (sigma_min, iterations).
    """
    dx = 2.0 * b / (n + 1)
    d = (2.0 / dx**2 + 1j * q * np.asarray(W) + (4.0 * math.pi**2 * m**2 / b**2 - q * q)).astype(complex)
    off = np.full(n - 1, -1.0 / dx**2, dtype=complex)
    dl, dd, du, du2, ipiv, info = lapack.zgttrf(off, d, off.copy())
    if info != 0:
        raise RuntimeError(f"zgttrf failed with info = {info}")
    # a random start has components in both parity classes; the minimal
    # singular vector may be odd or even
    rng = np.random.default_rng(7)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z /= np.linalg.norm(z)
    est = 0.0
    for it in range(1, maxiter + 1):
        y, info = lapack.zgttrs(dl, dd, du, du2, ipiv, z, trans="C")
        z, info2 = lapack.zgttrs(dl, dd, du, du2, ipiv, y, trans="N")
        if info or info2:
            raise RuntimeError("zgttrs failed")
        norm = float(np.linalg.norm(z))
        z /= norm
        if abs(norm - est) <= tol * norm:
            est = norm
            break
        est = norm
    return 1.0 / math.sqrt(est), it


def undamped_resolvent_norm(q: float, m: int, n: int, b: float) -> float:
    """1 / distance from q^2 - 4 pi^2 m^2/b^2 to the discrete Dirichlet spectrum."""
    dx = 2.0 * b / (n + 1)
    k = np.arange(1, n + 1)
    eigs = (4.0 / dx**2 * np.sin(k * math.pi * dx / (4.0 * b)) ** 2
            + 4.0 * math.pi**2 * m**2 / b**2 - q * q)
    return float(1.0 / np.min(np.abs(eigs)))


# ---------------------------------------------------------------------------
# time domain

def wave_energy(u, v, m: int, b: float) -> float:
    """(<A u, u> + |v|^2) dx / 2 for A = -D^2 + 4 pi^2 m^2/b^2, Dirichlet ends."""
    n = u.size
    dx = 2.0 * b / (n + 1)
    upad = np.concatenate([[0.0], u, [0.0]])
    Au = (2.0 * u - upad[:-2] - upad[2:]) / dx**2 + 4.0 * math.pi**2 * m**2 / b**2 * u
    return 0.5 * dx * float(np.vdot(u, Au).real + np.vdot(v, v).real)


def step_dissipation(v_prev, v_next, W, dt: float, b: float) -> float:
    """dt * sum W |v_{k+1/2}|^2 dx over one midpoint step."""
    dx = 2.0 * b / (v_prev.size + 1)
    vh = 0.5 * (v_prev + v_next)
    return dt * dx * float(np.sum(W * np.abs(vh) ** 2))


def dissipation_defect(energies, dissipations) -> float:
    """max_k |E[k+1] - E[k] + D[k]| / E[0]."""
    E = np.asarray(energies, float)
    D = np.asarray(dissipations, float)
    return float(np.max(np.abs(np.diff(E) + D)) / E[0])


def exponential_rate(times, energies) -> float:
    """Minus the slope of log E against t (least squares)."""
    return float(-np.polyfit(np.asarray(times, float), np.log(np.asarray(energies, float)), 1)[0])
