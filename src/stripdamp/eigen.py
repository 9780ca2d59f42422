"""Eigenvalues of the half-line absorbing-potential problem.

On (0, a) the problem is solved in closed form by two counter-propagating
exponentials whose reflection coefficient enforces the boundary condition at
0. On (a, infinity) a rescaling by h^(2/(beta+2)) turns the problem into the
half-line boundary-value problem of :mod:`stripdamp.cap` with spectral
parameter eta = lambda^2 / h^(2 beta/(beta+2)). Matching value and slope at
x = a is one complex scalar equation; after peeling off the leading behavior

    lambda = pi l h / a + (A1 + mu) h^((beta+4)/(beta+2)),
    A1 = pi l F0 / a^2,   F0 the boundary value at eta = 0,

the matching equation becomes G(mu, h) = 0 with G well defined down to h = 0,
where its unique root is mu = 0. A Newton continuation in h tracks that root;
the derivative of G is assembled exactly from the extrapolated boundary value
(cap.boundary_value), including its eta-derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cap
from .errors import AdmissibilityError, RootFindError
from .model import BC_DIRICHLET

__all__ = [
    "EigenContext",
    "EigenSolution",
    "build_context",
    "reflection_coeff",
    "left_solution",
    "compatibility_value",
    "find_eigenvalue",
    "eigen_sweep",
    "admissible_h_max",
    "raw_compatibility_root",
]

# stopping rule of the raw-determinant secant oracle
_SECANT_TOL = 1e-13     # relative step in lambda
_SECANT_MAX_ITER = 60


def reflection_coeff(lam: complex, h: float, a: float) -> complex:
    """Coefficient -exp(-2 i lam a / h) of the reflected exponential, fixing
    the Dirichlet condition at 0. |Ref| = exp(2 a Im(lam) / h).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    return -np.exp(-2j * lam * a / h)


def left_solution(x, lam: complex, h: float, a: float):
    """Oscillatory solution on (0, a) and its derivative.

    v(x) = e^{i lam (x-a)/h} + Ref e^{-i lam (x-a)/h}; satisfies the
    absorbing-potential equation there identically (the potential vanishes),
    and v(0) = 0 by the choice of Ref.
    """
    ref = reflection_coeff(lam, h, a)
    x = np.asarray(x, dtype=float)
    e_plus = np.exp(1j * lam * (x - a) / h)
    e_minus = np.exp(-1j * lam * (x - a) / h)
    v = e_plus + ref * e_minus
    dv = (1j * lam / h) * (e_plus - ref * e_minus)
    return v, dv


@dataclass(frozen=True)
class EigenContext:
    """Per-(beta, a, l) data reused across h: F0, A1 and the cut L."""

    beta: float
    a: float
    l: float
    F0: complex           # boundary value at eta = 0
    A1: complex           # pi l F0 / a^2
    cap_L: float          # default_truncation(beta), the cut of boundary_value

    @property
    def K_bound(self) -> float:
        """Bound on |C_h| valid for every root with |mu| < 1."""
        return np.pi * abs(self.l) * abs(self.F0) / self.a**2 + 1.0

    def exponents(self):
        """(eps_pow, lam_pow): h-powers 2/(beta+2) and (beta+4)/(beta+2)."""
        return 2.0 / (self.beta + 2.0), (self.beta + 4.0) / (self.beta + 2.0)


def build_context(
    beta: float,
    a: float,
    l: float,
    bc: str = BC_DIRICHLET,
) -> EigenContext:
    """Matching context for mode l; bc must be BC_DIRICHLET, the only condition solved."""
    if bc != BC_DIRICHLET:
        raise ValueError(f"only the Dirichlet condition is supported (got {bc!r})")
    if abs(l - round(l)) > 1e-12:
        raise ValueError(f"Dirichlet requires integer l (got {l})")
    f0, _ = cap.boundary_value(0.0, beta)
    A1 = np.pi * l * f0 / a**2
    return EigenContext(
        beta=beta, a=a, l=l, F0=complex(f0), A1=complex(A1),
        cap_L=cap.default_truncation(beta),
    )


def _eta_of(lam: complex, h: float, beta: float) -> complex:
    return lam * lam / h ** (2.0 * beta / (beta + 2.0))


def compatibility_value(mu: complex, h: float, ctx: EigenContext):
    """G(mu, h) whose zeros are matched eigenvalues, and dG/dmu.

    With eps = h^(2/(beta+2)), C = A1 + mu and E = exp(-2 i a C eps),
    G = i (pi l / a + C eps) (1 + E) F(0, eta) - (1 - E)/eps, the remainder
    split kept exact through expm1 so nothing is truncated. At h = 0 the
    spectral parameter vanishes and G is linear in mu with slope -2 i a.

    Returns (G, dG, lam, eta, f0), the last three as diagnostics.
    """
    beta, a, l = ctx.beta, ctx.a, ctx.l
    eps_pow, lam_pow = ctx.exponents()
    C = ctx.A1 + mu
    if h == 0.0:
        G = (2j * np.pi * l / a) * ctx.F0 - 2j * a * C
        return G, -2j * a, 0.0, 0.0, ctx.F0
    eps = h**eps_pow
    lam = np.pi * l * h / a + C * h**lam_pow
    eta = _eta_of(lam, h, beta)
    ground = cap.neumann_ground(beta)
    if not cap.check_eta_admissible(eta, ground):
        raise AdmissibilityError(
            f"induced |eta| = {abs(eta):.4f} exceeds {ground.admissible_radius:.4f}; "
            "reduce h"
        )
    f0, df0 = cap.boundary_value(eta, beta)
    z = 2j * a * C * eps
    E = np.exp(-z)
    one_minus_E = -np.expm1(-z)        # 1 - E without cancellation
    pref = 1j * (np.pi * l / a + C * eps)
    G = pref * (1.0 + E) * f0 - one_minus_E / eps
    dE = -2j * a * eps * E
    deta = 2.0 * lam * h**lam_pow / h ** (2.0 * beta / (beta + 2.0))
    dG = (
        1j * eps * (1.0 + E) * f0
        + pref * (dE * f0 + (1.0 + E) * df0 * deta)
        + dE / eps
    )
    return G, dG, lam, eta, f0


@dataclass(frozen=True)
class EigenSolution:
    """One matched eigenvalue of the half-line problem; F0 and A1 are its context's."""

    beta: float
    a: float
    l: float
    h: float
    mu: complex
    C_h: complex          # A1 + mu
    lambda_h: complex     # pi l h / a + C_h h^((beta+4)/(beta+2))
    eta: complex          # lambda^2 / h^(2 beta / (beta+2))
    newton_residual: float
    glue_residual: float  # relative defect of the slope matching
    iterations: int       # evaluations of G
    newton_stop: str      # "step", "floor" or "max_iter": why Newton stopped

    @property
    def scaling_gap(self) -> float:
        """|lambda_h - pi l h / a|, the quantity whose h-scaling is certified."""
        return abs(self.lambda_h - np.pi * self.l * self.h / self.a)


def find_eigenvalue(
    l: float,
    h: float,
    ctx: EigenContext,
    *,
    mu0: complex = 0.0,
    max_iter: int = 40,
) -> EigenSolution:
    """Newton iteration on mu -> G(mu, h) seeded at mu0 (continuation-friendly).

    Newton stops when a step falls below 1e-13 relative ("step") or at the
    first evaluation whose |G| does not fall below the best so far
    ("floor": the rounding noise of the boundary value, about 1e-13 to
    5e-12, is reached). It returns the best evaluated iterate. The returned
    solution has |mu| < 1 and both matching equations verified
    independently; a residual |G| above 1e-10 raises RootFindError with a
    bisection-in-h hint.
    """
    if l != ctx.l:
        raise ValueError(f"context was built for l = {ctx.l}, got {l}")
    if not 0 < h < 1:
        raise ValueError(f"h must lie in (0, 1) (got {h})")
    mu = complex(mu0)
    best = None
    stop = "max_iter"
    for it in range(1, max_iter + 1):
        G, dG, lam, eta, f0 = compatibility_value(mu, h, ctx)
        if best is not None and not abs(G) < abs(best[1]):
            stop = "floor"
            break
        best = (mu, G, lam, eta, f0)
        step = G / dG
        if abs(step) < 1e-13 * max(1.0, abs(mu - step)):
            stop = "step"
            break
        mu = mu - step
    mu, G, lam, eta, f0 = best
    residual = abs(G)
    if residual > 1e-10:
        raise RootFindError(
            f"Newton stalled at |G| = {residual:.2e} (tol 1.0e-10) for h = {h}; "
            "try seeding from a nearby h (bisection in h)"
        )
    if abs(mu) >= 1.0:
        raise RootFindError(
            f"root left the unit disk (|mu| = {abs(mu):.3f}) at h = {h}; "
            "reduce h or track the branch by bisection in h"
        )
    eps_pow, _ = ctx.exponents()
    eps = h**eps_pow
    ref = reflection_coeff(lam, h, ctx.a)
    v_la = 1.0 + ref
    dv_la = (1j * lam / h) * (1.0 - ref)
    B = v_la / f0
    # value matching is exact by the choice of B; check the slope matching
    glue = abs(dv_la - B / eps) / max(abs(v_la), abs(dv_la))
    C_h = ctx.A1 + mu
    return EigenSolution(
        beta=ctx.beta, a=ctx.a, l=l, h=h, mu=mu, C_h=C_h, lambda_h=lam, eta=eta,
        newton_residual=residual, glue_residual=float(glue), iterations=it,
        newton_stop=stop,
    )


def eigen_sweep(ctx: EigenContext, h_values) -> list[EigenSolution]:
    """Track the root across decreasing h, seeding each solve with the last mu."""
    hs = sorted(h_values, reverse=True)
    out = []
    mu = 0.0 + 0.0j
    for h in hs:
        sol = find_eigenvalue(ctx.l, h, ctx, mu0=mu)
        mu = sol.mu
        out.append(sol)
    return out


def admissible_h_max(ctx: EigenContext) -> float:
    """Largest h keeping eta admissible for every |mu| <= 1.

    Uses the worst-case |lambda| over the unit mu-disk; bisection on the
    resulting monotone bound.
    """
    beta, a, l = ctx.beta, ctx.a, ctx.l
    _, lam_pow = ctx.exponents()
    target = cap.neumann_ground(beta).admissible_radius

    def worst_eta(h):
        lam_max = np.pi * abs(l) * h / a + (abs(ctx.A1) + 1.0) * h**lam_pow
        return lam_max**2 / h ** (2.0 * beta / (beta + 2.0))

    lo, hi = 1e-8, 0.999
    if worst_eta(hi) <= target:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if worst_eta(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def raw_compatibility_root(l: float, h: float, ctx: EigenContext):
    """Secant root of the undecomposed matching determinant, in lambda.

    D(lambda) = v'(a) F(0, eta(lambda)) - v(a) h^(-2/(beta+2)) with v the
    closed-form left solution. Same zero as the mu parametrization but
    evaluated without the remainder split, so it cross-validates the Newton
    path. Returns (lambda_root, mu_equivalent, iterations).
    """
    beta, a = ctx.beta, ctx.a
    eps_pow, lam_pow = ctx.exponents()
    eps = h**eps_pow

    def D(lam):
        eta = _eta_of(lam, h, beta)
        if not cap.check_eta_admissible(eta, cap.neumann_ground(beta)):
            raise AdmissibilityError(
                f"secant wandered to |eta| = {abs(eta):.3f}; shrink h"
            )
        f0, _ = cap.boundary_value(eta, beta)
        ref = reflection_coeff(lam, h, a)
        v_la = 1.0 + ref
        dv_la = (1j * lam / h) * (1.0 - ref)
        return dv_la * f0 - v_la / eps

    lam_first = np.pi * l * h / a + ctx.A1 * h**lam_pow
    lam0 = lam_first * (1.0 - 1e-3)
    lam1 = lam_first * (1.0 + 1e-3)
    d0, d1 = D(lam0), D(lam1)
    lam_scale = abs(lam_first)
    for it in range(1, _SECANT_MAX_ITER + 1):
        denom = d1 - d0
        if denom == 0:
            raise RootFindError("secant iteration degenerated (flat determinant)")
        lam2 = lam1 - d1 * (lam1 - lam0) / denom
        lam0, d0 = lam1, d1
        lam1 = lam2
        d1 = D(lam1)
        if abs(lam1 - lam0) < _SECANT_TOL * lam_scale:
            break
    else:
        raise RootFindError(f"secant did not converge in {_SECANT_MAX_ITER} iterations")
    mu_equiv = (lam1 - np.pi * l * h / a) / h**lam_pow - ctx.A1
    return lam1, mu_equiv, it
