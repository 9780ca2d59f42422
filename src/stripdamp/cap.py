"""Half-line absorbing-potential boundary-value problem.

Solves, for complex spectral parameter eta,

    -F''(x) + i x^beta F(x) - eta F(x) = 0  on (0, L),   F'(0) = 1,

with an absorbing Robin condition F'(L) + theta(L) F(L) = 0 at the cut,
theta(L) the principal square root of (i L^beta - eta). The Robin impedance
matches the decaying branch to leading order, so modest L already reproduces
the unique square-integrable half-line solution. The boundary value F(0) is
the quantity every downstream computation consumes.

The module also provides the ground level of the self-adjoint comparison
operator -d^2/dx^2 + x^beta with a Neumann condition at 0, which bounds the
disk of spectral parameters for which the boundary value is controlled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal, solve_banded

from .errors import AdmissibilityError, DomainError, TruncationError
from .quadrature import fd_derivative

_DEFAULT_DX = 2.5e-4


def default_truncation(beta: float) -> float:
    """Truncation length: 40 for beta = 0, about ten potential-units otherwise."""
    if beta == 0:
        return 40.0
    return 10.0 * max(1.0, neumann_ground(beta).value) ** (1.0 / beta)


@dataclass(frozen=True)
class NeumannGround:
    """Lowest Neumann spectral point of -d^2/dx^2 + x^beta on the half line."""

    beta: float
    value: float
    L: float
    n: int
    essential: bool = False   # beta = 0: infimum of essential spectrum, not an eigenvalue

    @property
    def admissible_radius(self) -> float:
        return 0.5 * self.value


@functools.lru_cache(maxsize=None)
def neumann_ground(beta: float, L: float = 12.0, n: int = 20000) -> NeumannGround:
    """Ground level via a symmetrized tridiagonal eigensolve.

    The Neumann condition at 0 is imposed by ghost elimination; the resulting
    nonsymmetric first row is symmetrized by the similarity with
    diag(1/sqrt(2), 1, ...), which preserves the spectrum. Dirichlet at L.
    """
    if beta < 0:
        raise DomainError(f"beta must be >= 0 (got {beta})")
    if beta == 0:
        # operator is -d^2/dx^2 + 1: spectrum [1, inf), no discrete eigenvalue
        return NeumannGround(beta=0.0, value=1.0, L=L, n=n, essential=True)
    dx = L / n
    x = np.linspace(0.0, L, n + 1)[:-1]
    diag = 2.0 / dx**2 + x**beta
    off = np.full(n - 1, -1.0 / dx**2)
    off[0] = -np.sqrt(2.0) / dx**2
    value = float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])
    if value <= 0:
        raise RuntimeError(
            f"discretized Neumann ground level came out non-positive ({value}); "
            "the ground level is provably positive, refine the grid"
        )
    return NeumannGround(beta=beta, value=value, L=L, n=n)


def check_eta_admissible(eta: complex, ground: NeumannGround,
                         rtol: float = 1e-6) -> bool:
    """True iff |eta| <= half the Neumann ground level (closed disk).

    A relative skin of rtol absorbs the discretization error of the computed
    ground level, so exact-edge parameters like half the true level pass.
    """
    return abs(eta) <= ground.admissible_radius * (1.0 + rtol)


@dataclass(frozen=True)
class CapSolution:
    """Sampled decaying half-line solution with F'(0) = 1."""

    eta: complex
    beta: float
    x: np.ndarray               # uniform grid on [0, L]
    values: np.ndarray          # F on x
    boundary_value: complex     # F(0)
    boundary_value_eta_deriv: complex  # d F(0) / d eta of the discrete map
    L: float
    n: int
    tail_ratio: float           # |F(L)| / max|F|
    identity_residual: float    # relative defect of the integrated identity

    @property
    def dx(self) -> float:
        return self.L / self.n


def _assemble(eta, beta, L, n):
    dx = L / n
    x = np.linspace(0.0, L, n + 1)
    w = 1j * x**beta - eta
    theta = np.sqrt(1j * L**beta - eta)
    inv = 1.0 / dx**2
    ab = np.zeros((3, n + 1), dtype=complex)
    rhs = np.zeros(n + 1, dtype=complex)
    ab[0, 2:] = -inv
    ab[1, 1:n] = 2.0 * inv + w[1:n]
    ab[2, : n - 1] = -inv
    # inhomogeneous Neumann F'(0) = 1 by ghost elimination
    ab[1, 0] = 2.0 * inv + w[0]
    ab[0, 1] = -2.0 * inv
    rhs[0] = -2.0 / dx
    # absorbing Robin F'(L) + theta F(L) = 0 by ghost elimination
    ab[2, n - 1] = -2.0 * inv
    ab[1, n] = 2.0 * inv + 2.0 * theta / dx + w[n]
    return ab, rhs, x, theta, dx


def boundary_pair(eta, beta, L, n):
    """(F(0), dF(0)/d eta) without building a full CapSolution.

    The derivative is exact for the discrete problem: differentiating
    A(eta) F = b gives dF = A^{-1} (-dA/deta) F, one extra solve on the
    already assembled system.
    """
    ab, rhs, _, theta, dx = _assemble(eta, beta, L, n)
    F = solve_banded((1, 1), ab, rhs, check_finite=False)
    r = F.copy()
    r[-1] = (1.0 + 1.0 / (theta * dx)) * F[-1]
    dF = solve_banded((1, 1), ab, r, check_finite=False)
    return F[0], dF[0], F


def solve_cap(
    eta: complex,
    beta: float,
    L: float | None = None,
    n: int | None = None,
    *,
    ground: NeumannGround | None = None,
    enforce_admissible: bool = True,
    tail_tol: float = 1e-5,
) -> CapSolution:
    """Unique decaying solution of the half-line problem with F'(0) = 1.

    Raises AdmissibilityError when |eta| leaves the controlled disk and
    TruncationError when the solution has not decayed at the cut (advice:
    increase L).
    """
    if beta < 0:
        raise DomainError(f"beta must be >= 0 (got {beta})")
    if enforce_admissible:
        if ground is None:
            ground = neumann_ground(beta)
        if not check_eta_admissible(eta, ground):
            raise AdmissibilityError(
                f"|eta| = {abs(eta):.4f} outside the admissible disk of radius "
                f"{ground.admissible_radius:.4f}"
            )
    if L is None:
        L = default_truncation(beta)
    if n is None:
        n = max(1000, int(round(L / _DEFAULT_DX)))
    if n < 1000:
        raise DomainError(f"n must be at least 1000 (got {n})")
    f0, df0, F = boundary_pair(eta, beta, L, n)
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    amax = float(np.max(np.abs(F)))
    tail_ratio = float(abs(F[-1])) / amax
    if tail_ratio > tail_tol:
        raise TruncationError(
            f"|F(L)|/max|F| = {tail_ratio:.2e} exceeds {tail_tol:.1e}; "
            "increase the truncation length L"
        )
    # integrated identity: conj(F(0)) + int |F'|^2 + i int x^beta |F|^2
    #                      - eta int |F|^2 = 0
    Fp = fd_derivative(F, dx, order=1)
    i1 = np.trapezoid(np.abs(Fp) ** 2, x)
    i2 = np.trapezoid(x**beta * np.abs(F) ** 2, x)
    i3 = np.trapezoid(np.abs(F) ** 2, x)
    defect = np.conj(f0) + i1 + 1j * i2 - eta * i3
    scale = abs(f0) + i1 + i2 + abs(eta) * i3
    identity_residual = float(abs(defect) / scale)
    return CapSolution(
        eta=complex(eta),
        beta=float(beta),
        x=x,
        values=F,
        boundary_value=complex(f0),
        boundary_value_eta_deriv=complex(df0),
        L=float(L),
        n=int(n),
        tail_ratio=tail_ratio,
        identity_residual=identity_residual,
    )


def boundary_value_by_shooting(
    eta: complex, beta: float, L: float | None = None, rtol: float = 1e-10
) -> complex:
    """Independent check of F(0): integrate backward from the cut.

    Start at L on the decaying branch (F = 1, F' = -theta(L)); integrating
    toward 0 the wanted solution grows, so contamination by the other branch
    dies out. The returned value is F(0)/F'(0), which is what F(0) equals
    after renormalizing to F'(0) = 1.
    """
    if L is None:
        L = default_truncation(beta)
    theta = np.sqrt(1j * L**beta - eta)

    def rhs(x, y):
        f, fp = y[0] + 1j * y[1], y[2] + 1j * y[3]
        fpp = (1j * x**beta - eta) * f
        return [fp.real, fp.imag, fpp.real, fpp.imag]

    y0 = [1.0, 0.0, (-theta).real, (-theta).imag]
    # values grow monotonically from O(1) going backward, so a fixed absolute
    # floor well below that scale keeps the controller purely relative
    sol = solve_ivp(rhs, (L, 0.0), y0, method="DOP853", rtol=rtol, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"backward integration failed: {sol.message}")
    f = sol.y[0, -1] + 1j * sol.y[1, -1]
    fp = sol.y[2, -1] + 1j * sol.y[3, -1]
    return f / fp


def boundary_value_closed_form_beta0(eta: complex) -> complex:
    """For beta = 0 the solution is a pure exponential: F(0) = -1/sqrt(i - eta)."""
    return -1.0 / np.sqrt(1j - eta)
