"""Half-line absorbing-potential boundary-value problem.

Solves, for complex spectral parameter eta,

    -F''(x) + i x^beta F(x) - eta F(x) = 0  on (0, L),   F'(0) = 1,

with an absorbing Robin condition F'(L) + theta(L) F(L) = 0 at the cut,
theta(L) the principal square root of (i L^beta - eta). The Robin impedance
matches the decaying branch to leading order, so modest L already reproduces
the unique square-integrable half-line solution. The boundary value F(0) is
the quantity every downstream computation consumes. Each solve is one
LAPACK zgtsv pass over the second-order finite-volume matrix (elimination
and back substitution, with no stored factors); the potential on its
diagonal is the average of x^beta over each node's dual cell, and the eta-derivative of F(0) follows from F by the
discrete adjoint identity. The eigenvalue matching reads F(0) from
boundary_value, a Richardson extrapolation of two coarse solves.

boundary_value_by_shooting, an independent backward DOP853 integration of
the same problem, checks F(0); it loads scipy.integrate when first called,
so importing the module loads only NumPy and scipy.linalg.

The module also provides the ground level of the self-adjoint comparison
operator -d^2/dx^2 + x^beta with a Neumann condition at 0, which bounds the
disk of spectral parameters for which the boundary value is controlled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, lapack

from .errors import AdmissibilityError, DomainError, RootFindError, TruncationError
from .quadrature import fd_derivative

_DEFAULT_DX = 2.5e-4
_MATCH_DX = 8e-3     # coarse spacing of boundary_value's extrapolated pair
_SHOOT_RTOL = 1e-10  # relative tolerance of the backward shooting oracle


def default_truncation(beta: float) -> float:
    """Truncation length: 40 for beta = 0, about ten potential-units otherwise."""
    if beta == 0:
        return 40.0
    return 10.0 * max(1.0, neumann_ground(beta).value) ** (1.0 / beta)


def default_points(L: float) -> int:
    """Grid intervals of the default half-line mesh on (0, L): spacing 2.5e-4, at least 1000."""
    return max(1000, int(round(L / _DEFAULT_DX)))


@dataclass(frozen=True)
class NeumannGround:
    """Lowest Neumann spectral point of -d^2/dx^2 + x^beta on the half line."""

    beta: float
    value: float
    L: float
    n: int

    @property
    def essential(self) -> bool:
        """beta = 0: the value is the infimum of the essential spectrum, not an eigenvalue."""
        return self.beta == 0

    @property
    def admissible_radius(self) -> float:
        return 0.5 * self.value


@functools.lru_cache(maxsize=None)
def neumann_ground(beta: float) -> NeumannGround:
    """Ground level via a symmetrized tridiagonal eigensolve.

    The Neumann condition at 0 is imposed by ghost elimination; the resulting
    nonsymmetric first row is symmetrized by the similarity with
    diag(1/sqrt(2), 1, ...), which preserves the spectrum. Dirichlet at L.
    """
    if beta < 0:
        raise DomainError(f"beta must be >= 0 (got {beta})")
    L, n = 12.0, 20000
    if beta == 0:
        # operator is -d^2/dx^2 + 1: spectrum [1, inf), no discrete eigenvalue
        return NeumannGround(beta=0.0, value=1.0, L=L, n=n)
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


def check_eta_admissible(eta: complex, ground: NeumannGround) -> bool:
    """True iff |eta| <= half the Neumann ground level (closed disk).

    A relative skin of 1e-6 absorbs the discretization error of the computed
    ground level, so exact-edge parameters like half the true level pass.
    """
    return abs(eta) <= ground.admissible_radius * (1.0 + 1e-6)


@dataclass(frozen=True)
class CapSolution:
    """Sampled decaying half-line solution with F'(0) = 1.

    The grid is the one solve_cap chose from beta: x[-1] is the cut L and
    x[1] its spacing.
    """

    x: np.ndarray               # uniform grid on [0, L]
    values: np.ndarray          # F on x
    boundary_value: complex     # F(0)
    tail_ratio: float           # |F(L)| / max|F|
    identity_residual: float    # relative defect of the integrated identity


def boundary_pair(eta, beta, L, n):
    """(F(0), dF(0)/d eta, F) on the uniform grid of n intervals on [0, L].

    Node i carries the average of x^beta over its dual cell
    [x_i - dx/2, x_i + dx/2] cut to [0, L], in closed form, which keeps the
    scheme second order for beta < 1 as well. The derivative is exact for the
    discrete problem: differentiating A(eta) F = b gives
    dF = A^{-1} r, r = -(dA/deta) F, and since D A is symmetric for
    D = diag(1/2, 1, ..., 1, 1/2) and F = -(2/dx) A^{-1} e_0,
    dF(0) = e_0^T A^{-1} r = -dx sum D_i F_i r_i needs no second solve,
    so F comes from one zgtsv pass. Raises RootFindError when the
    elimination meets an exactly zero pivot.
    """
    dx = L / n
    theta = np.sqrt(1j * L**beta - eta)
    inv = 1.0 / dx**2
    p = beta + 1.0
    # dual-cell edges 0, dx/2, 3 dx/2, ..., L - dx/2, L; the cell integrals
    # of x^beta are differences of edge^(beta + 1), all computed in place
    edges = np.linspace(-0.5 * dx, L + 0.5 * dx, n + 2)
    edges[0], edges[-1] = 0.0, L
    np.power(edges, p, out=edges)
    d = np.empty(n + 1, dtype=complex)
    np.subtract(edges[1:], edges[:-1], out=d.imag)
    del edges
    d.imag *= 1.0 / (p * dx)
    d.imag[[0, n]] *= 2.0          # the end cells are half as wide
    d.imag -= np.imag(eta)
    d.real = 2.0 * inv - np.real(eta)
    # absorbing Robin F'(L) + theta F(L) = 0 by ghost elimination
    d[n] += 2.0 * theta / dx
    dl = np.full(n, -inv, dtype=complex)
    dl[n - 1] = -2.0 * inv
    du = np.full(n, -inv, dtype=complex)
    # inhomogeneous Neumann F'(0) = 1 by ghost elimination
    du[0] = -2.0 * inv
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[0] = -2.0 / dx
    *_, F, info = lapack.zgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1,
                               overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise RootFindError(
            f"half-line matrix is singular at (eta, beta, L, n) = "
            f"({eta!r}, {beta!r}, {L!r}, {n}): zgtsv found a zero pivot U({info}, {info})"
        )
    # r = F except r_n = (1 + 1/(theta dx)) F_n, from the eta-dependence of theta
    dF0 = -dx * (np.dot(F, F) - 0.5 * (F[0] * F[0] + F[n] * F[n])) - 0.5 * F[n] * F[n] / theta
    return F[0], dF0, F


def boundary_value(eta, beta):
    """(F(0), dF(0)/d eta) extrapolated from two coarse grids on [0, L].

    L is default_truncation(beta). P(n) = boundary_pair on n = round(L / 8e-3)
    intervals and P(2n) on twice as many. The cell-averaged scheme's leading
    error is c dx^2, which (4 P(2n) - P(n)) / 3 removes (for beta < 1 a
    weaker term leaves about 1e-8), while the rounding noise of coarse
    factorizations (eps / dx^2) stays near 1e-12.
    """
    L = default_truncation(beta)
    n = int(round(L / _MATCH_DX))
    f_c, df_c, _ = boundary_pair(eta, beta, L, n)
    f_f, df_f, _ = boundary_pair(eta, beta, L, 2 * n)
    return (4.0 * f_f - f_c) / 3.0, (4.0 * df_f - df_c) / 3.0


def solve_cap(eta: complex, beta: float) -> CapSolution:
    """Unique decaying solution of the half-line problem with F'(0) = 1.

    Solved on [0, L] with L = default_truncation(beta), on the
    default_points(L) intervals of spacing 2.5e-4. Raises
    AdmissibilityError when |eta| leaves the controlled disk and
    TruncationError when the solution has not decayed at the cut.
    """
    if beta < 0:
        raise DomainError(f"beta must be >= 0 (got {beta})")
    ground = neumann_ground(beta)
    if not check_eta_admissible(eta, ground):
        raise AdmissibilityError(
            f"|eta| = {abs(eta):.4f} outside the admissible disk of radius "
            f"{ground.admissible_radius:.4f}"
        )
    L = default_truncation(beta)
    n = default_points(L)
    f0, _, F = boundary_pair(eta, beta, L, n)
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    amax = float(np.max(np.abs(F)))
    tail_ratio = float(abs(F[-1])) / amax
    if tail_ratio > 1e-5:
        raise TruncationError(
            f"|F(L)|/max|F| = {tail_ratio:.2e} exceeds 1.0e-05 at L = {L:g}; "
            "increase the truncation length (default_truncation)"
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
        x=x,
        values=F,
        boundary_value=complex(f0),
        tail_ratio=tail_ratio,
        identity_residual=identity_residual,
    )


def boundary_value_by_shooting(eta: complex, beta: float) -> complex:
    """Independent check of F(0): integrate backward from the cut.

    Start at the default truncation L on the decaying branch (F = 1,
    F' = -theta(L)); integrating toward 0 the wanted solution grows, so
    contamination by the other branch dies out. The returned value is
    F(0)/F'(0), which is what F(0) equals after renormalizing to F'(0) = 1.
    """
    from scipy.integrate import solve_ivp

    L = default_truncation(beta)
    theta = np.sqrt(1j * L**beta - eta)

    def rhs(x, y):
        f, fp = y[0] + 1j * y[1], y[2] + 1j * y[3]
        fpp = (1j * x**beta - eta) * f
        return [fp.real, fp.imag, fpp.real, fpp.imag]

    y0 = [1.0, 0.0, (-theta).real, (-theta).imag]
    # values grow monotonically from O(1) going backward, so a fixed absolute
    # floor well below that scale keeps the controller purely relative
    sol = solve_ivp(rhs, (L, 0.0), y0, method="DOP853", rtol=_SHOOT_RTOL, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"backward integration failed: {sol.message}")
    f = sol.y[0, -1] + 1j * sol.y[1, -1]
    fp = sol.y[2, -1] + 1j * sol.y[3, -1]
    return f / fp


def boundary_value_closed_form_beta0(eta: complex) -> complex:
    """For beta = 0 the solution is a pure exponential: F(0) = -1/sqrt(i - eta)."""
    return -1.0 / np.sqrt(1j - eta)
