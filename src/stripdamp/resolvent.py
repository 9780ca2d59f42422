"""Resolvent norms of the reduced stationary operator on (-b, b).

For real driving frequency q and transverse index m the reduced operator is

    P(q, m) = -d^2/dx^2 + i q W(x) + (4 pi^2 m^2 / b^2 - q^2)

with Dirichlet ends. Its inverse norm is 1/sigma_min(P); the smallest
singular value is obtained by Lanczos iteration on (P* P)^{-1} through one
LAPACK factorization of the tridiagonal P (zgttrf), applied as two zgttrs
solves per product; P is kept as its three diagonals. The supremum of the
two-dimensional resolvent over transverse modes is realized near m = b q /
(2 pi), so a scan maximizes over a small window of integers there. It skips
a mode whose norm is bounded below the best one found: P = (K + s) + i q W
with K + s and q W Hermitian, so 1/norm is at least the distance from 0 to
the rectangle [lambda_1 + s, lambda_n + s] x [q min W, q max W] that holds
the numerical range of P.

The iteration needs only LAPACK and the tridiagonal eigensolver of
scipy.linalg, so no solve loads scipy.sparse.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from .errors import ResolutionError, RootFindError
from .fits import FitResult, loglog_fit
from .model import StripGrid, transverse_shift
from .quasimode import ansatz_params

__all__ = [
    "ReducedOperator",
    "ResolventSample",
    "ScanResult",
    "min_grid_size",
    "assemble_reduced_operator",
    "resolvent_norm",
    "scan_point",
    "scan_and_fit",
    "scan_peaks",
    "quasimode_lower_bound",
]


def effective_wavenumber(q: float, m: int, b: float) -> float:
    """Local oscillation rate of solutions at (q, m).

    The transverse shift removes most of q^2: solutions oscillate (or decay)
    at the square root of |q^2 - 4 pi^2 m^2 / b^2|, which near resonance is
    far below q. Resolution requirements follow this, not q itself.
    """
    return math.sqrt(abs(q * q - transverse_shift(m, b)))


def min_grid_size(q: float, m: int, b: float) -> int:
    """Interior points needed to resolve the reduced problem at (q, m).

    20 points per effective wavelength 2 pi / effective_wavenumber on (-b, b).
    """
    kappa = effective_wavenumber(q, m, b)
    return int(math.ceil(20 * kappa * b / math.pi))


@dataclass(frozen=True)
class ReducedOperator:
    """P(q, m) on a strip grid: the diagonal diag, and grid.off beside it."""

    diag: np.ndarray
    grid: StripGrid


def assemble_reduced_operator(q: float, m: int, profile, n: int) -> ReducedOperator:
    """Second-order finite-difference operator on the interior of (-b, b)."""
    b = profile.b
    need = min_grid_size(q, m, b)
    if n < need:
        raise ResolutionError(
            f"n = {n} under-resolves (q = {q}, m = {m}): need at least {need} "
            "points (20 per effective wavelength)"
        )
    grid = StripGrid(b, int(n))
    diag = 2.0 / grid.dx**2 + 1j * q * grid.damping(profile) + (transverse_shift(m, b) - q * q)
    return ReducedOperator(diag=diag, grid=grid)


# Iteration cap of the sigma_min Lanczos, one (P*P)^-1 product an iteration.
# A peak converges in 4-5; the clustered sigma_min of uniform damping off
# resonance took 217 at q = 640, m = 309, n = 4000, the most measured.
LANCZOS_MAX_ITER = 2000


@dataclass(frozen=True)
class ResolventSample:
    q: float
    m: int
    norm: float
    n: int


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b>, summed by NumPy: a BLAS dot product rounds differently with
    the number of BLAS threads, and the resolvent norms must not."""
    return float(np.sum(a.view(float) * b.view(float)))


def _smallest_singular_value(op: ReducedOperator, tol: float) -> float:
    """sigma_min of P by three-term Lanczos on (P*P)^-1.

    Stops at the first iteration j whose top Ritz value theta of the j x j
    tridiagonal meets ARPACK's test |beta_j s_j| <= tol theta, where s_j is
    the last component of theta's eigenvector; beta_j = 0 (an invariant
    Krylov space) meets it. Only the last two Lanczos vectors are kept: no
    reorthogonalization and no Ritz vector, as only the value is returned.
    """
    n = op.grid.n
    off = np.full(n - 1, op.grid.off, dtype=complex)
    dl, d, du, du2, ipiv, info = lapack.zgttrf(off, op.diag, off)
    if info > 0:
        raise RuntimeError(f"P is singular: zgttrf found a zero pivot U({info}, {info})")
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= math.sqrt(_real_inner(v, v))
    v_prev = np.zeros(n, dtype=complex)
    alpha, beta = [], [0.0]
    for j in range(LANCZOS_MAX_ITER):
        y = lapack.zgttrs(dl, d, du, du2, ipiv, v, trans="C")[0]
        w = lapack.zgttrs(dl, d, du, du2, ipiv, y, trans="N")[0]
        w -= beta[-1] * v_prev
        alpha.append(_real_inner(v, w))
        w -= alpha[-1] * v
        beta.append(math.sqrt(_real_inner(w, w)))
        theta, s = eigh_tridiagonal(alpha, beta[1:-1], select="i", select_range=(j, j))
        if beta[-1] * abs(s[-1, 0]) <= tol * theta[0]:
            return 1.0 / math.sqrt(theta[0])
        v_prev, v = v, w / beta[-1]
    raise RuntimeError(f"Lanczos did not converge in {LANCZOS_MAX_ITER} iterations")


# tol = 1e-9: the stop test |beta_j s_j| <= tol theta sits only 27x above the
# rounding floor of the Lanczos residual, 3.7e-11 theta measured at the
# deepest beta = 2 peak (m = 1,048,576, n = 100,332). A RESOLVENT_BRANCH_M
# reaching deeper must re-measure that margin.
def resolvent_norm(q: float, m: int, profile, n: int, *,
                   tol: float = 1e-9) -> ResolventSample:
    """1 / sigma_min of the assembled operator, as a ResolventSample.

    Raises RootFindError if P is singular or the Lanczos iteration does not
    converge. Every call starts the iteration from the same seeded vector,
    so a sample depends only on (q, m, profile, n, tol).
    """
    op = assemble_reduced_operator(q, m, profile, n)
    try:
        smin = _smallest_singular_value(op, tol)
    except RuntimeError as exc:  # no convergence, or a zero pivot
        raise RootFindError(
            f"sigma_min failed at (q, m, n) = ({q!r}, {m}, {n}): {exc}"
        ) from exc
    return ResolventSample(q=float(q), m=int(m), norm=1.0 / smin, n=int(n))


def _m_window(q: float, b: float):
    """The transverse modes within 3 of resonance with q."""
    center = int(round(b * q / (2.0 * math.pi)))
    return [mm for mm in range(center - 3, center + 4) if mm >= 1]


def _window_grid_size(q: float, b: float) -> int:
    """Interior points resolving every mode of q's window, at least 4000."""
    return max(4000, max(min_grid_size(q, mm, b) for mm in _m_window(q, b)))


# Relative margin by which the numerical-range bound of a mode must fall below
# the best norm before scan_point skips the mode: far above the Lanczos tol,
# so a skipped mode could not have replaced the maximum.
SKIP_MARGIN = 1e-6


def _numerical_range_distance(q: float, m: int, grid: StripGrid,
                              w_min: float, w_max: float) -> float:
    """Distance from 0 to a rectangle holding the numerical range of P(q, m).

    The Hermitian part K + s has the spectrum grid.spectrum + s, and q W
    ranges over [q min W, q max W], so |<P u, u>| >= this distance for unit u
    and norm(q, m) <= 1 / distance.
    """
    s = transverse_shift(m, grid.b) - q * q
    re_lo, re_hi = float(grid.spectrum[0]) + s, float(grid.spectrum[-1]) + s
    im_lo, im_hi = sorted((q * w_min, q * w_max))
    return math.hypot(max(re_lo, -re_hi, 0.0), max(im_lo, -im_hi, 0.0))


def scan_point(q: float, profile) -> ResolventSample:
    """Worst resolvent norm over transverse modes near resonance with q.

    The grid is _window_grid_size's. The modes run in ascending order and a
    later one replaces the maximum only when its norm is strictly larger. A
    mode is skipped, with no solve, when its numerical-range bound 1/d is
    below best.norm * (1 - SKIP_MARGIN): its norm cannot reach the maximum,
    so the returned sample is the one an unpruned scan returns. A skipped
    mode has d > 0, so P is nonsingular there.
    """
    b = profile.b
    grid = StripGrid(b, _window_grid_size(q, b))
    W = grid.damping(profile)
    w_min, w_max = float(np.min(W)), float(np.max(W))
    best = None
    for mm in _m_window(q, b):
        d = _numerical_range_distance(q, mm, grid, w_min, w_max)
        if best is not None and best.norm * (1.0 - SKIP_MARGIN) * d > 1.0:
            continue
        samp = resolvent_norm(q, mm, profile, grid.n)
        if best is None or samp.norm > best.norm:
            best = samp
    return best


@dataclass(frozen=True)
class ScanResult:
    samples: list
    fit: FitResult


def scan_and_fit(q_values, profile) -> ScanResult:
    """Least-squares growth exponent of log(norm) against log(q)."""
    qs = sorted(float(q) for q in q_values)
    if qs[-1] / qs[0] < 10.0**1.5:
        warnings.warn(
            "q grid spans less than 1.5 decades; the fitted exponent may not "
            "be meaningful", RuntimeWarning, stacklevel=2,
        )
    samples = [scan_point(q, profile) for q in qs]
    fit = loglog_fit([s.q for s in samples], [s.norm for s in samples])
    return ScanResult(samples=samples, fit=fit)


def _peak_grid_size(q: float, layer: float, b: float) -> int:
    """Interior points of a peak solve at frequency q: the window's grid, and
    20 on each boundary-layer width of the expected minimal singular vector."""
    return max(_window_grid_size(q, b), int(math.ceil(20 * 2.0 * b / layer)))


def scan_peaks(eigs, profile) -> ScanResult:
    """Resolvent norm at each branch's predicted peak, one solve per branch.

    For each branch the peak sits at Re q of the constructed quasimode
    frequency, on the branch's own transverse mode m = b / (2 pi h^2). The
    prediction is the peak: on the pinned branches norm * 2 Re q |Im q| is
    1.00-1.01, and a search in q around it never moved the reported sample.
    The grid is _peak_grid_size's, with the layer width h^(2/(beta+2)).
    """
    b = profile.b
    samples = []
    for eig in eigs:
        q, m = ansatz_params(eig, b)
        q_pred = float(q.real)
        layer = eig.h ** (2.0 / (eig.beta + 2.0))
        samples.append(resolvent_norm(q_pred, m, profile,
                                      _peak_grid_size(q_pred, layer, b)))
    samples.sort(key=lambda s: s.q)
    fit = loglog_fit([s.q for s in samples], [s.norm for s in samples])
    return ScanResult(samples=samples, fit=fit)


def quasimode_lower_bound(qm, profile) -> ResolventSample:
    """Lower bound |u| / |P u| obtained by feeding a stored quasimode to P.

    Evaluated at the real part of the quasimode frequency on the grid
    scan_peaks solves its branch on, so the scanned norm at the same (q, m)
    must weakly dominate it.
    """
    q = float(qm.q.real)
    n = _peak_grid_size(q, qm.s, qm.b)
    op = assemble_reduced_operator(q, qm.m, profile, n)
    u = qm.evaluate(op.grid.x)
    Pu = op.diag * u
    Pu[1:] += op.grid.off * u[:-1]
    Pu[:-1] += op.grid.off * u[1:]
    bound = float(np.linalg.norm(u) / np.linalg.norm(Pu))
    return ResolventSample(q=q, m=qm.m, norm=bound, n=n)
