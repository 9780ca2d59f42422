"""Resolvent norms of the reduced stationary operator on (-b, b).

For real driving frequency q and transverse index m the reduced operator is

    P(q, m) = -d^2/dx^2 + i q W(x) + (4 pi^2 m^2 / b^2 - q^2)

with Dirichlet ends. Its inverse norm is 1/sigma_min(P); the smallest
singular value is obtained by Lanczos iteration on (P* P)^{-1} through one
sparse LU factorization of the tridiagonal P. The supremum of the
two-dimensional resolvent over transverse modes is realized near m = b q /
(2 pi), so a scan maximizes over a small window of integers there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ResolutionError
from .fits import FitResult, loglog_fit
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
    return math.sqrt(abs(q * q - 4.0 * math.pi**2 * m**2 / b**2))


def min_grid_size(q: float, m: int, b: float, points_per_wavelength: int = 20) -> int:
    """Interior points needed to resolve the reduced problem at (q, m)."""
    kappa = effective_wavenumber(q, m, b)
    return int(math.ceil(points_per_wavelength * kappa * b / math.pi))


@dataclass(frozen=True)
class ReducedOperator:
    matrix: sp.csc_matrix
    x: np.ndarray
    dx: float
    q: float
    m: int
    n: int

    def hermitian_part_diagonal(self):
        """Diagonal of (P + P*)/2; independent of the damping."""
        return self.matrix.diagonal().real


def assemble_reduced_operator(q: float, m: int, profile, n: int,
                              points_per_wavelength: int = 20) -> ReducedOperator:
    """Second-order finite-difference operator on the interior of (-b, b)."""
    b = profile.b
    need = min_grid_size(q, m, b, points_per_wavelength)
    if n < need:
        raise ResolutionError(
            f"n = {n} under-resolves (q = {q}, m = {m}): need at least {need} "
            f"points ({points_per_wavelength} per effective wavelength)"
        )
    dx = 2.0 * b / (n + 1)
    x = -b + dx * np.arange(1, n + 1)
    W = profile.damping(x)
    diag = 2.0 / dx**2 + 1j * q * W + (4.0 * math.pi**2 * m**2 / b**2 - q * q)
    off = np.full(n - 1, -1.0 / dx**2)
    matrix = sp.diags([off, diag, off], [-1, 0, 1], format="csc", dtype=complex)
    return ReducedOperator(matrix=matrix, x=x, dx=dx, q=float(q), m=int(m), n=int(n))


@dataclass(frozen=True)
class ResolventSample:
    q: float
    m: int
    norm: float
    n: int


def _smallest_singular_value(A: sp.csc_matrix, tol: float, maxiter: int,
                             v0=None, want_vector=False):
    n = A.shape[0]
    lu = spla.splu(A)

    def matvec(z):
        return lu.solve(lu.solve(z, trans="H"), trans="N")

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=complex)
    if v0 is None:
        rng = np.random.default_rng(1234)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ncv = min(n - 1, 48)
    vals, vecs = spla.eigsh(op, k=1, which="LM", tol=tol, maxiter=maxiter,
                            v0=v0, ncv=ncv)
    smin = 1.0 / math.sqrt(float(vals[0]))
    if want_vector:
        return smin, vecs[:, 0]
    return smin


def resolvent_norm(q: float, m: int, profile, n: int, *,
                   tol: float = 1e-9, maxiter: int = 2000,
                   points_per_wavelength: int = 20,
                   v0=None, want_vector: bool = False):
    """1 / sigma_min of the assembled operator, as a ResolventSample.

    Falls back to a dense SVD (with a warning) if the iteration stagnates and
    the system is small enough for that to be sane. A starting vector v0
    warm-starts the Lanczos iteration; want_vector additionally returns the
    minimal singular vector for chained calls.
    """
    op = assemble_reduced_operator(q, m, profile, n, points_per_wavelength)
    vec = None
    try:
        out = _smallest_singular_value(op.matrix, tol, maxiter,
                                       v0=v0, want_vector=want_vector)
        smin, vec = out if want_vector else (out, None)
    except (spla.ArpackNoConvergence, RuntimeError):
        if n > 3000:
            raise
        warnings.warn(
            f"shift-invert iteration stagnated at (q={q}, m={m}); "
            "falling back to dense SVD", RuntimeWarning, stacklevel=2,
        )
        smin = float(np.linalg.svd(op.matrix.toarray(), compute_uv=False)[-1])
    samp = ResolventSample(q=float(q), m=int(m), norm=1.0 / smin, n=int(n))
    return (samp, vec) if want_vector else samp


def _m_window(q: float, b: float, width: int = 3):
    center = int(round(b * q / (2.0 * math.pi)))
    return [mm for mm in range(center - width, center + width + 1) if mm >= 1]


def scan_point(q: float, profile, n: int | None = None, *, window: int = 3,
               points_per_wavelength: int = 20) -> ResolventSample:
    """Worst resolvent norm over transverse modes near resonance with q."""
    mms = _m_window(q, profile.b, window)
    if n is None:
        n = max(4000, max(min_grid_size(q, mm, profile.b, points_per_wavelength)
                          for mm in mms))
    best = None
    for mm in mms:
        samp = resolvent_norm(q, mm, profile, n,
                              points_per_wavelength=points_per_wavelength)
        if best is None or samp.norm > best.norm:
            best = samp
    return best


@dataclass(frozen=True)
class ScanResult:
    samples: list
    fit: FitResult


def scan_and_fit(q_values, profile, *, n: int | None = None, window: int = 3,
                 points_per_wavelength: int = 20) -> ScanResult:
    """Least-squares growth exponent of log(norm) against log(q)."""
    qs = sorted(float(q) for q in q_values)
    if qs[-1] / qs[0] < 10.0**1.5:
        warnings.warn(
            "q grid spans less than 1.5 decades; the fitted exponent may not "
            "be meaningful", RuntimeWarning, stacklevel=2,
        )
    samples = [
        scan_point(q, profile, n, window=window,
                   points_per_wavelength=points_per_wavelength)
        for q in qs
    ]
    fit = loglog_fit([s.q for s in samples], [s.norm for s in samples])
    return ScanResult(samples=samples, fit=fit)


def scan_peaks(eigs, profile, *, window: int = 3, refine: int = 3,
               points_per_wavelength: int = 20,
               n_cap: int | None = None, tol: float = 1e-9) -> ScanResult:
    """Resolvent norm maximized locally around each predicted peak.

    For each branch the peak sits at Re q of the constructed quasimode
    frequency, on the branch's own transverse mode m = b / (2 pi h^2), with
    halfwidth about |Im q| along the real axis. A short golden-section
    polish in q sharpens the peak value. Grid sizes follow the effective
    wavenumber over the modes within `window` of resonance plus the
    boundary-layer scale of the expected minimal singular vector, unless
    n_cap pins them.
    """
    b = profile.b
    samples = []
    for eig in eigs:
        q, m = ansatz_params(eig, b)
        q_pred, width = float(q.real), max(abs(q.imag), 1e-12 * q.real)
        if n_cap is not None:
            n = n_cap
        else:
            n_osc = max(min_grid_size(q_pred, mm, b, points_per_wavelength)
                        for mm in _m_window(q_pred, b, window))
            layer = eig.h ** (2.0 / (eig.beta + 2.0))
            n_layer = int(math.ceil(points_per_wavelength * 2.0 * b / layer))
            n = max(4000, n_osc, n_layer)
        best = resolvent_norm(q_pred, m, profile, n, tol=tol,
                              points_per_wavelength=points_per_wavelength)
        lo, hi = q_pred - 2.0 * width, q_pred + 2.0 * width
        carry = {"v0": None}

        def norm_at(qq):
            samp, vec = resolvent_norm(
                qq, m, profile, n, tol=tol,
                points_per_wavelength=points_per_wavelength,
                v0=carry["v0"], want_vector=True)
            if vec is not None:
                carry["v0"] = vec
            return samp.norm

        for _ in range(refine):
            qa = lo + 0.382 * (hi - lo)
            qb = lo + 0.618 * (hi - lo)
            if norm_at(qa) > norm_at(qb):
                hi = qb
            else:
                lo = qa
        q_star = 0.5 * (lo + hi)
        polished, _ = resolvent_norm(q_star, m, profile, n, tol=tol,
                                     points_per_wavelength=points_per_wavelength,
                                     v0=carry["v0"], want_vector=True)
        if polished.norm < best.norm:
            polished = best
        samples.append(polished)
    samples.sort(key=lambda s: s.q)
    fit = loglog_fit([s.q for s in samples], [s.norm for s in samples])
    return ScanResult(samples=samples, fit=fit)


def quasimode_lower_bound(qm, profile, n: int | None = None,
                          points_per_wavelength: int = 20) -> ResolventSample:
    """Lower bound |u| / |P u| obtained by feeding a stored quasimode to P.

    Evaluated at the real part of the quasimode frequency on the scanner's
    own grid, so the scanned norm at the same (q, m) must weakly dominate it.
    """
    q = float(qm.q.real)
    if n is None:
        n_layer = int(math.ceil(points_per_wavelength * 2.0 * qm.b / qm.s))
        n = max(4000, min_grid_size(q, qm.m, qm.b, points_per_wavelength), n_layer)
    op = assemble_reduced_operator(q, qm.m, profile, n, points_per_wavelength)
    u = qm.evaluate(op.x)
    Pu = op.matrix @ u
    bound = float(np.linalg.norm(u) / np.linalg.norm(Pu))
    return ResolventSample(q=q, m=qm.m, norm=bound, n=n)
