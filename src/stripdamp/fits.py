"""Least-squares slope fits used by every scaling-law check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float       # standard error of the slope
    r2: float
    n: int


def linear_fit(x, y) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two same-length samples of size >= 2")
    n = x.size
    A = np.vstack([x, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if n > 2:
        sxx = float(((x - x.mean()) ** 2).sum())
        stderr = np.sqrt(ss_res / (n - 2) / sxx) if sxx > 0 else np.inf
    else:
        stderr = 0.0
    return FitResult(slope=slope, intercept=intercept, stderr=float(stderr), r2=r2, n=n)


def loglog_fit(x, y) -> FitResult:
    """Slope of log(y) against log(x); inputs must be positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("loglog_fit needs strictly positive data")
    return linear_fit(np.log(x), np.log(y))


def local_slopes(x, y):
    """Chord slopes of log y vs log x between consecutive samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.diff(np.log(y)) / np.diff(np.log(x))
