"""Panel Gauss-Legendre quadrature and uniform-grid finite differences."""

from __future__ import annotations

import numpy as np


def gauss_panels(breakpoints, max_widths):
    """Composite 10-node Gauss-Legendre rule on [breakpoints[0], breakpoints[-1]].

    breakpoints: increasing sequence; panels never straddle one, so kinks of
    the integrand should be listed here.
    max_widths: scalar or per-segment cap on the panel width.
    Returns (nodes, weights).
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    if np.any(np.diff(breakpoints) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    nseg = len(breakpoints) - 1
    widths = np.broadcast_to(np.asarray(max_widths, dtype=float), (nseg,))
    gx, gw = np.polynomial.legendre.leggauss(10)
    xs, ws = [], []
    for (lo, hi), wmax in zip(zip(breakpoints[:-1], breakpoints[1:]), widths):
        npanel = max(1, int(np.ceil((hi - lo) / wmax)))
        edges = np.linspace(lo, hi, npanel + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs.append((centers[:, None] + half[:, None] * gx[None, :]).ravel())
        ws.append((half[:, None] * gw[None, :]).ravel())
    return np.concatenate(xs), np.concatenate(ws)


_D1_ONESIDED = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D2_ONESIDED = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0


def _check_stencil(f, order):
    if f.shape[0] < 7:
        raise ValueError("need at least 7 samples for fourth-order differences")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")


def _central(fm2, fm1, f0, fp1, fp2, dx, order):
    """Five-point central difference from the samples at offsets -2 .. 2."""
    if order == 1:
        return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * dx)
    return (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * dx * dx)


def _one_sided(f, dx, order):
    """Differences at the samples 0, 1, n - 2 and n - 1, nearest the ends."""
    if order == 1:
        return (_D1_ONESIDED @ f[:5] / dx, _D1_ONESIDED @ f[1:6] / dx,
                -(_D1_ONESIDED @ f[-2:-7:-1]) / dx, -(_D1_ONESIDED @ f[-1:-6:-1]) / dx)
    return (_D2_ONESIDED @ f[:6] / dx**2, _D2_ONESIDED @ f[1:7] / dx**2,
            _D2_ONESIDED @ f[-2:-8:-1] / dx**2, _D2_ONESIDED @ f[-1:-7:-1] / dx**2)


def fd_derivative(values, dx, order=1):
    """Fourth-order finite difference of sampled values on a uniform grid.

    Central five-point stencils inside, one-sided stencils of the same order
    at the two points nearest each end. Works for complex data.
    """
    f = np.asarray(values)
    _check_stencil(f, order)
    d = np.empty_like(f)
    d[2:-2] = _central(f[:-4], f[1:-3], f[2:-2], f[3:-1], f[4:], dx, order)
    d[[0, 1, -2, -1]] = _one_sided(f, dx, order)
    return d


def fd_derivative_at(values, dx, idx, order):
    """fd_derivative(values, dx, order)[idx], differencing only at idx.

    Same stencils and the same arithmetic, so the result is bit for bit the
    full-grid one; idx holds indices in [0, n).
    """
    f = np.asarray(values)
    _check_stencil(f, order)
    n = f.shape[0]
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"indices must lie in [0, {n})")
    d = np.empty(idx.shape, dtype=f.dtype)
    inner = (idx >= 2) & (idx < n - 2)
    i = idx[inner]
    d[inner] = _central(f[i - 2], f[i - 1], f[i], f[i + 1], f[i + 2], dx, order)
    ends = np.array(_one_sided(f, dx, order))
    d[~inner] = ends[np.searchsorted([0, 1, n - 2, n - 1], idx[~inner])]
    return d


def complex_interp(xq, x, y):
    """Linear interpolation of complex samples, zero outside the grid."""
    re = np.interp(xq, x, y.real, left=0.0, right=0.0)
    im = np.interp(xq, x, y.imag, left=0.0, right=0.0)
    return re + 1j * im
