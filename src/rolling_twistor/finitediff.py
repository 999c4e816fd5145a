"""Finite differences for the whole package.

Fornberg stencils let the trajectory and mesh diagnostics differentiate
sampled data well below the integrator's own error order; the oracle's
metric derivatives use `check_step` and `richardson`, and the reference
brackets of `distribution5` use `richardson`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepSizeError


def check_step(h):
    """h as a float, or StepSizeError unless it is a finite positive number."""
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise StepSizeError(f"step size must be a finite positive number, got {h}")
    return h


def richardson(coarse, fine):
    """One Richardson level for an O(h^2) scheme: `coarse` taken at step h,
    `fine` at h/2; the result is O(h^4)."""
    return (4.0 * fine - coarse) / 3.0


def fd_weights(nodes, x0, m):
    """Weights for derivatives 0..m at x0 from arbitrary nodes (Fornberg).

    Returns an array w of shape (len(nodes), m+1); column k gives the weights
    of the k-th derivative.  An array x0 runs the recursion for all its
    points at once, elementwise, and appends its shape to that of w.
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    if m >= n:
        raise ValueError("need more nodes than the requested derivative order")
    c = np.zeros((n, m + 1) + np.shape(x0))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def sampled_derivative(values, dt, order=6, deriv=1):
    """Derivative of uniformly sampled data along axis 0.

    Uses centered (order+1)-point stencils in the interior and shifted
    stencils of the same width near the boundary, so the accuracy order is
    uniform across the sample range.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    width = min(order + 1, n)
    if width <= deriv:
        raise ValueError("not enough samples for the requested derivative")
    offsets = np.arange(width, dtype=float)
    stencils = fd_weights(offsets, offsets, deriv)[:, deriv]  # column s: window offset s
    out = np.empty_like(y)
    for i in range(n):
        lo = min(max(i - width // 2, 0), n - width)
        out[i] = np.tensordot(stencils[:, i - lo], y[lo : lo + width], axes=(0, 0)) / dt**deriv
    return out


def _interval_weights(nodes, a, b):
    # exact integration weights over [a, b] for the Lagrange interpolant
    # through `nodes`: solve the Vandermonde moment system
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    powers = np.arange(n)
    vand = x[None, :] ** powers[:, None]
    moments = (b ** (powers + 1) - a ** (powers + 1)) / (powers + 1)
    return np.linalg.solve(vand, moments)


def cumulative_integral(values, dt, order=4):
    """Cumulative integral of uniformly sampled data (4th-order accurate).

    Each interval [t_k, t_{k+1}] is integrated with the local degree-(order-1)
    interpolant through `order` neighbouring samples.
    """
    y = np.asarray(values, dtype=float)
    n = y.shape[0]
    width = min(order, n)
    nodes = np.arange(width, dtype=float)
    weights = [_interval_weights(nodes, s, s + 1.0) for s in range(width - 1)]
    out = np.zeros(y.shape)
    acc = np.zeros(y.shape[1:]) if y.ndim > 1 else 0.0
    for k in range(n - 1):
        lo = min(max(k - (width - 1) // 2, 0), n - width)
        acc = acc + dt * np.tensordot(weights[k - lo], y[lo : lo + width], axes=(0, 0))
        out[k + 1] = acc
    return out
