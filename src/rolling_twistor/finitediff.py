"""Finite differences and quadrature for the whole package.

Fornberg stencils let the trajectory diagnostics differentiate sampled data
well below the integrator's own error order (the tests' mesh checks use
them too); the integrator checks its step with `check_step`, and the
oracle's metric derivatives and the reference brackets of `distribution5`
use `richardson`.  `tanh_sinh` integrates functions given in closed form,
such as the embedding heights, to near machine precision, including
square-root branch points at an endpoint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError, StepSizeError


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


TANH_SINH_TOL = 1e-13  # relative change between levels that counts as converged
TANH_SINH_WINDOW = 4.0  # |s| <= 4: nodes reach within ~1e-37 of the interval length
TANH_SINH_FIRST_LEVEL = 2  # start at step 1/4: coarser steps can agree by accident
TANH_SINH_MAX_LEVEL = 10  # step 2^-10, 8193 nodes per interval


def _tanh_sinh_nodes(level):
    """Endpoint distances d of the nodes s >= 0 that are new at step
    2^-level (all of them at the first level, the midpoints of the previous
    step after it), and their weights w, repeated for the nodes measured
    from a and those measured from b.

    With x = tanh(u), u = pi/2 sinh(s), the node sits at distance
    (b - a)/2 * d from an end, where d = 1 - |x| = 2 / (e^{2|u|} + 1) is
    formed directly, never as 1 - tanh(u), which cancels to 0 near the ends.
    dx/ds = pi/2 cosh(s) sech^2(u) and sech^2(u) = d (2 - d).
    """
    h = 2.0**-level
    if level == TANH_SINH_FIRST_LEVEL:
        s = np.arange(0.0, TANH_SINH_WINDOW + 0.5 * h, h)
    else:
        s = np.arange(h, TANH_SINH_WINDOW, 2.0 * h)
    u = 0.5 * math.pi * np.sinh(s)
    d = 2.0 / (np.exp(2.0 * u) + 1.0)
    w = 0.5 * math.pi * np.cosh(s) * d * (2.0 - d)
    if level == TANH_SINH_FIRST_LEVEL:
        w[0] *= 0.5  # s = 0 is the midpoint, counted from both ends
    return d, np.concatenate([w, w])


_TANH_SINH_LEVELS = [
    (level, *_tanh_sinh_nodes(level))
    for level in range(TANH_SINH_FIRST_LEVEL, TANH_SINH_MAX_LEVEL + 1)
]


def _interval(a, b, k):
    return f"[{float(a[k])!r}, {float(b[k])!r}]"


def _tanh_sinh_flat(f, a, b):
    half = 0.5 * (b - a)
    rows = np.arange(len(a))  # intervals not yet converged
    total = np.zeros(len(a))  # sum of w f over the nodes so far, per interval
    size = np.zeros(len(a))  # the same sum of w |f|
    out = np.empty(len(a))
    for level, d, w in _TANH_SINH_LEVELS:
        h = 2.0**-level
        offset = half[rows, None] * d
        ends = [np.broadcast_to(e[rows, None], offset.shape) for e in (a, b)]
        y = f(np.concatenate(ends, axis=1), np.concatenate([offset, -offset], axis=1))
        finite = np.all(np.isfinite(y), axis=1)
        if not np.all(finite):
            bad = rows[np.argmin(finite)]
            raise QuadratureError(f"integrand is not finite on {_interval(a, b, bad)}")
        wy = y * w
        total[rows] += wy.sum(axis=1)
        size[rows] += np.abs(wy).sum(axis=1)
        estimate = h * half[rows] * total[rows]
        if level == TANH_SINH_FIRST_LEVEL:
            # the outermost nodes bound the part of the integral beyond the
            # window; at a non-integrable end they stay large at every level
            edge = np.abs(wy[:, [len(d) - 1, -1]]).max(axis=1)
        else:
            scale = TANH_SINH_TOL * h * np.abs(half[rows]) * size[rows]
            if not np.all(np.isfinite(estimate)):
                bad = rows[np.argmin(np.isfinite(estimate))]
                raise QuadratureError(f"integral overflows on {_interval(a, b, bad)}")
            tail = edge * np.abs(half[rows]) > scale
            if np.any(tail):
                bad = rows[np.argmax(tail)]
                raise QuadratureError(
                    f"integrand is not negligible at the ends of {_interval(a, b, bad)}: "
                    "the integral does not exist or needs a wider window"
                )
            done = np.abs(estimate - previous) <= scale
            out[rows[done]] = estimate[done]
            rows, estimate, edge = rows[~done], estimate[~done], edge[~done]
            if not len(rows):
                return out
        previous = estimate
    raise QuadratureError(
        f"tanh-sinh rule not converged after {TANH_SINH_MAX_LEVEL} levels on "
        f"{_interval(a, b, rows[0])}"
    )


def tanh_sinh(f, a, b):
    """Integral of f over [a, b] by the tanh-sinh (double-exponential) rule.

    Takahasi & Mori, Publ. RIMS 9 (1974).  `a` and `b` may be arrays of
    interval ends (broadcast together); the result has their shape.  `f` is
    called as f(end, offset) once per level, on 2-D arrays (intervals x
    nodes): each node is end + offset, where end is the nearer of a and b and
    the offset is accurate to rounding, so an integrand with a branch point
    at an end can form its distance from it without cancellation; others use
    f(end + offset).  The step halves until each interval changes by at most
    TANH_SINH_TOL relative to the integral of |f|.  QuadratureError is
    raised, and no value returned, when the integrand is not finite at a
    node, when the outermost nodes still carry weight (a non-integrable end),
    or when the level cap is reached.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    out = _tanh_sinh_flat(f, a.ravel(), b.ravel())
    return out.reshape(shape) if shape else float(out[0])
