"""Truncated Taylor-series ("higher-order dual number") arithmetic.

A `TaylorJet` tracks the value and the first few derivatives of a scalar
function of one variable through arithmetic and elementary functions.  It is
exact (up to rounding) for rational expressions, which is what the surface
catalog needs: curvature formulas are rational in the profile coordinate, and
the fourth e1-derivative of the curvature feeds the quartic invariants, where
finite differences would be fragile.

One jet carries either one point or a grid of points: its coefficients are
all Python floats, or all 1-D arrays of the same length.  Every operator is
written once, as sums over the coefficient index added in a fixed order from
elementwise operations, so each point of a grid rounds exactly as the same
point evaluated on its own (the propagation rules are those of Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
"""

from __future__ import annotations

import math

import numpy as np


def _dot(x, y):
    """sum(x[i] * y[i]) added left to right; 0.0 for empty sequences."""
    if not x:
        return 0.0
    s = x[0] * y[0]
    for i in range(1, len(x)):
        s = s + x[i] * y[i]
    return s


def _anywhere(test):
    """A comparison on one point (a bool) or on a grid (a bool array)."""
    return test.any() if isinstance(test, np.ndarray) else test


def _pointwise(fn, x):
    """A math-module function of a float, or of each entry of a 1-D array
    (numpy's vectorised transcendentals may round differently)."""
    if isinstance(x, np.ndarray):
        return np.array([fn(v) for v in x.tolist()])
    return fn(x)


def _coefficients(x0, order, slope):
    """(x0, slope, 0, ..., 0) up to the given order, at x0 a number or a 1-D
    sequence of points."""
    if isinstance(x0, (np.ndarray, list, tuple)) and np.ndim(x0) == 1:
        x0 = np.array(x0, dtype=float)
        rest = [np.full_like(x0, slope)] + [np.zeros_like(x0)] * (order - 1)
    else:
        x0 = float(x0)
        rest = [slope] + [0.0] * (order - 1)
    return [x0] + rest[:order]


class TaylorJet:
    """Taylor coefficients c[k] = f^(k)(x0)/k! of a function at a point, or
    at each point of a grid.

    Arithmetic truncates to the shorter operand, so derived quantities lose
    one order per differentiation, never silently gaining bogus terms.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(coeffs)

    @classmethod
    def variable(cls, x0, order):
        """The identity function at x0 (a number, or a 1-D array of points)."""
        return cls(_coefficients(x0, order, 1.0))

    @classmethod
    def constant(cls, x0, order):
        return cls(_coefficients(x0, order, 0.0))

    @property
    def order(self):
        return len(self.c) - 1

    @property
    def value(self):
        return self.c[0]

    def deriv(self, k):
        """k-th derivative f^(k)(x0)."""
        if k > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {k}")
        return self.c[k] * math.factorial(k)

    def derivative(self):
        """Jet of f', one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return TaylorJet([self.c[k] * k for k in range(1, len(self.c))])

    def truncate(self, order):
        if order >= self.order:
            return self
        return TaylorJet(self.c[: order + 1])

    # -- arithmetic ---------------------------------------------------------

    def _operands(self, other):
        n = min(len(self.c), len(other.c))
        return self.c[:n], other.c[:n]

    def __add__(self, other):
        if isinstance(other, TaylorJet):  # zip truncates to the shorter operand
            return TaylorJet([x + y for x, y in zip(self.c, other.c)])
        return TaylorJet((self.c[0] + float(other),) + self.c[1:])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TaylorJet):  # zip truncates to the shorter operand
            return TaylorJet([x - y for x, y in zip(self.c, other.c)])
        return TaylorJet((self.c[0] - float(other),) + self.c[1:])

    def __rsub__(self, other):
        return TaylorJet([float(other) - self.c[0]] + [-x for x in self.c[1:]])

    def __neg__(self):
        return TaylorJet([-x for x in self.c])

    def __mul__(self, other):
        if not isinstance(other, TaylorJet):
            s = float(other)
            return TaylorJet([x * s for x in self.c])
        a, b = self._operands(other)
        return TaylorJet([_dot(a[: k + 1], b[k::-1]) for k in range(len(a))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TaylorJet):
            other = TaylorJet.constant(float(other), self.order)
        a, b = self._operands(other)
        if _anywhere(b[0] == 0.0):
            raise ZeroDivisionError("division by a jet with zero value")
        q = []
        for k in range(len(a)):
            q.append((a[k] - _dot(q[:k], b[k:0:-1])) / b[0])
        return TaylorJet(q)

    def __rtruediv__(self, other):
        return TaylorJet.constant(float(other), self.order) / self

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet powers must be integers; use sqrt() for 1/2")
        if n == 0:
            return TaylorJet.constant(np.ones_like(self.c[0]), self.order)
        base = self if n > 0 else 1.0 / self
        out = base
        for _ in range(abs(int(n)) - 1):
            out = out * base
        return out

    # -- elementary functions (numpy dispatches np.exp(jet) etc. to these) --

    def sqrt(self):
        a = self.c
        if _anywhere(a[0] <= 0.0):
            raise ValueError("sqrt of a jet with non-positive value")
        s = [_pointwise(math.sqrt, a[0])]
        for k in range(1, len(a)):
            s.append((a[k] - _dot(s[1:k], s[k - 1 : 0 : -1])) / (2.0 * s[0]))
        return TaylorJet(s)

    def exp(self):
        a = self.c
        ja = [j * a[j] for j in range(1, len(a))]
        e = [_pointwise(math.exp, a[0])]
        for k in range(1, len(a)):
            e.append(_dot(ja[:k], e[::-1]) / k)
        return TaylorJet(e)

    def log(self):
        a = self.c
        if _anywhere(a[0] <= 0.0):
            raise ValueError("log of a jet with non-positive value")
        l = [_pointwise(math.log, a[0])]
        for k in range(1, len(a)):
            jl = [j * l[j] for j in range(1, k)]
            l.append((k * a[k] - _dot(jl, a[k - 1 : 0 : -1])) / (k * a[0]))
        return TaylorJet(l)

    def _sincos(self):
        a = self.c
        ja = [j * a[j] for j in range(1, len(a))]
        s = [_pointwise(math.sin, a[0])]
        c = [_pointwise(math.cos, a[0])]
        for k in range(1, len(a)):
            s_k = _dot(ja[:k], c[::-1]) / k
            c.append(-_dot(ja[:k], s[::-1]) / k)
            s.append(s_k)
        return TaylorJet(s), TaylorJet(c)

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def sinh(self):
        e = self.exp()
        return (e - 1.0 / e) * 0.5

    def cosh(self):
        e = self.exp()
        return (e + 1.0 / e) * 0.5

    def __repr__(self):
        return f"TaylorJet({[np.asarray(x).tolist() for x in self.c]})"
