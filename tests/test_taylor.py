import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolling_twistor.taylor import TaylorJet


def fd_derivs(f, x0, n, h=3e-2):
    """High-order central differences for derivatives 1..n (test oracle)."""
    from rolling_twistor.finitediff import fd_weights

    nodes = x0 + h * np.arange(-5, 6, dtype=float)
    w = fd_weights(nodes, x0, n)
    vals = np.array([f(t) for t in nodes])
    return [float(w[:, k] @ vals) for k in range(1, n + 1)]


def test_variable_and_constant():
    x = TaylorJet.variable(2.0, 4)
    assert x.value == 2.0
    assert x.deriv(1) == 1.0
    assert x.deriv(2) == 0.0
    c = TaylorJet.constant(3.0, 4)
    assert c.deriv(1) == 0.0


def test_polynomial_derivatives_exact():
    x = TaylorJet.variable(1.5, 4)
    p = 2.0 * x**3 - x + 5.0
    assert p.value == pytest.approx(2 * 1.5**3 - 1.5 + 5)
    assert p.deriv(1) == pytest.approx(6 * 1.5**2 - 1)
    assert p.deriv(2) == pytest.approx(12 * 1.5)
    assert p.deriv(3) == pytest.approx(12.0)
    assert p.deriv(4) == 0.0


def test_division_and_negative_powers():
    x = TaylorJet.variable(0.7, 4)
    f = 2.0 / (1.0 + x * x) ** 3
    expected = fd_derivs(lambda t: 2.0 / (1.0 + t * t) ** 3, 0.7, 4)
    got = [f.deriv(k) for k in range(1, 5)]
    assert np.allclose(got, expected, rtol=1e-7)


@pytest.mark.parametrize(
    "name,jet_fn,ref",
    [
        ("sqrt", lambda x: (1.0 + x * x).sqrt(), lambda t: math.sqrt(1 + t * t)),
        ("exp", lambda x: (0.3 * x).exp(), lambda t: math.exp(0.3 * t)),
        ("log", lambda x: (2.0 + x * x).log(), lambda t: math.log(2 + t * t)),
        ("sin", lambda x: (x * x).sin(), lambda t: math.sin(t * t)),
        ("cos", lambda x: (x * x).cos(), lambda t: math.cos(t * t)),
        ("sinh", lambda x: x.sinh(), math.sinh),
        ("cosh", lambda x: x.cosh(), math.cosh),
    ],
)
def test_elementary_functions(name, jet_fn, ref):
    x = TaylorJet.variable(0.8, 4)
    f = jet_fn(x)
    assert f.value == pytest.approx(ref(0.8), rel=1e-12)
    expected = fd_derivs(ref, 0.8, 4)
    got = [f.deriv(k) for k in range(1, 5)]
    assert np.allclose(got, expected, rtol=1e-5, atol=1e-7)


def test_derivative_shifts_coefficients():
    x = TaylorJet.variable(0.4, 4)
    f = x**4
    fp = f.derivative()
    assert fp.value == pytest.approx(4 * 0.4**3)
    assert fp.order == 3


def test_division_by_zero_value_raises():
    x = TaylorJet.variable(0.0, 3)
    with pytest.raises(ZeroDivisionError):
        _ = 1.0 / x


def test_numpy_ufunc_dispatch():
    x = TaylorJet.variable(0.5, 3)
    assert np.cos(x).value == pytest.approx(math.cos(0.5))
    assert np.sqrt(1.0 + x).value == pytest.approx(math.sqrt(1.5))


# -- grid jets: one jet whose coefficients are arrays over the points --------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
}

UNARY = {
    "neg": operator.neg,
    "sqrt": lambda j: j.sqrt(),
    "exp": lambda j: j.exp(),
    "log": lambda j: j.log(),
    "sin": lambda j: j.sin(),
    "cos": lambda j: j.cos(),
    "sinh": lambda j: j.sinh(),
    "cosh": lambda j: j.cosh(),
    "pow0": lambda j: j**0,
    "pow3": lambda j: j**3,
    "pow-2": lambda j: j**-2,
    "scalar+": lambda j: 2.5 + j,
    "scalar-": lambda j: 2.5 - j,
    "-scalar": lambda j: j - 0.75,
    "scalar*": lambda j: 3.0 * j,
    "/scalar": lambda j: j / 1.25,
    "scalar/": lambda j: 1.5 / j,
    "derivative": lambda j: j.derivative() if j.order else j,
    "truncate": lambda j: j.truncate(2),
}


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def point_coefficients(draw, n):
    """Coefficient lists of one jet at n points; the values are positive,
    so sqrt, log and division apply."""
    order = draw(st.integers(0, 5))
    return [
        [draw(_floats(0.1, 4.0))] + draw(st.lists(_floats(-4.0, 4.0), min_size=order,
                                                  max_size=order))
        for _ in range(n)
    ]


@st.composite
def jet_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(point_coefficients(n)), draw(point_coefficients(n))


def grid_jet(points):
    return TaylorJet([np.array(column) for column in zip(*points)])


def assert_rounds_as_each_point(grid, singles):
    assert all(isinstance(c, np.ndarray) for c in grid.c)
    assert all(isinstance(c, float) for jet in singles for c in jet.c)
    got = np.array(grid.c).T
    want = np.array([jet.c for jet in singles])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()  # bit for bit


@PROPERTY
@given(jet_pairs(), st.sampled_from(sorted(BINARY)))
def test_grid_binary_ops_round_as_each_point(pair, name):
    a, b = pair
    op = BINARY[name]
    singles = [op(TaylorJet(x), TaylorJet(y)) for x, y in zip(a, b)]
    assert_rounds_as_each_point(op(grid_jet(a), grid_jet(b)), singles)


@PROPERTY
@given(jet_pairs(), st.sampled_from(sorted(UNARY)))
def test_grid_unary_ops_round_as_each_point(pair, name):
    a, _ = pair
    op = UNARY[name]
    assert_rounds_as_each_point(op(grid_jet(a)), [op(TaylorJet(x)) for x in a])


def test_grid_variable_and_constant():
    x0 = np.array([0.5, 1.5, -2.0])
    for ctor in (TaylorJet.variable, TaylorJet.constant):
        assert_rounds_as_each_point(ctor(x0, 4), [ctor(float(x), 4) for x in x0])


def test_grid_checks_every_point():
    x = TaylorJet.variable(np.array([1.0, 0.0, 2.0]), 3)
    with pytest.raises(ZeroDivisionError):
        _ = 1.0 / x
    with pytest.raises(ValueError):
        x.log()

