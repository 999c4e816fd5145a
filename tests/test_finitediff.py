import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from rolling_twistor import finitediff
from rolling_twistor.errors import QuadratureError, StepSizeError
from rolling_twistor.finitediff import (
    _interval_weights,
    check_step,
    cumulative_integral,
    fd_weights,
    richardson,
    sampled_derivative,
    tanh_sinh,
)


def test_classic_central_weights():
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 2)
    assert np.allclose(w[:, 1], [-0.5, 0.0, 0.5])
    assert np.allclose(w[:, 2], [1.0, -2.0, 1.0])


def test_five_point_fourth_order_first_derivative():
    w = fd_weights(np.arange(-2.0, 3.0), 0.0, 1)[:, 1]
    assert np.allclose(w, [1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12])


def test_sampled_derivative_accuracy():
    dt = 1e-2
    t = np.arange(0.0, 2.0 + dt / 2, dt)
    y = np.sin(3.0 * t)
    dy = sampled_derivative(y, dt)
    assert np.max(np.abs(dy - 3.0 * np.cos(3.0 * t))) < 1e-9


def test_sampled_derivative_vector_valued():
    dt = 1e-2
    t = np.arange(0.0, 1.0 + dt / 2, dt)
    y = np.stack([t**3, np.exp(t)], axis=1)
    dy = sampled_derivative(y, dt)
    assert np.max(np.abs(dy[:, 0] - 3 * t**2)) < 1e-11
    assert np.max(np.abs(dy[:, 1] - np.exp(t))) < 1e-10


def test_sampled_derivative_exact_on_low_degree():
    dt = 0.1
    t = np.arange(0.0, 1.01, dt)
    y = 2.0 * t + 1.0
    assert np.max(np.abs(sampled_derivative(y, dt) - 2.0)) < 1e-12


def test_cumulative_integral_fourth_order():
    errs = []
    for n in (101, 201):
        t = np.linspace(0.0, 2.0, n)
        dt = t[1] - t[0]
        y = np.cos(2.0 * t)
        integral = cumulative_integral(y, dt)
        exact = 0.5 * np.sin(2.0 * t)
        errs.append(np.max(np.abs(integral - exact)))
    assert errs[0] / errs[1] > 10.0  # ~16 for 4th order
    assert errs[1] < 1e-8


def test_too_few_nodes_raises():
    with pytest.raises(ValueError):
        fd_weights(np.array([0.0, 1.0]), 0.0, 2)


def reference_sampled_derivative(y, dt):
    """One Fornberg solve and one dot product per sample, the textbook form
    of the shifted 7-point stencils; and per sample the sum of the terms'
    moduli, sum_s |w_s y_s| / dt, the size of the rounding of that sum."""
    n = y.shape[0]
    width = min(7, n)
    out, size = np.empty_like(y), np.empty_like(y)
    for i in range(n):
        lo = min(max(i - width // 2, 0), n - width)
        w = fd_weights(np.arange(width, dtype=float), float(i - lo), 1)[:, 1]
        out[i] = np.tensordot(w, y[lo : lo + width], axes=(0, 0)) / dt
        size[i] = np.tensordot(np.abs(w), np.abs(y[lo : lo + width]), axes=(0, 0)) / dt
    return out, size


def reference_cumulative_integral(y, dt):
    # one moment solve and one dot product per interval of the 4-point rule
    n = y.shape[0]
    width = min(4, n)
    out = np.zeros(y.shape)
    acc = np.zeros(y.shape[1:]) if y.ndim > 1 else 0.0
    for k in range(n - 1):
        lo = min(max(k - (width - 1) // 2, 0), n - width)
        w = _interval_weights(np.arange(width, dtype=float), k - lo, k - lo + 1.0)
        acc = acc + dt * np.tensordot(w, y[lo : lo + width], axes=(0, 0))
        out[k + 1] = acc
    return out


EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal  # the absolute rounding unit below the normals


@pytest.mark.parametrize("n", [2, 5, 7, 8, 101])
@pytest.mark.parametrize("shape", [(), (5,)])
def test_stencil_tables_equal_per_sample_solves(n, shape):
    # The weights equal the per-sample solves bit for bit
    # (test_fd_weights_with_array_x0_equals_scalar_calls); the one batched
    # contraction adds the terms in another order than one dot product per
    # row, so the sums agree to rounding.  A sum of at most 7 terms rounds by
    # at most 3.5 eps of the sum of their moduli, each way.  The running
    # integral keeps the row order, and over 400 random cases its entry k
    # moved by at most 0.91 eps k dt max|y|.
    rng = np.random.default_rng(n)
    y = rng.standard_normal((n, *shape))
    dt = 0.037
    ref, size = reference_sampled_derivative(y, dt)
    got = sampled_derivative(y, dt)
    assert np.all(np.abs(got - ref) <= 8 * EPS * size)
    k = np.arange(n).reshape((n,) + (1,) * len(shape))
    ref = reference_cumulative_integral(y, dt)
    got = cumulative_integral(y, dt)
    assert got[0].tolist() == np.zeros(shape).tolist()
    assert np.all(np.abs(got - ref) <= 4 * EPS * k * dt * np.max(np.abs(y)))


def _polynomial_samples(coeffs, n, dt):
    """Samples p(k dt), k < n, of the polynomial with these coefficients, and
    max_k sum_j |c_j| (k dt)^j, which bounds |p| and its rounding."""
    p = Polynomial(coeffs)
    t = np.arange(n) * dt
    return p, t, Polynomial(np.abs(p.coef))(t).max()


polynomial_cases = dict(
    coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7),
    n=st.integers(8, 100),
    dt=st.floats(1e-3, 1.0),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(**polynomial_cases)
def test_sampled_derivative_is_exact_on_polynomials_of_degree_up_to_order(coeffs, n, dt):
    # the 7-point stencil differentiates degree <= order = 6 exactly, so
    # what is left is rounding: each sample's (up to order + 2 eps of the
    # bound, or units of TINY among subnormals), amplified by the largest sum
    # of |weights| of a stencil, over dt
    order = 6
    p, t, size = _polynomial_samples(coeffs[: order + 1], n, dt)
    nodes = np.arange(order + 1.0)
    gain = np.abs(fd_weights(nodes, nodes, 1)[:, 1]).sum(axis=0).max()
    err = np.abs(sampled_derivative(p(t), dt) - p.deriv()(t))
    assert np.max(err) <= gain * (order + 2) * (EPS * size + TINY) / dt


@settings(derandomize=True, max_examples=200, deadline=None)
@given(**polynomial_cases)
def test_cumulative_integral_is_exact_on_polynomials_of_degree_below_order(coeffs, n, dt):
    # the 4-point interval rule integrates degree <= order - 1 = 3 exactly;
    # the samples' and the reference's rounding add about 2 order eps per
    # unit of the bound (or units of TINY among subnormals), and the running
    # sum up to n / 2 eps more
    order = 4
    p, t, size = _polynomial_samples(coeffs[:order], n, dt)
    err = np.abs(cumulative_integral(p(t), dt) - p.integ()(t))
    assert np.max(err) <= (2 * order + n) * n * (EPS * dt * size + TINY)


def test_sampled_derivative_makes_one_fornberg_call(monkeypatch):
    calls = []
    original = finitediff.fd_weights

    def counting(nodes, x0, m):
        calls.append(np.array(x0))
        return original(nodes, x0, m)

    monkeypatch.setattr(finitediff, "fd_weights", counting)
    finitediff._stencil_table.cache_clear()  # an earlier test may have built the table
    sampled_derivative(np.zeros(101), 0.1)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.arange(7.0))


def test_stencil_tables_are_built_once_and_read_only(monkeypatch):
    # a second call with the same width builds no table: no Fornberg call
    # and no moment solve, and the tables it reads refuse writes
    calls = []

    def counting(name, original):
        def count(*args):
            calls.append(name)
            return original(*args)
        return count

    for name in ("fd_weights", "_interval_weights"):
        monkeypatch.setattr(finitediff, name, counting(name, getattr(finitediff, name)))
    finitediff._stencil_table.cache_clear()
    finitediff._interval_table.cache_clear()
    y = np.sin(np.arange(40.0))
    first = sampled_derivative(y, 0.1), cumulative_integral(y, 0.1)
    assert sorted(set(calls)) == ["_interval_weights", "fd_weights"]
    calls.clear()
    second = sampled_derivative(y, 0.1), cumulative_integral(y, 0.1)
    assert calls == []
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    for table in (finitediff._stencil_table(7), finitediff._interval_table(4)):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def test_fd_weights_with_array_x0_equals_scalar_calls():
    nodes = np.array([0.0, 0.3, 1.1, 1.7, 2.0, 3.2])
    x0 = np.array([[0.0, 0.5], [1.7, 3.3]])
    w = fd_weights(nodes, x0, 3)
    assert w.shape == (6, 4, 2, 2)
    for idx in np.ndindex(x0.shape):
        assert np.array_equal(w[(slice(None), slice(None)) + idx], fd_weights(nodes, x0[idx], 3))


def test_richardson_exact_on_quadratic_error_model():
    a, b, h = 1.25, -3.5, 0.5
    # values exactly representable, so the blend recovers a to the last bit
    assert richardson(a + b * h**2, a + b * (h / 2) ** 2) == a
    coarse = np.array([a + b * h**2, 2 * a + b * h**2])
    fine = np.array([a + b * (h / 2) ** 2, 2 * a + b * (h / 2) ** 2])
    assert np.array_equal(richardson(coarse, fine), [a, 2 * a])


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_check_step_rejects_non_positive_and_non_finite(h):
    with pytest.raises(StepSizeError, match="finite positive number"):
        check_step(h)


def test_check_step_returns_float():
    assert check_step(np.float64(1e-3)) == 1e-3


def at(g):
    """A tanh-sinh integrand that only needs the node end + offset."""
    return lambda end, offset: g(end + offset)


def test_tanh_sinh_interval_arrays():
    a = np.array([[0.0, 1.0, -2.0], [0.5, 3.0, 3.0]])
    b = np.array([[1.0, 2.0, 1.0], [0.5, 1.0, 3.0]])  # a zero-length and a reversed interval
    got = tanh_sinh(at(lambda x: x * x), a, b)
    assert got.shape == (2, 3)
    assert np.allclose(got, (b**3 - a**3) / 3.0, rtol=1e-14, atol=1e-15)
    assert got[1, 0] == 0.0 and got[1, 2] == 0.0
    assert isinstance(tanh_sinh(at(np.exp), 0.0, 1.0), float)


def test_tanh_sinh_one_call_per_level_on_a_node_grid():
    calls = []

    def f(end, offset):
        calls.append(end.shape)
        assert offset.shape == end.shape
        return np.cos(end + offset)

    lo = np.linspace(0.0, 1.0, 47)
    got = tanh_sinh(f, lo, lo + 0.1)
    assert np.allclose(got, np.sin(lo + 0.1) - np.sin(lo), rtol=1e-14, atol=1e-16)
    assert len(calls) <= finitediff.TANH_SINH_MAX_LEVEL + 1
    assert calls[0][0] == 47 and all(len(c) == 2 for c in calls)


@pytest.mark.parametrize(
    "g,a,b,exact",
    [
        (np.sqrt, 0.0, 1.0, 2.0 / 3.0),  # square-root branch point at a
        (lambda x: np.sqrt(1.0 - x * x), 0.0, 1.0, np.pi / 4.0),  # ... and at b
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),  # integrable singularity
        (np.log, 0.0, 1.0, -1.0),
    ],
)
def test_tanh_sinh_endpoint_branches(g, a, b, exact):
    assert tanh_sinh(at(g), a, b) == pytest.approx(exact, rel=1e-14)


def test_tanh_sinh_end_and_offset_keep_digits_next_to_a_branch_point():
    # x^2 - 1 = offset (2 + offset) at end = 1: exact to rounding, where
    # forming x = 1 + offset first would leave ~1e-6 of relative noise
    d = 1e-10

    def f(end, offset):
        return np.sqrt(np.maximum((end * end - 1.0) + offset * (2.0 * end + offset), 0.0))

    got = tanh_sinh(f, 1.0, 1.0 + d)
    exact = 2.0 * np.sqrt(2.0) / 3.0 * d**1.5  # to O(d) relative
    assert got == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize(
    "g,a,b,match",
    [
        (lambda x: 1.0 / x, 0.0, 1.0, "not negligible at the ends"),  # non-integrable at a
        (lambda x: 1.0 / (1.0 - x), 0.0, 1.0, "not finite"),  # the nodes round onto b
        (lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0, "not converged"),  # a jump
        (lambda x: np.full_like(x, np.nan), 0.0, 1.0, "not finite"),
    ],
)
def test_tanh_sinh_raises_instead_of_returning(g, a, b, match):
    with np.errstate(divide="ignore"), pytest.raises(QuadratureError, match=match):
        tanh_sinh(at(g), a, b)
