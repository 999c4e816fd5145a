"""Closed-form frame data (f1, f2, a2, kappa) against the full jet and the
metric, and which callers read which."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rolling_twistor import conformal_oracle, distribution5, surfaces
from rolling_twistor.distribution5 import growth_vector
from rolling_twistor.errors import DomainError
from rolling_twistor.rolling import ControlCurve, integrate, no_twist_residual
from rolling_twistor.surfaces import (
    CustomRevolution,
    FrameData,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
)
from rolling_twistor.taylor import TaylorJet

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _plane():
    point = st.tuples(_floats(-5, 5), _floats(-5, 5))
    return st.tuples(st.builds(Plane, _floats(0.1, 10.0)), point)


def _polar(cls, hi):
    point = st.tuples(_floats(1e-3, hi), _floats(-5, 5))
    return st.tuples(st.builds(cls, _floats(0.1, 10.0)), point)


def _profile():
    alpha = _floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-3)
    return st.tuples(
        st.builds(RevolutionProfile, alpha, _floats(-5.0, 5.0)),
        st.tuples(_floats(1e-2, 5.0), _floats(-5, 5)),
    )


def _g2():
    return st.tuples(
        st.builds(G2Family, st.sampled_from((-1, 0, 1))),
        st.tuples(_floats(1e-2, 5.0), _floats(-5, 5)),
    )


@st.composite
def surface_points(draw):
    """A catalog surface, possibly a homothetic copy, and a point of its chart."""
    polar = (_polar(Sphere, math.pi - 1e-3), _polar(Hyperbolic, 5.0))
    surface, p = draw(st.one_of(_plane(), *polar, _profile(), _g2()))
    if draw(st.booleans()):
        surface = surface.scaled(draw(st.sampled_from((-1.0, 1.0))) * draw(_floats(0.2, 5.0)))
    try:
        surface.validate(p)
    except DomainError:
        assume(False)
    return surface, p


@PROPERTY
@given(surface_points())
def test_frame_data_equals_leading_jet_fields(case):
    surface, p = case
    jet = surface.jet(p)
    fd = surface.frame_data(p)
    assert isinstance(fd, FrameData)
    assert bits(fd) == bits(jet[:4])


def _metric(surface, t):
    """(E, G) of the family's metric E dt^2 + G dpsi^2 at profile coordinate
    t, as order-1 jets in t built from the family's parameters."""
    x = TaylorJet.variable(float(t), 1)
    if isinstance(surface, Plane):
        c = TaylorJet.constant(surface.scale**2, 1)
        return c, c
    if isinstance(surface, (Sphere, Hyperbolic)):
        r = surface.radius
        w = x.sin() if isinstance(surface, Sphere) else x.sinh()
        return TaylorJet.constant(r * r, 1), (r * w) ** 2
    h = surface.beta + surface.alpha * x * x
    return h * h, x * x


@PROPERTY
@given(surface_points())
def test_frame_data_is_the_orthonormal_frame_of_the_metric(case):
    # (1/f1)^2 dt^2 + (1/f2)^2 dpsi^2 is the metric, and [e1, e2] = a2 e2
    # with a2 = f1 (d f2/dt) / f2, where f2 = 1/sqrt(G)
    surface, p = case
    f1, f2, a2, _ = surface.frame_data(p)
    E, G = _metric(surface, p[0])
    assert (1.0 / f1) ** 2 == pytest.approx(E.value, rel=1e-12)
    assert (1.0 / f2) ** 2 == pytest.approx(G.value, rel=1e-12)
    df2 = (1.0 / G.sqrt()).derivative().value
    assert a2 == pytest.approx(f1 * df2 / f2, rel=1e-9, abs=1e-12 * abs(f1))


@pytest.mark.parametrize(
    "surface, p",
    [
        (Sphere(1.0), (0.0, 0.0)),
        (Sphere(2.0).scaled(0.5), (math.pi, 0.3)),
        (Hyperbolic(1.0), (0.0, 0.0)),
        (G2Family(1), (0.0, 0.0)),
        (G2Family(0), (-0.5, 0.0)),
        (G2Family(-1), (0.9, 0.0)),
        (G2Family(-1), (1.0, 0.0)),
        (RevolutionProfile(1.0, -1.0), (1.0, 0.0)),
        (RevolutionProfile(1.0, -1.0).scaled(2.0), (2.0, 0.0)),
    ],
)
def test_frame_data_raises_the_jets_domain_error(surface, p):
    with pytest.raises(DomainError) as from_jet:
        surface.jet(p)
    with pytest.raises(DomainError) as from_frame_data:
        surface.frame_data(p)
    assert type(from_frame_data.value) is type(from_jet.value)
    assert str(from_frame_data.value) == str(from_jet.value)


STACK_SURFACES = [
    (Plane(), (-3.0, 3.0)),
    (Plane(2.5), (-3.0, 3.0)),
    (Sphere(0.7), (1e-3, math.pi - 1e-3)),
    (Hyperbolic(1.3), (1e-3, 5.0)),
    (G2Family(-1), (1.0 + 1e-6, 4.0)),
    (G2Family(0), (1e-3, 4.0)),
    (G2Family(1), (1e-3, 4.0)),
    (RevolutionProfile(-0.7, 4.0), (1e-2, 2.0)),
    (RevolutionProfile(1.0, -5.0).scaled(0.3), (0.1, 3.0)),
    (CustomRevolution(lambda r: 1.0 + 0.3 * r * r * r, "cubic"), (1e-2, 3.0)),
]


@pytest.mark.parametrize("surface, span", STACK_SURFACES, ids=lambda s: getattr(s, "kind", ""))
def test_stacked_frame_data_equals_each_point(surface, span):
    rng = np.random.default_rng(17)
    t = rng.uniform(*span, 64)
    psi = rng.uniform(-5.0, 5.0, 64)
    psi[:2] = 0.0, -0.0
    stacked = surface.frame_data((t, psi))
    each = np.array([tuple(surface.frame_data((a, b))) for a, b in zip(t.tolist(), psi.tolist())])
    assert isinstance(stacked, FrameData)
    got = np.array(stacked)
    assert got.shape == (4, 64)
    assert np.array_equal(got, each.T)
    assert np.array_equal(np.signbit(got), np.signbit(each.T))


@pytest.mark.parametrize(
    "surface, t",
    [
        (Sphere(1.0), [0.5, math.pi, 0.0]),
        (Hyperbolic(1.0), [0.5, 0.0, -1.0]),
        (G2Family(-1), [1.5, 0.9, 0.5]),
        (RevolutionProfile(1.0, -1.0), [1.5, 1.0, -0.5]),
        (RevolutionProfile(1.0, -1.0), [1.5, -0.5, 1.0]),
        (CustomRevolution(lambda r: r - 1.0, "shifted"), [1.5, 1.0, -1.0]),
    ],
)
def test_stacked_frame_data_raises_the_first_failing_points_error(surface, t):
    first_bad = next(x for x in t if _raises(surface, x))
    with pytest.raises(DomainError) as on_its_own:
        surface.frame_data((first_bad, 0.0))
    with pytest.raises(DomainError) as stacked:
        surface.frame_data((np.array(t), np.zeros(len(t))))
    assert type(stacked.value) is type(on_its_own.value)
    assert str(stacked.value) == str(on_its_own.value)


def _next_to(*xs):
    """Each x and the floats one step either side of it."""
    return [y for x in xs for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


# the ends of the polar charts: theta = 1e-9, pi - 1e-9, where sinh overflows,
# and where 2 sinh(theta) overflows
POLAR_EDGES = _next_to(1e-9, math.pi - 1e-9, 710.4758600739439, math.asinh(8.98846567431158e307))


@st.composite
def polar_stacks(draw):
    """A sphere or hyperbolic plane (radius 2 or drawn) and a stack of polar
    angles, some next to the chart's ends, with psi = 0.0 or -0.0 among the
    other coordinates."""
    cls = draw(st.sampled_from((Sphere, Hyperbolic)))
    surface = cls(draw(st.one_of(st.just(2.0), _floats(0.1, 10.0))))
    inside = _floats(1e-3, 3.1)  # in both charts
    theta = st.one_of(inside, inside, st.sampled_from(POLAR_EDGES + [0.0, -0.0]),
                      _floats(-0.5, 712.0))
    t = draw(st.lists(theta, min_size=1, max_size=6))
    psi = draw(st.lists(st.one_of(st.sampled_from((0.0, -0.0)), _floats(-5, 5)),
                        min_size=len(t), max_size=len(t)))
    return surface, t, psi


def _on_each_point(method, t, psi):
    """method at each point (t_i, psi_i) in order, and the first error raised."""
    values = []
    for q in zip(t, psi):
        try:
            values.append(method(q))
        except (DomainError, ArithmeticError) as exc:
            return values, exc
    return values, None


@PROPERTY
@given(polar_stacks())
def test_stacked_polar_frames_and_jets_equal_each_point(case):
    # bit for bit, -0.0 included, or the first failing point's error
    surface, t, psi = case
    stack = (np.array(t), np.array(psi))
    for method in (surface.frame_data, surface.jet):
        each, error = _on_each_point(method, t, psi)
        if error is None:
            stacked = method(stack)
            assert bits(np.array(stacked).T) == bits(each)
        else:
            with pytest.raises(type(error)) as info:
                method(stack)
            assert type(info.value) is type(error)
            assert str(info.value) == str(error)


@PROPERTY
@given(st.one_of(_profile(), _g2()), _floats(-3.0, 3.0))
def test_revolution_inside_test_never_admits_a_point_validate_rejects(case, rho):
    # the stacked pre-check may send a valid point to `validate`, never the
    # reverse; rho near the zeros of h comes from the drawn points
    surface, p = case
    for t in (rho, p[0], -p[0], math.sqrt(abs(surface.beta / surface.alpha))):
        if _raises(surface, t):
            assert not surface._inside(np.array([t]))[0]


def _raises(surface, t):
    try:
        surface.frame_data((t, 0.0))
    except DomainError:
        return True
    return False


def _surface_calls(monkeypatch, method):
    """Surfaces whose `method` is called, one entry per call."""
    calls = []
    for cls in (surfaces.Surface, Plane, Sphere, Hyperbolic, surfaces._RevolutionBase):
        if method not in vars(cls):
            continue
        original = vars(cls)[method]

        def spy(self, p, _original=original):
            calls.append(self)
            return _original(self, p)

        monkeypatch.setattr(cls, method, spy)
    return calls


@pytest.fixture
def jet_calls(monkeypatch):
    return _surface_calls(monkeypatch, "jet")


@pytest.fixture
def frame_data_calls(monkeypatch):
    return _surface_calls(monkeypatch, "frame_data")


S1 = G2Family(1)
S2 = Sphere(3.0)


def test_growth_vector_reads_one_jet_per_surface_for_x4_and_x5(jet_calls, monkeypatch):
    brackets = []
    original = distribution5.lie_bracket

    def spy(*args):
        brackets.append(args)
        return original(*args)

    monkeypatch.setattr(distribution5, "lie_bracket", spy)
    assert growth_vector(S1, S2, np.array([0.8, 0.1, 1.2, 0.2, 0.3])).ranks == (2, 3, 5)
    assert jet_calls == [S1, S2]
    assert brackets == []


def test_growth_point_reads_one_jet_and_no_frame_data_per_surface(jet_calls, frame_data_calls):
    # two revolution surfaces, whose jets carry the frame data X1..X3 read
    s2 = RevolutionProfile(2.0, 1.0)
    assert growth_vector(S1, s2, np.array([0.8, 0.1, 1.2, 0.2, 0.3])).ranks == (2, 3, 5)
    assert frame_data_calls == []
    assert jet_calls == [S1, s2]


def test_rk4_step_reads_one_frame_per_surface_and_stage(jet_calls, frame_data_calls):
    start = np.array([0.8, 0.1, 1.2, 0.2, 0.3])
    traj = integrate(S1, S2, start, ControlCurve.constant(0.7, 0.4, t_end=0.01), 0.01, 0.01)
    assert len(traj) == 2  # one step
    assert frame_data_calls == [S1, S2] * 4
    assert jet_calls == []


def test_diagnostics_read_one_stacked_frame_per_surface(frame_data_calls):
    # two revolution surfaces, whose stacked frame data is one arithmetic pass
    s2 = RevolutionProfile(2.0, 1.0)
    start = np.array([0.8, 0.1, 1.2, 0.2, 0.3])
    traj = integrate(S1, s2, start, ControlCurve.constant(0.7, 0.4, t_end=0.05), 1e-2, 0.05)
    frame_data_calls.clear()
    assert no_twist_residual(traj, S1, s2) < 1e-6
    assert frame_data_calls == [S1, s2]


def test_rolling_reads_no_jet(jet_calls):
    start = np.array([0.8, 0.1, 1.2, 0.2, 0.3])
    traj = integrate(S1, S2, start, ControlCurve.constant(0.7, 0.4, t_end=0.05), 1e-3, 0.05)
    assert no_twist_residual(traj, S1, S2) < 1e-8
    assert jet_calls == []


THREE_POINTS = np.array([[0.8, 0.1, 0.2, -0.3, 0.3], [1.1, 0.0, 0.7, 0.2, 1.0],
                         [1.4, -0.2, 1.2, 0.0, 2.5]])


def test_oracle_builds_one_jet_per_theta_coframe(jet_calls, monkeypatch):
    thetas = []
    original = conformal_oracle.theta_coframe

    def spy(*args, **kwargs):
        thetas.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(conformal_oracle, "theta_coframe", spy)
    # one point, then three: the calls do not grow with the number of points
    for p, m in ((THREE_POINTS[0], 1), (THREE_POINTS, 3)):
        thetas.clear()
        jet_calls.clear()
        conformal_oracle.cartan_from_weyl(S1, Plane(), p)
        # one stacked call on all their stencil rows, the points among them
        assert [np.shape(args[2]) for args in thetas] == [(38 * m, 5)]
        assert jet_calls == [S1]


def test_oracle_reads_a_constant_curvature_first_surface_once(jet_calls, frame_data_calls):
    # one jet per stacked call, as for any first surface; the plane's jet
    # reads its frame data once, and nothing else does
    s1 = Plane()
    for p in (THREE_POINTS[0], THREE_POINTS):
        jet_calls.clear()
        frame_data_calls.clear()
        conformal_oracle.cartan_from_weyl(s1, Sphere(1.0), p)
        assert [s for s in jet_calls if s is s1] == [s1]  # on the stencil rows
        assert [s for s in frame_data_calls if s is s1] == [s1]
