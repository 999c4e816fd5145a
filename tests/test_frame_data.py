"""Closed-form frame data (a1, a2, kappa) against the full jet, and which
callers read which."""

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
    FrameData,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
)

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


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
        st.builds(RevolutionProfile, alpha, _floats(-5.0, 5.0), _floats(-1.0, 1.0)),
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
    assert fd == (jet.a1, jet.a2, jet.kappa)


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


@pytest.fixture
def jet_calls(monkeypatch):
    """Surfaces whose `jet` is called, one entry per call."""
    calls = []
    for cls in (Plane, Sphere, Hyperbolic, surfaces._RevolutionBase):
        original = cls.__dict__["jet"]

        def spy(self, p, _original=original):
            calls.append(self)
            return _original(self, p)

        monkeypatch.setattr(cls, "jet", spy)
    return calls


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
    assert jet_calls == [S1, S2, S1, S2]
    assert brackets == []


def test_rolling_reads_no_jet(jet_calls):
    start = np.array([0.8, 0.1, 1.2, 0.2, 0.3])
    traj = integrate(S1, S2, start, ControlCurve.constant(0.7, 0.4, t_end=0.05), 1e-3, 0.05)
    assert no_twist_residual(traj, S1, S2) < 1e-8
    assert jet_calls == []


def test_oracle_builds_one_jet_per_theta_coframe(jet_calls, monkeypatch):
    thetas = []
    original = conformal_oracle.theta_coframe

    def spy(*args, **kwargs):
        thetas.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(conformal_oracle, "theta_coframe", spy)
    conformal_oracle.cartan_from_weyl(S1, Plane(), np.array([0.8, 0.1, 0.2, -0.3, 0.3]))
    assert len(thetas) > 100  # the base point plus every metric evaluation
    assert len(jet_calls) == len(thetas)
    assert all(s is S1 for s in jet_calls)
