"""The paper's facts over wide stretches of the domain the command line
accepts, not only the benchmark-like ranges of the other property tests.

A constant-curvature pair off the 9:1 ratio has the quartic
(kappa - 9 lambda)(9 kappa - lambda)(kappa - lambda)^4 (1 + 2 z + 2 z^2)^2,
whose two double roots carry the tag [2,2]; at exactly 9:1 it vanishes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rolling_twistor.cartan_invariants import quartic_killing_case, root_type
from rolling_twistor.errors import DomainError
from rolling_twistor.surfaces import Hyperbolic, Plane, Sphere

PROPERTY = settings(derandomize=True, max_examples=400, deadline=None)

# twelve decades of radius: curvatures from 1e-12 to 1e12
RADII = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


@st.composite
def constant_pairs(draw):
    """A sphere or hyperbolic s1, at a chart point across its profile range,
    rolling on a sphere, a hyperbolic plane or the plane; the second radius
    is log-uniform, or three times or a third of the first (the 9:1 ratio
    as rounding leaves it)."""
    family = draw(st.sampled_from((Sphere, Hyperbolic)))
    s1 = family(draw(RADII))
    lo, hi = s1.profile_range()
    point = s1.chart_point(draw(st.floats(lo, hi)))
    radius = draw(RADII | st.sampled_from((3.0 * s1.radius, s1.radius / 3.0)))
    s2 = draw(st.sampled_from((Sphere(radius), Hyperbolic(radius), Plane())))
    return s1, point, s2


@PROPERTY
@given(constant_pairs())
def test_constant_pairs_are_double_double_or_exactly_nine_to_one(pair):
    s1, point, s2 = pair
    lo, hi = s2.profile_range()
    lam = s2.frame_data(s2.chart_point((lo + hi) / 2.0)).kappa  # as the command line reads it
    jet = s1.jet(point)
    try:
        quartic = quartic_killing_case(jet, lam)
    except DomainError:  # an integrable pair, or a quartic beyond the float range
        return
    nine_to_one = (jet.kappa - 9.0 * lam) * (9.0 * jet.kappa - lam) == 0.0
    assert root_type(quartic) == ("zero" if nine_to_one else "[2,2]")
