"""One pass per grid: stacked surface jets, the stacked quartic, the stacked
root classifier and `g2_check`, each against the same computation done one
point at a time."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from references import g2_check_by_rows

from rolling_twistor import cartan_invariants
from rolling_twistor.cartan_invariants import (
    CartanQuartic,
    g2_check,
    quartic_killing_case,
    root_type,
    root_types,
)
from rolling_twistor.errors import DomainError
from rolling_twistor.surfaces import (
    CustomRevolution,
    G2Family,
    Hyperbolic,
    Plane,
    RevolutionProfile,
    Sphere,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def stack(points):
    return tuple(np.array(c, dtype=float) for c in zip(*points))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# -- surfaces ---------------------------------------------------------------


@st.composite
def surfaces(draw):
    """A catalog family, revolution-type most often, possibly a homothetic copy."""
    alpha = _floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-3)
    surface = draw(st.one_of(
        st.builds(RevolutionProfile, alpha, _floats(-5.0, 5.0)),
        st.builds(G2Family, st.sampled_from((-1, 0, 1))),
        st.builds(Sphere, _floats(0.1, 10.0)),
        st.builds(Hyperbolic, _floats(0.1, 10.0)),
        st.builds(Plane, _floats(0.1, 10.0)),
    ))
    if draw(st.booleans()):
        surface = surface.scaled(draw(st.sampled_from((-1.0, 1.0))) * draw(_floats(0.2, 5.0)))
    return surface


def _valid(surface, p):
    try:
        surface.validate(p)
    except DomainError:
        return False
    return True


@PROPERTY
@given(surfaces(), st.lists(st.tuples(_floats(1e-2, 3.1), _floats(-5, 5)), min_size=1,
                            max_size=8))
def test_stacked_jet_rounds_as_each_point(surface, points):
    points = [p for p in points if _valid(surface, p)]
    assume(points)
    jet = surface.jet(stack(points))
    singles = [surface.jet(p) for p in points]
    assert np.shape(jet) == (8, len(points))
    assert bits(np.transpose(jet)) == bits(singles)


def test_custom_revolution_stack():
    surface = CustomRevolution(lambda r: r.cosh(), "cosh")
    points = [(0.5, 0.0), (1.1, 0.2), (2.0, -1.0)]
    jet = surface.jet(stack(points))
    assert bits(np.transpose(jet)) == bits([surface.jet(p) for p in points])


@pytest.mark.parametrize(
    "surface, points, index",
    [
        (G2Family(-1), [(1.5, 0.0), (0.9, 0.0), (-1.0, 0.0)], 1),
        (RevolutionProfile(1.0, -1.0), [(0.5, 0.0), (2.0, 0.0), (1.0, 0.0)], 2),
        (Sphere(1.0), [(1.0, 0.0), (0.0, 0.0)], 1),
        (CustomRevolution(lambda r: r * r - 1.0), [(2.0, 0.0), (1.0, 0.0)], 1),
    ],
)
def test_stacked_jet_raises_the_first_points_error(surface, points, index):
    with pytest.raises(DomainError) as single:
        surface.jet(points[index])
    with pytest.raises(DomainError) as stacked:
        surface.jet(stack(points))
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


# -- the root classifier ----------------------------------------------------


def reference_root_type(quartic, cluster_radius=1e-6, degree_tol=1e-12):
    """The classifier written one quartic at a time with np.roots."""
    p = (quartic.poly_coefficients() if isinstance(quartic, CartanQuartic)
         else np.asarray(quartic, dtype=float))
    scale = float(np.max(np.abs(p)))
    if scale == 0.0:
        return "zero", ()
    desc = p[::-1].copy()
    lead = 0
    while lead < 4 and abs(desc[lead]) <= degree_tol * scale:
        lead += 1
    roots = np.roots(desc[lead:]) if lead < 4 else np.array([], dtype=complex)
    clusters = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            if abs(z - c[0]) <= cluster_radius * (1.0 + abs(c[0])):
                c[0] = (c[0] * c[1] + z) / (c[1] + 1)
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    mults = sorted([c[1] for c in clusters] + ([lead] if lead else []), reverse=True)
    return "[" + ",".join(map(str, mults)) + "]", tuple(mults)


def _from_roots(roots, lead):
    """Ascending coefficients of lead * prod (z - r), r real."""
    return np.polynomial.polynomial.polyfromroots(roots) * lead


@st.composite
def quartics(draw):
    """Quartics as five ascending coefficients: generic, constant-curvature
    squares, repeated roots, dropped degrees and zero constant terms."""
    kind = draw(st.sampled_from(("generic", "square", "repeated", "drop", "zero-const",
                                 "zero")))
    scale = draw(_floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-6))
    if kind == "square":  # factor * (1 + 2 z + 2 z^2)^2
        return list(scale * np.array([1.0, 4.0, 8.0, 8.0, 4.0]))
    if kind == "repeated":
        a, b = draw(_floats(-3, 3)), draw(_floats(-3, 3))
        roots = draw(st.sampled_from(([a, a, b, b], [a, a, a, b], [a, a, a, a], [a, b, b, b])))
        return list(_from_roots(roots, scale))
    if kind == "zero":
        return [0.0] * 5
    coeffs = [scale * draw(_floats(-1.0, 1.0)) for _ in range(5)]
    if kind == "drop":  # the leading one or two coefficients vanish or nearly vanish
        for k in range(draw(st.integers(1, 4))):
            coeffs[4 - k] = draw(st.sampled_from((0.0, 1e-15 * scale)))
    if kind == "zero-const":
        for k in range(draw(st.integers(1, 3))):
            coeffs[k] = 0.0
    assume(any(coeffs))
    return coeffs


@PROPERTY
@given(st.lists(quartics(), min_size=1, max_size=12))
def test_stacked_classifier_matches_np_roots(rows):
    kinds = root_types(rows)
    assert len(kinds) == len(rows)
    for q, kind in zip(rows, kinds):
        tag, mults = reference_root_type(q)
        assert kind.tag == tag
        assert kind.multiplicities == mults
        assert root_type(q) == kind


@pytest.mark.parametrize(
    "coeffs, tag",
    [
        ([1.0, 4.0, 8.0, 8.0, 4.0], "[2,2]"),  # (1 + 2z + 2z^2)^2
        ([1.0, 2.0, 3.0, 0.0, 0.0], "[2,1,1]"),  # degree drop by two
        ([0.0, 1.0, -2.0, 3.0, 1.0], "[1,1,1,1]"),  # zero constant term
        ([0.0, 0.0, 0.0, 0.0, 5.0], "[4]"),  # z^4
        ([7.0, 0.0, 0.0, 0.0, 0.0], "[4]"),  # all four roots at infinity
        ([0.0] * 5, "zero"),
    ],
)
def test_classifier_examples(coeffs, tag):
    assert root_types([coeffs])[0].tag == tag == reference_root_type(coeffs)[0]


def test_each_distinct_quartic_is_classified_once(monkeypatch):
    calls = []
    classify = cartan_invariants._classify

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(cartan_invariants, "_classify", counted)
    square = [1.0, 4.0, 8.0, 8.0, 4.0]
    simple = [0.0, 1.0, -2.0, 3.0, 1.0]
    signed = [-0.0, 1.0, -2.0, 3.0, 1.0]  # the same quartic with -0.0
    kinds = root_types([square, simple, square, signed, square, simple])
    assert len(calls) == 3  # square, simple and signed: -0.0 keys apart from 0.0
    assert kinds[0] is kinds[2] is kinds[4]
    assert kinds[1] is kinds[5]
    assert kinds[3].tag == kinds[1].tag == reference_root_type(simple)[0]
    assert kinds[0].tag == "[2,2]"


# -- the stacked quartic ------------------------------------------------------


def outcome(check, *args):
    try:
        return check(*args)
    except DomainError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(surfaces(), st.lists(_floats(1e-2, 3.1), min_size=1, max_size=10), _floats(-2.0, 2.0))
def test_stacked_quartic_is_each_points_quartic(s1, rhos, lam):
    grid = [p for p in (s1.chart_point(t) for t in rhos) if _valid(s1, p)]
    singles = [(p, outcome(quartic_killing_case, s1.jet(p), lam)) for p in grid]
    singles = [(p, q) for p, q in singles if isinstance(q, CartanQuartic)]
    assume(singles)
    stacked = quartic_killing_case(s1.jet(stack([p for p, _ in singles])), lam)
    assert bits(np.array(stacked).T) == bits([q for _, q in singles])


def test_stacked_quartic_raises_the_first_points_error():
    s1 = RevolutionProfile(1e40, 0.0)  # kappa about 1e55 at rho = 5e-23
    rhos = [1.0, 5e-23, 2.0]
    for lam, first in ((1.0, 1), (0.0, 0)):  # with lam = 0 every kappa below 1e-10 is integrable
        jets = [s1.jet(s1.chart_point(t)) for t in rhos]
        want = outcome(quartic_killing_case, jets[first], lam)
        got = outcome(quartic_killing_case, s1.jet(stack([s1.chart_point(t) for t in rhos])), lam)
        assert got == want
        assert isinstance(got, tuple)


# -- g2_check ----------------------------------------------------------------


@st.composite
def g2_grids(draw):
    """(s1, lambda, grid): grids of repeated constant-curvature rows, with an
    integrable point inside, with a point whose quartic overflows inside a
    valid chart, or of any catalog surface."""
    kind = draw(st.sampled_from(("any", "constant", "integrable", "overflow")))
    lam = draw(_floats(-2.0, 2.0))
    rhos = draw(st.lists(_floats(1e-2, 3.1), min_size=1, max_size=10))
    if kind == "constant":  # every row of a constant-curvature grid is one quartic
        s1 = draw(st.one_of(*(st.builds(cls, _floats(0.1, 10.0))
                              for cls in (Sphere, Hyperbolic, Plane))))
        rhos = rhos + rhos[: draw(st.integers(0, len(rhos)))]
    elif kind == "overflow":  # kappa about 1e55 at rho near 5e-23, tiny elsewhere
        s1 = RevolutionProfile(draw(_floats(1e39, 1e41)), 0.0)
        rhos = [t for t in rhos if t > 0.5] or [1.0]
        rhos.insert(draw(st.integers(0, len(rhos))), draw(_floats(3e-23, 1e-22)))
        lam = draw(st.sampled_from((1.0, -0.5, 0.0)))  # 0.0: every other row is integrable
    else:
        s1 = draw(surfaces())
    grid = [s1.chart_point(t) for t in rhos]
    if kind == "integrable":
        hit = draw(st.integers(0, len(grid) - 1))
        if _valid(s1, grid[hit]):
            lam = s1.frame_data(grid[hit]).kappa
    return s1, lam, grid


def report_outcome(check, *args):
    """The error's type and text, or the report's rows, largest scaled
    coefficient and verdict as text, so -0.0 and 0.0 (and float types) differ."""
    result = outcome(check, *args)
    if isinstance(result, tuple):
        return result
    return repr(result.rows), repr(result.max_scaled), result.verdict


@PROPERTY
@given(g2_grids())
def test_g2_check_grid_equals_single_points(case):
    """The rows, the largest scaled coefficient and the verdict, or the
    error's type and text, equal those of the row-by-row reference."""
    s1, lam, grid = case
    assert report_outcome(g2_check, s1, lam, grid) == report_outcome(g2_check_by_rows, s1, lam,
                                                                      grid)


@pytest.mark.parametrize(
    "s1, lam, rhos",
    [
        (G2Family(-1), 0.0, [1.5, 2.0, 0.9, 2.5]),  # chart error at index 2
        (Sphere(1.0), 1.0, [1.0, 2.0]),  # integrable at the first point
        (RevolutionProfile(1.0, 2.0), None, [0.5, 0.7, 1.0, -1.0]),  # integrable before the chart error
    ],
)
def test_g2_check_first_error_in_grid_order(s1, lam, rhos):
    grid = [s1.chart_point(t) for t in rhos]
    if lam is None:
        lam = s1.frame_data(grid[1]).kappa
    got, want = outcome(g2_check, s1, lam, grid), outcome(g2_check_by_rows, s1, lam, grid)
    assert isinstance(want, tuple)
    assert got == want


def test_g2_check_constant_curvature_nine_to_one():
    report = g2_check(Sphere(1.0), 1.0 / 9.0, Sphere(1.0).profile_grid(7))
    assert report.is_g2
    assert {row.root_tag for row in report.rows} == {"zero"}
    assert not math.isnan(report.max_scaled)
