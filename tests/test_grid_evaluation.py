"""One pass per grid: the chart stack of `profile_grid`, stacked surface
jets, the stacked quartic, the stacked root classifier and `g2_check`, each
against the same computation done one point at a time, and the replay rule
`first_failing_row` of a stack that fails."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from references import classify_roots, g2_check_by_rows

from rolling_twistor import cartan_invariants
from rolling_twistor.cartan_invariants import (
    CartanQuartic,
    g2_check,
    quartic_killing_case,
    root_type,
)
from rolling_twistor.errors import DomainError, IntegrablePointError, first_failing_row
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


@pytest.mark.parametrize("surface", [G2Family(-1), Sphere(2.0), Hyperbolic(0.5), Plane(3.0),
                                     RevolutionProfile(1.0, -5.0)])
@pytest.mark.parametrize("n, lo, hi", [(1, None, None), (7, None, None), (5, 0.25, 1.75),
                                       (4, 2.0, -1.0)])
def test_profile_grid_is_the_stack_of_its_chart_points(surface, n, lo, hi):
    r0, r1 = surface.profile_range()
    t = np.linspace(r0 if lo is None else lo, r1 if hi is None else hi, n)
    grid = surface.profile_grid(n, lo, hi)
    assert len(grid) == 2
    assert bits(grid) == bits(stack([surface.chart_point(x) for x in t]))
    assert bits(grid[1]) == bits([0.0] * n)  # +0.0, not -0.0


# -- the replay rule ----------------------------------------------------------


class Rows:
    """fn for `first_failing_row`: records the rows of each call, raises
    `stack_error` on a stack of more than one row, and on a row named in
    `failing` raises that row's error type."""

    def __init__(self, failing, stack_error=ZeroDivisionError):
        self.failing, self.stack_error, self.calls = failing, stack_error, []

    def __call__(self, x, y):
        self.calls.append(x.tolist())
        if len(x) > 1:
            raise self.stack_error("the stack fails")
        if x[0] in self.failing:
            raise self.failing[x[0]](f"row {x[0]}")
        return x + y


def test_first_failing_row_raises_the_first_failing_rows_error():
    fn = Rows({2.0: DomainError, 4.0: ValueError})
    x = np.arange(6.0)
    with pytest.raises(DomainError, match=r"^row 2.0$"):
        first_failing_row(fn, x, -x)
    assert fn.calls == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0], [1.0], [2.0]]


@pytest.mark.parametrize("stack_error", [IntegrablePointError, OverflowError, ValueError])
def test_first_failing_row_raises_the_stacks_error_when_no_row_fails(stack_error):
    fn = Rows({}, stack_error)
    x = np.arange(3.0)
    with pytest.raises(stack_error, match="the stack fails"):
        first_failing_row(fn, x, x)
    assert fn.calls == [[0.0, 1.0, 2.0], [0.0], [1.0], [2.0]]


@pytest.mark.parametrize("error", [DomainError, ValueError, OverflowError])
def test_first_failing_row_does_not_replay_one_row(error):
    fn = Rows({0.0: error})
    with pytest.raises(error):
        first_failing_row(fn, np.zeros(1), np.zeros(1))
    assert fn.calls == [[0.0]]


def test_first_failing_row_does_not_replay_other_errors():
    fn = Rows({}, KeyError)  # not a package, arithmetic or value error
    with pytest.raises(KeyError):
        first_failing_row(fn, np.arange(3.0), np.arange(3.0))
    assert fn.calls == [[0.0, 1.0, 2.0]]


def test_first_failing_row_returns_fn_of_the_stack_without_warnings():
    x = np.array([1.0, 0.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = first_failing_row(lambda a, b: (a / b, a * 10.0), x, np.zeros(3))
    np.testing.assert_array_equal(got[0], [np.inf, np.nan, np.inf])
    np.testing.assert_array_equal(got[1], [10.0, 0.0, np.inf])


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


def tags_and_mults(mults):
    """(tag, multiplicities largest first) of each row of `_clusters`' mults."""
    tags = cartan_invariants._TAGS[cartan_invariants._tag_keys(mults)]
    return [(tag, tuple(sorted(filter(None, row), reverse=True)))
            for tag, row in zip(tags.tolist(), mults.astype(int).tolist())]


def classified_tags(rows):
    """`tags_and_mults` of each row of a stack, from one stacked `_classified`
    pass."""
    inverse, mults = cartan_invariants._classified(rows)
    distinct = tags_and_mults(mults)
    return [distinct[i] for i in inverse.tolist()]


@PROPERTY
@given(st.lists(quartics(), min_size=1, max_size=12))
def test_stacked_classifier_matches_np_roots(rows):
    kinds = classified_tags(rows)
    assert len(kinds) == len(rows)
    for q, kind in zip(rows, kinds):
        assert kind == reference_root_type(q)
        assert root_type(q) == kind[0]


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
    assert root_type(coeffs) == tag == reference_root_type(coeffs)[0]


def test_each_distinct_quartic_is_classified_once(monkeypatch):
    solved = []  # the companion matrices passed to np.linalg.eigvals
    eigvals = np.linalg.eigvals

    def counted(a):
        solved.extend(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    square = [1.0, 4.0, 8.0, 8.0, 4.0]
    simple = [0.0, 1.0, -2.0, 3.0, 1.0]
    signed = [-0.0, 1.0, -2.0, 3.0, 1.0]  # the same quartic with -0.0
    kinds = classified_tags([square, simple, square, signed, square, simple])
    assert len(solved) == 3  # square, simple and signed: -0.0 keys apart from 0.0
    assert [tag for tag, _ in kinds] == ["[2,2]", "[1,1,1,1]"] * 3
    assert kinds[3] == kinds[1] == reference_root_type(simple)


def test_a_grid_that_vanishes_is_not_classified(monkeypatch):
    monkeypatch.setattr(cartan_invariants, "_classified", None)  # any call fails
    s1 = G2Family(1)
    report = g2_check(s1, 0.0, s1.profile_grid(5))
    assert report.is_g2
    assert report.tags == ["zero"] * 5


@st.composite
def root_rows(draw):
    """One row of the cluster step: 4 - inf finite roots among chains
    spaced 0.9 or 1.1 cluster radii apart, pairs exactly one radius apart,
    exact ties and ties of signed zeros, then inf roots at infinity.  In a
    row of real roots they are floats, as numpy's real eigenvalues are,
    beside roots at 0 that are complex, as the split-off ones are."""
    inf = draw(st.integers(0, 4))
    real = draw(st.booleans())
    parts = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5)) | _floats(-3.0, 3.0)
    radius = cartan_invariants.ROOT_CLUSTER_RADIUS
    roots = []

    def put(w):
        roots.append(w.real if real else w)

    while len(roots) < 4 - inf:
        z = complex(draw(parts), 0.0 if real else draw(parts))
        put(z)
        kind = draw(st.sampled_from(("chain", "edge", "tie", "signed", "zero", "single")))
        if kind == "tie":
            put(z)
        elif kind == "signed":  # equal as a sort key, apart in its bits
            put(complex(-z.real if z.real == 0.0 else z.real, -z.imag if z.imag == 0.0 else z.imag))
        elif kind == "zero":
            roots.append(0j)
        elif kind == "edge":  # |w - z| is the radius of the cluster of z
            put(z + radius * (1.0 + abs(z)))
        elif kind == "chain":
            step = complex(*draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                                                   (0.6, 0.8)))))
            for _ in range(draw(st.integers(1, 3))):
                z = z + step * draw(st.sampled_from((0.9, 1.1))) * radius * (1.0 + abs(z))
                put(z)
    return draw(st.permutations(roots[: 4 - inf])), inf


@PROPERTY
@given(st.lists(root_rows(), min_size=1, max_size=8))
def test_cluster_step_matches_the_reference(rows):
    roots = np.zeros((len(rows), 4), dtype=complex)
    for i, (finite, _) in enumerate(rows):
        roots[i, : len(finite)] = finite
    n_finite = np.array([4 - inf for _, inf in rows])
    got = tags_and_mults(cartan_invariants._clusters(roots, n_finite))
    assert got == [classify_roots(finite, inf) for finite, inf in rows]


@st.composite
def quartic_stacks(draw):
    """Rows of `quartics`, a row of every (dropped, split) pair of degree
    drop and split-off zeros, and duplicates, some with -0.0 for 0.0."""
    rows = draw(st.lists(quartics(), min_size=1, max_size=8))
    for lead in range(5):
        for trailing in range(5 - lead):
            desc = [draw(_floats(1e-3, 2.0) | _floats(-2.0, -1e-3)) for _ in range(5)]
            desc[:lead] = [draw(st.sampled_from((0.0, -0.0, 1e-15))) for _ in range(lead)]
            desc[5 - trailing:] = [0.0] * trailing
            rows.append(desc[::-1])
    for row in draw(st.lists(st.sampled_from(rows), max_size=6)):
        rows.append([-0.0 if x == 0.0 and draw(st.booleans()) else x for x in row])
    return draw(st.permutations(rows))


@PROPERTY
@given(quartic_stacks())
def test_stacked_tags_match_the_per_row_reference(rows):
    assert classified_tags(rows) == [reference_root_type(q) for q in rows]


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
    points = [s1.chart_point(t) for t in rhos]
    if kind == "integrable":
        hit = draw(st.integers(0, len(points) - 1))
        if _valid(s1, points[hit]):
            lam = s1.frame_data(points[hit]).kappa
    return s1, lam, stack(points)


def report_outcome(check, *args):
    """The error's type and text, or the report: each column's bits (so -0.0
    and 0.0 differ, and so do column shapes), the tags and the largest scaled
    coefficient as text (so float types differ too), and the verdict."""
    result = outcome(check, *args)
    if isinstance(result, tuple):
        return result
    columns = (*result.points, result.kappa, result.quartics, result.scaled)
    return [bits(c) for c in columns], repr(result.tags), repr(result.max_scaled), result.verdict


@PROPERTY
@given(g2_grids())
def test_g2_check_grid_equals_single_points(case):
    """The report's columns, the largest scaled coefficient and the verdict,
    or the error's type and text, equal those of the row-by-row reference."""
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
    grid = stack([s1.chart_point(t) for t in rhos])
    if lam is None:
        lam = s1.frame_data(s1.chart_point(rhos[1])).kappa
    got, want = outcome(g2_check, s1, lam, grid), outcome(g2_check_by_rows, s1, lam, grid)
    assert isinstance(want, tuple)
    assert got == want


def test_g2_check_constant_curvature_nine_to_one():
    report = g2_check(Sphere(1.0), 1.0 / 9.0, Sphere(1.0).profile_grid(7))
    assert report.is_g2
    assert report.tags == ["zero"] * 7
    assert not math.isnan(report.max_scaled)
