"""Floating-body tests: per-direction minimal cuts, monotonicity in both the
shrink parameter and the direction set, and discrete genericity handling.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quanthelly import floating
from quanthelly.floating import (
    MAX_BISECT,
    DirectionSet,
    check_separation,
    floating_body,
    generic_direction,
    minimal_v_halfspace,
    named_directions,
    perturbed_directions,
)
from quanthelly.geometry import (
    ConvexBody,
    GeometryError,
    Halfspace,
    body_contains_body,
    clip,
    convex_hull,
    primitive_vector,
    support,
)
from quanthelly.measures import Measure, MeasureError, certified_ge, evaluate

VOL = Measure.volume()
PERIM = Measure.perimeter()
LAT = Measure.lattice()


def box(x0, y0, x1, y1):
    return convex_hull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


UNIT = box(0, 0, 1, 1)


# ------------------------------------------------------------ direction sets

def test_axis_directions():
    d = named_directions("axis", 2)
    assert set(d.directions) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_axis_diag_directions():
    d = named_directions("axis-diag", 2)
    assert (1, 1) in d.directions and (-1, 1) in d.directions
    assert len(d.directions) == 8


def test_farey_directions_primitive_and_sorted():
    d = named_directions("farey:2", 2)
    assert all(abs(a) <= 2 and abs(b) <= 2 for a, b in d.directions)
    # primitive: no (2, 2)
    assert (2, 2) not in d.directions
    assert (1, 1) in d.directions
    assert list(d.directions) == sorted(set(d.directions))


def test_farey_grows_with_order():
    d3 = named_directions("farey:3", 2)
    d5 = named_directions("farey:5", 2)
    assert set(d3.directions) <= set(d5.directions)


def test_custom_directions_dedupe():
    d = DirectionSet.custom([(2, 0), (1, 0), (0, 3)])
    # (2,0) primitivizes onto (1,0)
    assert d.directions == ((1, 0), (0, 1))


def test_bad_scheme_name():
    with pytest.raises(GeometryError):
        named_directions("spiral:4", 2)


# ---------------------------------------------------------- minimal cuts

def test_cut_square_volume_half():
    h = minimal_v_halfspace(UNIT, (1, 0), VOL, F(1, 2))
    assert h.normal == (1, 0)
    assert h.offset == F(1, 2)


def test_cut_triangle_full_mass_keeps_everything():
    t = convex_hull([(0, 0), (1, 0), (0, 1)])
    h = minimal_v_halfspace(t, (1, 0), VOL, F(1, 2))
    # the full area is 1/2, so the cut must sit at the far vertex
    assert h.offset == 1


def test_cut_triangle_partial():
    # right triangle, area 1/2; keep 3/8 of mass in direction (1,0):
    # area left of x = c is 1/2 - (1-c)^2/2, equal to 3/8 at c = 1/2
    t = convex_hull([(0, 0), (1, 0), (0, 1)])
    h = minimal_v_halfspace(t, (1, 0), VOL, F(3, 8), tol=F(1, 2**50))
    assert abs(h.offset - F(1, 2)) < F(1, 2**20)


def test_cut_lattice_is_exact_order_statistic():
    grid = box(0, 0, 2, 2)
    h = minimal_v_halfspace(grid, (1, F(1, 7)), LAT, 5)
    assert h.normal == (7, 1)
    assert h.offset == 8
    h2 = minimal_v_halfspace(grid, (7, 1), LAT, 7)
    assert h2.offset == 14


def test_cut_lattice_non_generic_direction_rejected():
    grid = box(0, 0, 2, 2)
    with pytest.raises(MeasureError, match="re-pick"):
        minimal_v_halfspace(grid, (1, 0), LAT, 5)


def test_cut_target_exceeding_mass_rejected():
    with pytest.raises(MeasureError):
        minimal_v_halfspace(UNIT, (1, 0), VOL, 2)


def test_cut_empty_or_unbounded_rejected():
    with pytest.raises(MeasureError):
        minimal_v_halfspace(ConvexBody.empty(2), (1, 0), VOL, F(1, 2))


def test_cut_accepts_body_certified_after_refinement():
    # At the default tol the perimeter interval of K straddles lam; one
    # refinement certifies f(K) >= lam, so the cut exists.
    tri = convex_hull([(0, 0), (3, 1), (1, 4)])
    lam = evaluate(PERIM.with_tol(PERIM.tol / 2**8), tri).lo
    assert evaluate(PERIM, tri).ge(lam) is None
    assert certified_ge(PERIM, tri, lam) is True
    h = minimal_v_halfspace(tri, (1, 0), PERIM, lam)
    assert h.offset == reference_bisection(tri, (1, 0), PERIM, lam, PERIM.tol)


def reference_bisection(K, v, m, target, tol):
    """Offset of plain exact bisection, the reference for minimal cuts.

    It halves [lo, hi] until the bracket is at most tol * (hi - lo) wide, or
    MAX_BISECT times, and returns the upper end: the smallest point of that
    dyadic grid whose cut reaches the target.
    """
    v = primitive_vector(v)
    lo = -support(K, tuple(-c for c in v))
    hi = support(K, v)

    def cut_reaches(c):
        got = certified_ge(m, clip(K, Halfspace.make(v, c)), target)
        assert got is not None
        return got

    if cut_reaches(lo):
        return lo
    a, b = lo, hi
    assert cut_reaches(b)
    span = hi - lo
    steps = 0
    while b - a > tol * span:
        steps += 1
        if steps > MAX_BISECT:
            break
        mid = (a + b) / 2
        if cut_reaches(mid):
            b = mid
        else:
            a = mid
    return b


eighth = st.integers(-32, 32).map(lambda k: F(k, 8))
share = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda t: t > 0)
cut_tol = st.sampled_from([F(1, 2**40), F(1, 2**50), F(1, 3), F(1, 1000)])


def _nonzero(dim):
    return st.tuples(*[st.integers(-5, 5)] * dim).filter(any)


@given(
    st.lists(st.tuples(eighth, eighth), min_size=3, max_size=7),
    _nonzero(2),
    st.sampled_from([VOL, PERIM]),
    share,
    cut_tol,
)
# cuts near K straddle the target here, so probes are decided by refinement
@example([(0, F(-1, 8)), (F(-1, 4), 0), (F(5, 2), F(29, 8))], (0, -1), PERIM, F(1), F(1, 2**50))
def test_cut_matches_reference_bisection_2d(points, v, m, t, tol):
    body = convex_hull(points)
    if not body.is_full_dim:
        return
    target = t * evaluate(m, body).lo
    h = minimal_v_halfspace(body, v, m, target, tol=tol)
    assert h.normal == primitive_vector(v)
    assert h.offset == reference_bisection(body, v, m, target, tol)


def _box3(corner, sides):
    (x, y, z), (a, b, c) = corner, sides
    return convex_hull(
        [(x + i * a, y + j * b, z + k * c) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    )


solid3 = st.one_of(
    st.lists(st.tuples(eighth, eighth, eighth), min_size=4, max_size=4).map(convex_hull),
    st.builds(
        _box3,
        st.tuples(eighth, eighth, eighth),
        st.tuples(*[st.integers(1, 16).map(lambda k: F(k, 8))] * 3),
    ),
)


@given(solid3, _nonzero(3), share, cut_tol)
def test_cut_matches_reference_bisection_3d(body, v, t, tol):
    if not body.is_full_dim:
        return
    target = t * evaluate(VOL, body).exact_value
    h = minimal_v_halfspace(body, v, VOL, target, tol=tol)
    assert h.offset == reference_bisection(body, v, VOL, target, tol)


def test_cut_probe_count(monkeypatch):
    # Plain bisection clips 41-42 times per cut at the default tol.  The eps
    # range is that of the benchmark's floating bodies and shrink steps;
    # deeper cuts (eps = 1/100 and below) take more probes.
    calls = []
    real_clip = floating.clip

    def counting_clip(body, h):
        calls.append(h)
        return real_clip(body, h)

    monkeypatch.setattr(floating, "clip", counting_clip)
    bodies = [
        UNIT,
        convex_hull([(0, 0), (3, 1), (1, 4)]),
        convex_hull([(0, 0), (5, 0), (6, 3), (2, 5), (-1, 2)]),
        convex_hull([(F(1, 8), 0), (7, F(3, 8)), (4, 6)]),
    ]
    for body in bodies:
        for m in (VOL, PERIM):
            total = evaluate(m, body).lo
            for v in ((1, 0), (0, -1), (2, 1), (-3, 5)):
                for eps in (F(1, 16), F(1, 8), F(1, 4), F(1, 2)):
                    calls.clear()
                    minimal_v_halfspace(body, v, m, (1 - eps) * total)
                    assert 1 <= len(calls) <= 16, (body.vertices, m.kind, v, eps)


# ---------------------------------------------------------- floating body

def test_unit_square_quarter_axis():
    fb = floating_body(UNIT, VOL, F(1, 4), named_directions("axis", 2))
    assert sorted(fb.body.vertices) == [
        (F(1, 4), F(1, 4)),
        (F(1, 4), F(3, 4)),
        (F(3, 4), F(1, 4)),
        (F(3, 4), F(3, 4)),
    ]
    assert fb.delta.exact_value == F(3, 4)
    assert len(fb.cuts) == 4


def test_floating_body_inside_original():
    fb = floating_body(UNIT, VOL, F(1, 8), named_directions("farey:3", 2))
    assert body_contains_body(UNIT, fb.body)


def test_delta_monotone_in_eps():
    """Smaller eps cuts less, so delta shrinks and the body grows."""
    dirs = named_directions("axis-diag", 2)
    body = convex_hull([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 2)])
    eps_grid = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
    results = [floating_body(body, VOL, e, dirs) for e in eps_grid]
    for tighter, looser in zip(results[1:], results):
        assert body_contains_body(tighter.body, looser.body)
        assert tighter.delta.hi <= looser.delta.hi + F(1, 2**20)


def test_body_shrinks_as_directions_refine():
    """More directions mean more cuts, so the outer approximation tightens."""
    body = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
    coarse = floating_body(body, VOL, F(1, 4), named_directions("axis", 2))
    fine = floating_body(body, VOL, F(1, 4), named_directions("farey:3", 2))
    assert body_contains_body(coarse.body, fine.body)
    assert fine.delta.lo >= coarse.delta.lo - F(1, 2**20)


def test_lattice_floating_body_grid():
    # 9 points; eps = 2/9 keeps ceil(7) = 7 per direction
    grid = box(0, 0, 2, 2)
    dirs = perturbed_directions(named_directions("axis", 2), lattice_pts(grid))
    fb = floating_body(grid, LAT, F(2, 9), dirs)
    kept = evaluate(LAT, fb.body).exact_value
    assert kept >= 1
    assert body_contains_body(grid, fb.body)


def lattice_pts(body):
    from quanthelly.measures import lattice_points

    return lattice_points(body, LAT)


def test_eps_out_of_range():
    with pytest.raises(MeasureError):
        floating_body(UNIT, VOL, F(0), named_directions("axis", 2))
    with pytest.raises(MeasureError):
        floating_body(UNIT, VOL, 1, named_directions("axis", 2))


@given(
    st.lists(
        st.tuples(
            st.integers(-8, 8),
            st.integers(-8, 8),
        ),
        min_size=3,
        max_size=7,
    ),
    st.integers(2, 10),
)
def test_floating_body_always_contained(points, denom):
    body = convex_hull(points)
    if not body.is_full_dim:
        return
    fb = floating_body(body, VOL, F(1, denom), named_directions("axis-diag", 2))
    assert body_contains_body(body, fb.body)
    d = fb.delta
    assert d.hi <= 1 and d.lo >= 0


# ------------------------------------------------------- generic directions

def test_generic_direction_fixes_ties():
    pts = [(F(x), F(y)) for x in range(3) for y in range(3)]
    v = generic_direction((1, 0), pts)
    proj = [v[0] * p[0] + v[1] * p[1] for p in pts]
    assert len(set(proj)) == len(pts)


def test_generic_direction_keeps_already_generic():
    pts = [(F(0), F(0)), (F(1), F(3))]
    v = generic_direction((1, 0), pts)
    proj = [v[0] * p[0] + v[1] * p[1] for p in pts]
    assert len(set(proj)) == 2


def test_perturbed_directions_cover_all():
    pts = [(F(x), F(y)) for x in range(3) for y in range(3)]
    base = named_directions("axis", 2)
    fixed = perturbed_directions(base, pts)
    assert len(fixed.directions) == len(base.directions)
    for v in fixed.directions:
        proj = [v[0] * p[0] + v[1] * p[1] for p in pts]
        assert len(set(proj)) == len(pts)


# --------------------------------------------------------- separation check

def test_separation_holds_axis_cut():
    # A keeps 3/4 of the square: hypothesis met, and the floating body at
    # eps = 1/4 sits inside A
    A = box(0, 0, F(3, 4), 1)
    assert check_separation(UNIT, VOL, F(1, 4), named_directions("axis", 2), A)


def test_separation_vacuous_when_hypothesis_fails():
    A = box(0, 0, F(1, 10), 1)  # keeps only 1/10 < 3/4
    assert check_separation(UNIT, VOL, F(1, 4), named_directions("axis", 2), A)


def test_separation_fails_with_coarse_directions():
    # cutting only horizontally leaves the full vertical extent in the
    # floating body, so a horizontal slab A cannot contain it
    D = DirectionSet.custom([(1, 0), (-1, 0)])
    A = box(0, 0, 1, F(3, 4))
    assert check_separation(UNIT, VOL, F(1, 4), D, A) is False


def test_separation_holds_with_matching_directions():
    D = named_directions("axis", 2)
    A = box(0, 0, 1, F(3, 4))
    assert check_separation(UNIT, VOL, F(1, 4), D, A)
