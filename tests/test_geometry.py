"""Exact kernel tests against brute-force oracles.

The oracles here are deliberately slow and dumb: O(n^3) hull membership,
shoelace over explicit rings, halfspace clipping by full re-enumeration.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quanthelly.geometry import (
    ConvexBody,
    GeometryError,
    Halfspace,
    body_contains_body,
    clip,
    contains,
    convex_hull,
    in_hull,
    in_triangle,
    intersect,
    orient2,
    point,
    polygon_area,
    polytope_volume,
    primitive_vector,
    segment_intersection,
    support,
    triangulate,
)

coord = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)
pt2 = st.tuples(coord, coord)
pt3 = st.tuples(coord, coord, coord)


# ---------------------------------------------------------------- oracles

def oracle_hull_vertices(points):
    """A point is a hull vertex iff it is not in the hull of the others.

    Quadratic-ish LP-free test: p is NOT a vertex iff for every direction
    spanned by point pairs it is never the unique maximizer.  We use the
    simpler characterization via orient2 extremality: p is a vertex iff
    some open halfplane through p contains all other points.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    verts = []
    for p in pts:
        others = [q for q in pts if q != p]
        # p is a vertex iff p is extreme: exists a line through p with all
        # others strictly on one side or on the p-side boundary away from p.
        if _is_extreme(p, others):
            verts.append(p)
    return sorted(verts)


def _is_extreme(p, others):
    # p is in conv(others) iff it is inside some triangle of others or on
    # a segment between two of them.  Brute force all pairs/triples.
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            a, b = others[i], others[j]
            if orient2(a, b, p) == 0 and _on_segment(a, b, p):
                return False
            for k in range(j + 1, len(others)):
                c = others[k]
                if _in_triangle(p, a, b, c):
                    return False
    return True


def _on_segment(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _in_triangle(p, a, b, c):
    if orient2(a, b, c) == 0:
        # degenerate triangle: conv{a,b,c} is a segment, and membership in
        # it is already covered by the pairwise segment checks
        return False
    d1 = orient2(a, b, p)
    d2 = orient2(b, c, p)
    d3 = orient2(c, a, p)
    neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (neg and pos)


def oracle_shoelace(ring):
    s = F(0)
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def oracle_clip_square_grid(body, h, grid=41, span=25):
    """Sample membership on a grid; every grid point must agree with clip."""
    clipped = clip(body, h)
    step = F(2 * span, grid - 1)
    for i in range(grid):
        for j in range(grid):
            p = (-span + i * step, -span + j * step)
            want = contains(body, p) and h.contains(p)
            assert contains(clipped, p) == want, p


# ------------------------------------------------------------ fixed cases

def test_hull_square_with_interior():
    b = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 3)])
    assert sorted(b.vertices) == [(0, 0), (0, 4), (4, 0), (4, 4)]
    assert polygon_area(b) == 16


def test_hull_collinear_degenerates_to_segment():
    b = convex_hull([(0, 0), (1, 1), (3, 3)])
    assert sorted(b.vertices) == [(0, 0), (3, 3)]
    assert not b.is_full_dim
    assert polygon_area(b) == 0


def test_single_point_body():
    b = convex_hull([(F(1, 3), F(2, 7))])
    assert b.vertices == ((F(1, 3), F(2, 7)),)
    assert contains(b, (F(1, 3), F(2, 7)))
    assert not contains(b, (0, 0))


def test_empty_body():
    b = ConvexBody.empty(2)
    assert b.is_empty
    assert not contains(b, (0, 0))


def test_halfspace_contains_and_slack():
    h = Halfspace.make((1, 0), 3)
    assert h.contains((3, 10))
    assert h.contains((2, -1))
    assert not h.contains((F(7, 2), 0))
    assert h.slack((1, 0)) == 2


def test_clip_square_by_diagonal():
    sq = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])
    # x + y <= 2 keeps the lower-left triangle
    tri = clip(sq, Halfspace.make((1, 1), 2))
    assert polygon_area(tri) == 2
    assert sorted(tri.vertices) == [(0, 0), (0, 2), (2, 0)]


def test_clip_to_empty():
    sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    out = clip(sq, Halfspace.make((1, 0), -5))
    assert out.is_empty


def test_intersect_two_squares():
    a = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
    b = convex_hull([(1, 1), (5, 1), (5, 5), (1, 5)])
    c = intersect([a, b])
    assert polygon_area(c) == 4
    assert sorted(c.vertices) == [(1, 1), (1, 3), (3, 1), (3, 3)]


def test_intersect_disjoint_is_empty():
    a = convex_hull([(0, 0), (1, 0), (0, 1)])
    b = convex_hull([(10, 10), (11, 10), (10, 11)])
    assert intersect([a, b]).is_empty


def test_unbounded_from_halfspaces():
    # quadrant x >= 0, y >= 0
    q = ConvexBody.from_halfspaces(
        [Halfspace.make((-1, 0), 0), Halfspace.make((0, -1), 0)], 2
    )
    assert not q.bounded
    assert contains(q, (100, 100))
    assert not contains(q, (-1, 0))
    assert support(q, (1, 0)) == float("inf")
    assert support(q, (-1, -1)) == 0


def test_support_square():
    sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert support(sq, (1, 0)) == 1
    assert support(sq, (-1, 0)) == 0
    assert support(sq, (1, 1)) == 2
    assert support(sq, (3, -2)) == 3


def test_segment_intersection_cases():
    assert segment_intersection((0, 0), (2, 2), (0, 2), (2, 0)) == (1, 1)
    assert segment_intersection((0, 0), (1, 0), (0, 1), (1, 1)) is None
    # shared endpoint counts
    assert segment_intersection((0, 0), (1, 1), (1, 1), (2, 0)) == (1, 1)


def test_primitive_vector_reduces():
    assert primitive_vector((F(2, 3), F(4, 3))) == (1, 2)
    assert primitive_vector((-4, 6)) == (-2, 3)
    with pytest.raises(GeometryError):
        primitive_vector((0, 0))


def test_triangulate_covers_area():
    b = convex_hull([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 2)])
    tris = list(triangulate(b))
    total = sum(abs(orient2(*t)) / 2 for t in tris)
    assert total == polygon_area(b)


def test_body_contains_body_proper():
    big = convex_hull([(0, 0), (10, 0), (10, 10), (0, 10)])
    small = convex_hull([(2, 2), (4, 2), (3, 5)])
    assert body_contains_body(big, small)
    assert not body_contains_body(small, big)
    assert body_contains_body(big, ConvexBody.empty(2))


def test_volume_3d_cube_and_simplex():
    cube = convex_hull(
        [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    )
    assert polytope_volume(cube) == 8
    simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert polytope_volume(simplex) == F(1, 6)


def test_clip_3d_cube():
    cube = convex_hull(
        [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    )
    half = clip(cube, Halfspace.make((1, 0, 0), 1))
    assert polytope_volume(half) == 4


def test_intersect_3d_cubes_by_clipping():
    a = convex_hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    b = convex_hull([(x, y, z) for x in (1, 3) for y in (1, 3) for z in (1, 3)])
    # 3D intersect() returns an H-rep; sequential clip keeps vertices
    c = a
    for h in b.halfspaces:
        c = clip(c, h)
    assert polytope_volume(c) == 1


# ------------------------------------------------------------- properties

@given(st.lists(pt2, min_size=1, max_size=9))
def test_hull_matches_extremality_oracle(points):
    b = convex_hull(points)
    assert sorted(b.vertices) == oracle_hull_vertices(points)


@given(st.lists(pt2, min_size=1, max_size=8))
def test_hull_contains_all_inputs(points):
    b = convex_hull(points)
    for p in points:
        assert contains(b, p)


@given(st.lists(pt2, min_size=3, max_size=8))
def test_hull_idempotent(points):
    b1 = convex_hull(points)
    b2 = convex_hull(b1.vertices)
    assert sorted(b1.vertices) == sorted(b2.vertices)


@given(
    st.lists(pt2, min_size=3, max_size=7),
    st.tuples(
        st.integers(-5, 5).filter(lambda x: True),
        st.integers(-5, 5),
    ).filter(lambda v: v != (0, 0)),
    st.fractions(min_value=-15, max_value=15, max_denominator=4),
)
def test_clip_agrees_with_membership(points, normal, offset):
    b = convex_hull(points)
    h = Halfspace.make(normal, offset)
    clipped = clip(b, h)
    # containment direction 1: every clipped vertex satisfies both
    for v in clipped.vertices:
        assert contains(b, v)
        assert h.contains(v)
    # direction 2: surviving original vertices stay
    for v in b.vertices:
        if h.contains(v):
            assert contains(clipped, v)


@given(st.lists(pt2, min_size=3, max_size=7), st.lists(pt2, min_size=3, max_size=7))
def test_intersection_membership(ps, qs):
    a = convex_hull(ps)
    b = convex_hull(qs)
    c = intersect([a, b])
    for v in c.vertices:
        assert contains(a, v) and contains(b, v)
    # midpoints of common vertices must be inside too
    for v in a.vertices:
        if contains(b, v):
            assert contains(c, v)


@given(st.lists(pt2, min_size=3, max_size=8))
def test_area_matches_shoelace(points):
    b = convex_hull(points)
    if b.is_full_dim:
        assert polygon_area(b) == oracle_shoelace(b.vertices)
    else:
        assert polygon_area(b) == 0


@given(st.lists(pt2, min_size=1, max_size=7), st.lists(pt2, min_size=1, max_size=7))
def test_hull_monotone_under_union(ps, qs):
    small = convex_hull(ps)
    big = convex_hull(ps + qs)
    assert body_contains_body(big, small)


@given(
    st.lists(pt2, min_size=3, max_size=7),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
)
def test_support_is_max_over_vertices(points, v):
    b = convex_hull(points)
    s = support(b, v)
    vals = [v[0] * p[0] + v[1] * p[1] for p in b.vertices]
    assert s == max(vals)


@given(st.lists(pt3, min_size=4, max_size=7))
def test_hull3_contains_inputs(points):
    b = convex_hull(points)
    for p in points:
        assert contains(b, p)


@given(st.lists(pt3, min_size=4, max_size=7))
def test_volume3_nonnegative_and_zero_iff_flat(points):
    b = convex_hull(points)
    vol = polytope_volume(b)
    assert vol >= 0
    assert (vol > 0) == b.is_full_dim


# ------------------------------------------- containment by orientation signs

half = st.integers(-12, 12).map(lambda k: F(k, 2))
pt_half = st.tuples(half, half)
step = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: v != (0, 0))


@st.composite
def vertex_body_points(draw):
    """Points whose hull is a point, a vertical or sloped segment, a
    collinear cloud or a polygon, all in halves; plus query points on and
    around it (vertices, edge midpoints, the supporting line beyond the ends)."""
    kind = draw(st.sampled_from(["point", "vertical", "sloped", "collinear", "polygon"]))
    if kind == "point":
        pts = [draw(pt_half)]
    elif kind == "vertical":
        x = draw(half)
        pts = [(x, draw(half)), (x, draw(half))]
    elif kind in ("sloped", "collinear"):
        a, d = draw(pt_half), draw(step)
        ts = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=2 if kind == "sloped" else 6))
        pts = [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts]
    else:
        pts = draw(st.lists(pt_half, min_size=3, max_size=8))
    ring = sorted(set(pts))
    queries = list(ring)
    queries += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(ring, ring[1:])]
    if len(ring) >= 2:
        a, b = ring[0], ring[-1]
        queries += [(2 * a[0] - b[0], 2 * a[1] - b[1]), (2 * b[0] - a[0], 2 * b[1] - a[1])]
    queries += draw(st.lists(pt_half, min_size=1, max_size=6))
    return pts, queries


@given(vertex_body_points())
@example(([(F(1), F(1))], [(F(1), F(1)), (F(1), F(2))]))
@example(([(F(0), F(0)), (F(0), F(3))], [(F(0), F(-1)), (F(0), F(2)), (F(1), F(2))]))
def test_contains_agrees_with_halfspace_oracle(case):
    pts, queries = case
    fresh = convex_hull(pts)
    got = [contains(fresh, q) for q in queries]
    assert fresh._halfspaces is None  # tested by orientation signs, none built
    cached = convex_hull(pts)
    want = [all(h.contains(point(*q)) for h in cached.halfspaces) for q in queries]
    assert got == want
    # the same body with its H-representation cached is tested against it
    assert [contains(cached, q) for q in queries] == want


grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda q: point(*q))


@given(grid, grid, grid, grid)
@example((F(0), F(0)), (F(0), F(0)), (F(0), F(0)), (F(0), F(0)))
@example((F(0), F(0)), (F(0), F(0)), (F(0), F(0)), (F(0), F(1)))
@example((F(0), F(0)), (F(2), F(2)), (F(0), F(0)), (F(1), F(1)))
@example((F(0), F(0)), (F(2), F(2)), (F(1), F(1)), (F(3), F(3)))
@example((F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(1), F(1)))
@example((F(0), F(0)), (F(0), F(2)), (F(2), F(0)), (F(1), F(1)))
def test_in_triangle_agrees_with_hull_oracle(a, b, c, p):
    hull = convex_hull([a, b, c])
    want = all(h.contains(p) for h in hull.halfspaces)
    assert in_triangle(a, b, c, p) == want
    assert in_triangle(c, b, a, p) == want
    assert in_hull([a, b, c], p) == want


def test_in_triangle_3d_uses_the_hull():
    a, b, c = point(0, 0, 0), point(2, 0, 0), point(0, 2, 0)
    assert in_triangle(a, b, c, point(1, 1, 0))
    assert not in_triangle(a, b, c, point(1, 1, 1))
    assert not in_triangle(a, b, c, point(2, 2, 0))
