"""Combinatorial layer: colorful Caratheodory pivoting, Tverberg partitions,
tuple selection, and greedy weak nets.

Brute-force cross-checks: exhaustive rainbow search for CC, exhaustive
partition search for small Tverberg instances, full r-subset sweeps for
selection density, and direct eps'-subset scans for net validity.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quanthelly.combinat import (
    CombinatError,
    Family,
    TverbergConfig,
    caratheodory_subset,
    colorful_caratheodory,
    find_uncovered_subset,
    scan_subsets,
    selection,
    tverberg_partition,
    weak_net,
)
from quanthelly.geometry import ConvexBody, body_contains_body, contains, convex_hull
from quanthelly.measures import Measure, evaluate

VOL = Measure.volume()
LAT = Measure.lattice()
NE = Measure.nonempty()

coord = st.integers(-30, 30)
ipt = st.tuples(coord, coord)


def box(x0, y0, x1, y1):
    return convex_hull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def oracle_cc(targets, classes):
    """All rainbow point choices whose hull contains every target."""
    out = []
    for combo in itertools.product(*classes):
        hull = ConvexBody.from_points(combo)
        if all(contains(hull, t) for t in targets):
            out.append(list(combo))
    return out


def oracle_tverberg(points, m):
    """Exhaustive partition scan: any m-part split with a common hull point."""
    n = len(points)
    for assign in itertools.product(range(m), repeat=n):
        if len(set(assign)) != m:
            continue
        hulls = []
        ok = True
        for part in range(m):
            idx = [i for i in range(n) if assign[i] == part]
            if not idx:
                ok = False
                break
            hulls.append(convex_hull([points[i] for i in idx]))
        if not ok:
            continue
        common = hulls[0]
        from quanthelly.geometry import intersect

        common = intersect(hulls)
        if not common.is_empty:
            return assign
    return None


# ------------------------------------------------------------------ family

def test_family_basics():
    fam = Family((box(0, 0, 1, 1), box(2, 2, 3, 3)))
    assert len(fam) == 2
    assert fam.dim == 2
    assert not fam.is_point_family()


def test_family_from_points():
    fam = Family.from_points([(0, 0), (1, 1), (2, 0)])
    assert fam.is_point_family()
    hull = fam.union_hull()
    assert sorted(hull.vertices) == [(0, 0), (1, 1), (2, 0)]


def test_family_rejects_mixed_dims():
    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    with pytest.raises(CombinatError):
        Family((box(0, 0, 1, 1), cube))


def test_family_rejects_bad_labels():
    with pytest.raises(CombinatError):
        Family((box(0, 0, 1, 1),), labels=("a", "b"))


# --------------------------------------------------- colorful Caratheodory

def test_cc_triangle_classes_contain_origin():
    # three classes, each a triangle surrounding the origin
    classes = [
        [(-2, -1), (2, -1), (0, 2)],
        [(-1, -2), (3, 0), (-1, 2)],
        [(0, -3), (2, 2), (-2, 2)],
    ]
    choice = colorful_caratheodory([(0, 0)], classes)
    assert len(choice) == len(classes)
    for p, cls in zip(choice, classes):
        assert p in cls  # Fraction tuples compare equal to the int originals
    assert contains(ConvexBody.from_points(choice), (0, 0))
    assert choice in oracle_cc([(0, 0)], classes)


def test_cc_matches_exhaustive_on_random_instances():
    rng = random.Random(42)
    for _ in range(40):
        target = (0, 0)
        classes = []
        for _ in range(3):
            # triangle with the origin strictly inside: spread three points
            # into the three thirds of the circle
            cls = []
            for k in range(3):
                ang_lo = k * 3
                x = rng.randint(1, 8)
                y = rng.randint(1, 8)
                if k == 0:
                    cls.append((x, y))
                elif k == 1:
                    cls.append((-x - y, x - y))
                else:
                    cls.append((y - x, -x - y))
            # extra decoy points
            cls.append((rng.randint(-9, 9), rng.randint(-9, 9)))
            classes.append(cls)
        if not all(
            contains(ConvexBody.from_points(c), target) for c in classes
        ):
            continue
        choice = colorful_caratheodory([target], classes)
        valid = oracle_cc([target], classes)
        assert choice in valid


def test_cc_rejects_class_not_containing_target():
    classes = [
        [(1, 1), (2, 1), (1, 2)],  # hull misses the origin
        [(-2, -1), (2, -1), (0, 2)],
        [(-1, -2), (3, 0), (-1, 2)],
    ]
    with pytest.raises(CombinatError, match="class 0"):
        colorful_caratheodory([(0, 0)], classes)


def test_cc_rejects_too_few_classes():
    with pytest.raises(CombinatError, match="at least"):
        colorful_caratheodory([(0, 0)], [[(0, 0)], [(1, 1)]])


def test_cc_two_targets_needs_four_classes():
    targets = [(0, 0), (1, 0)]
    sq = [(-3, -3), (4, -3), (4, 3), (-3, 3)]
    classes = [sq, sq, sq, sq]
    choice = colorful_caratheodory(targets, classes)
    hull = ConvexBody.from_points(choice)
    assert all(contains(hull, t) for t in targets)


def test_cc_singleton_classes_must_equal_target():
    # a singleton class hull is a point, so it only qualifies if it IS the
    # target; anything else violates the containment precondition
    classes = [[(0, 0)], [(0, 0)], [(0, 0)]]
    choice = colorful_caratheodory([(0, 0)], classes)
    assert choice == [(0, 0), (0, 0), (0, 0)]
    with pytest.raises(CombinatError, match="does not contain"):
        colorful_caratheodory([(0, 0)], [[(-1, -1)], [(3, -1)], [(-1, 3)]])


# --------------------------------------------------- Caratheodory reduction

def test_caratheodory_subset_point_on_vertex():
    sub = caratheodory_subset([(0, 0)], [(0, 0), (5, 0), (0, 5)])
    assert sub == [(0, 0)]


def test_caratheodory_subset_midpoint_needs_two():
    sub = caratheodory_subset([(2, 2)], [(0, 0), (4, 4), (4, 0), (0, 4)])
    assert len(sub) == 2
    assert contains(convex_hull(sub), (2, 2))


def test_caratheodory_subset_interior_needs_three():
    sub = caratheodory_subset([(2, 1)], [(0, 0), (4, 0), (0, 4), (4, 4)])
    assert len(sub) == 3
    assert contains(convex_hull(sub), (2, 1))


def test_caratheodory_subset_outside_raises():
    with pytest.raises(CombinatError):
        caratheodory_subset([(10, 10)], [(0, 0), (1, 0), (0, 1)])


# ------------------------------------------------------- Tverberg: points

def test_tverberg_square_corners_two_parts():
    fam = Family.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    res = tverberg_partition(fam, 2, NE)
    assert len(res.partition) == 2
    for part in res.partition:
        hull = fam.union_hull(part)
        assert body_contains_body(hull, res.witness)


def test_tverberg_three_parts_seven_points():
    pts = [(0, 0), (6, 0), (3, 6), (3, 2), (1, 1), (5, 1), (3, 4)]
    fam = Family.from_points(pts)
    res = tverberg_partition(fam, 3, NE)
    assert len(res.partition) == 3
    used = sorted(i for part in res.partition for i in part)
    assert used == list(range(7))
    for part in res.partition:
        assert body_contains_body(fam.union_hull(part), res.witness)


def test_tverberg_matches_bruteforce_solvability():
    rng = random.Random(7)
    for _ in range(20):
        pts = []
        while len(pts) < 4:
            p = (rng.randint(0, 20), rng.randint(0, 20))
            if p not in pts:
                pts.append(p)
        fam = Family.from_points(pts)
        res = tverberg_partition(fam, 2, NE)
        # brute force must also find some valid split
        assert oracle_tverberg(pts, 2) is not None
        for part in res.partition:
            assert body_contains_body(fam.union_hull(part), res.witness)


def test_tverberg_too_few_points():
    fam = Family.from_points([(0, 0), (1, 0)])
    with pytest.raises(CombinatError):
        tverberg_partition(fam, 2, NE)


# ------------------------------------------------------ Tverberg: measures

def test_tverberg_volume_bodies():
    # 13 nested squares all containing [0,1]^2 (need = (m-1)*d*h*c + 1 with
    # h=2 and c=3 at eps2=1/2: a half-square triangle is exactly half the area)
    mems = [box(0, 0, 1, 1)]
    for k in range(12):
        mems.append(box(-F(k + 1, 8), -F(k + 1, 8), 1, 1))
    fam = Family(tuple(mems))
    cfg = TverbergConfig(h=2)
    res = tverberg_partition(fam, 2, VOL, F(1, 4), F(1, 2), cfg)
    assert len(res.partition) == 2
    assert res.achieved.lo > 0
    for part in res.partition:
        inter = fam.union_hull(part)  # hull of the union, grows the parts
        assert body_contains_body(inter, res.witness)


def test_tverberg_lattice_bodies():
    # nine nested boxes each containing the origin lattice point
    mems = []
    for k in range(9):
        mems.append(box(-k, -k, k + 1, k + 1))
    fam = Family(tuple(mems))
    cfg = TverbergConfig(h=2, c=1)
    res = tverberg_partition(fam, 2, LAT, F(1, 8), F(1, 8), cfg)
    assert res.achieved.lo >= 1
    for part in res.partition:
        hull = fam.union_hull(part)
        assert body_contains_body(hull, res.witness)


# ---------------------------------------------------------------- selection

def test_selection_square_corners_full_density():
    fam = Family.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    res = selection(fam, NE, F(1, 8))
    assert res.r == 3
    assert res.exhaustive
    # every reported tuple's hull really contains the witness
    for t in res.tuples:
        assert body_contains_body(fam.union_hull(t), res.witness)
    assert res.rho_achieved == F(len(res.tuples), 4)  # C(4,3) = 4


def test_selection_density_matches_exhaustive_count():
    pts = [(0, 0), (8, 0), (8, 8), (0, 8), (4, 4), (2, 3), (6, 5)]
    fam = Family.from_points(pts)
    res = selection(fam, NE, F(1, 8))
    n = len(pts)
    total = len(list(itertools.combinations(range(n), res.r)))
    true_count = 0
    for combo in itertools.combinations(range(n), res.r):
        if body_contains_body(fam.union_hull(combo), res.witness):
            true_count += 1
    assert res.rho_achieved == F(true_count, total)
    assert len(res.tuples) == true_count


def test_selection_rejects_tiny_families():
    fam = Family.from_points([(0, 0), (1, 0)])
    with pytest.raises(CombinatError):
        selection(fam, NE)


# ----------------------------------------------------------------- weak net

def test_weak_net_centered_square_singleton():
    # eps' = 3/4 on the 4 corners: every 3-corner triangle holds the center
    fam = Family.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    res = weak_net(fam, NE, F(1, 8), F(3, 4))
    assert res.certified
    assert len(res.net) == 1
    n = len(fam)
    k = 3  # ceil(3/4 * 4)
    for combo in itertools.combinations(range(n), k):
        hull = fam.union_hull(combo)
        assert any(body_contains_body(hull, w) for w in res.net)


def test_weak_net_random_points_postvalidated():
    rng = random.Random(13)
    pts = []
    while len(pts) < 8:
        p = (rng.randint(0, 40), rng.randint(0, 40))
        if p not in pts:
            pts.append(p)
    fam = Family.from_points(pts)
    res = weak_net(fam, NE, F(1, 8), F(1, 2))
    assert res.certified
    k = 4  # ceil(1/2 * 8)
    for combo in itertools.combinations(range(8), k):
        hull = fam.union_hull(combo)
        assert any(body_contains_body(hull, w) for w in res.net)


def test_weak_net_cap_positive():
    fam = Family.from_points([(0, 0), (3, 0), (3, 3), (0, 3), (1, 2)])
    res = weak_net(fam, NE, F(1, 8), F(1, 2))
    assert res.cap is None or res.cap >= len(res.net)


def test_find_uncovered_subset_empty_net_returns_everything():
    fam = Family.from_points([(0, 0), (1, 0), (0, 1)])
    search = find_uncovered_subset(fam, [], F(1, 2))
    assert search.subset is not None
    assert search.exhaustive


def test_find_uncovered_subset_none_when_covered():
    fam = Family.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    center = ConvexBody.from_points([(1, 1)])
    search = find_uncovered_subset(fam, [center], F(3, 4))
    # every 3-subset of the corners contains the center
    assert search.subset is None


def test_scan_subsets_exhaustive_is_lexicographic():
    found, exhaustive = scan_subsets(5, 2, lambda s: sum(s) == 5)
    assert (found, exhaustive) == ((1, 4), True)
    assert scan_subsets(5, 2, lambda s: False) == (None, True)


def test_scan_subsets_sampled_branch():
    # C(40, 10) > 10**6, so the scan draws seeded samples
    def test(s):
        return sum(s) % 7 == 0

    found, exhaustive = scan_subsets(40, 10, test)
    assert exhaustive is False
    assert found is not None and test(found)
    assert len(found) == 10 and list(found) == sorted(set(found))
    assert scan_subsets(40, 10, test) == (found, False)
    assert scan_subsets(40, 10, lambda s: False) == (None, False)


# ------------------------------------------------------------- properties

@given(st.lists(ipt, min_size=4, max_size=7, unique=True))
def test_tverberg_two_parts_property(pts):
    fam = Family.from_points(pts)
    try:
        res = tverberg_partition(fam, 2, NE)
    except CombinatError:
        # partitions can legitimately fail below the guarantee threshold
        assert len(pts) < 4
        return
    for part in res.partition:
        assert body_contains_body(fam.union_hull(part), res.witness)
    used = sorted(i for part in res.partition for i in part)
    assert used == list(range(len(pts)))


@given(
    st.lists(ipt, min_size=3, max_size=6, unique=True),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
def test_caratheodory_subset_property(pts, target):
    hull = convex_hull(pts)
    if not contains(hull, target):
        return
    sub = caratheodory_subset([target], pts)
    assert 1 <= len(sub) <= 3
    assert contains(convex_hull(sub), target)
