"""The benchmark's checkers accept right outputs and reject corrupted ones.

Run with:  python3 -m pytest perfbench/tests
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checkers  # noqa: E402


def square(x0, y0, x1, y1):
    return [(F(x0), F(y0)), (F(x1), F(y0)), (F(x1), F(y1)), (F(x0), F(y1))]


# -- primitives -----------------------------------------------------------------


def test_hull_area_and_containment():
    pts = square(0, 0, 2, 2) + [(F(1), F(1)), (F(1), F(0))]
    ring = checkers.hull(pts)
    assert len(ring) == 4
    assert checkers.shoelace_area(pts) == 4
    assert checkers.in_polygon((F(2), F(1)), ring)  # boundary counts
    assert not checkers.in_polygon((F(2), F(3)), ring)
    assert checkers.in_hull((F(1, 2), F(1, 2)), [(0, 0), (1, 1)])
    assert not checkers.in_hull((F(1, 2), F(0)), [(0, 0), (1, 1)])


def test_lattice_count_matches_pick():
    # area 8, 12 boundary points, so 3 interior and 15 in all
    assert checkers.lattice_count([(0, 0), (4, 0), (0, 4)]) == 15
    assert checkers.lattice_count(square(F(-1, 8), F(-7, 8), F(5, 8), F(1, 8))) == 1


def test_sqrt_bounds_are_certified():
    assert checkers.sqrt_bounds(F(9, 4), 40) == (F(3, 2), F(3, 2))
    for bits in (40, 256):
        lo, hi = checkers.sqrt_bounds(2, bits)
        assert lo * lo < 2 < hi * hi
        assert hi - lo <= lo / 2**bits
    coarse, fine = checkers.sqrt_bounds(7, 40), checkers.sqrt_bounds(7, 256)
    assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]
    lo, hi = checkers.perimeter_bounds([(0, 0), (1, 0), (0, 1)])
    assert lo < 2 + F(14142135624, 10**10) and 2 + F(14142135623, 10**10) < hi


# -- pq-pierce -------------------------------------------------------------------


def _piercing(witnesses, tau=2):
    members = [square(F(-1, 2), F(-1, 2), F(1, 2), F(1, 2)), square(F(-1, 4), F(-3, 4), F(3, 4), F(1, 4)),
               square(F(5, 2), F(-1, 2), F(7, 2), F(1, 2))]
    return checkers.check_piercing(members, witnesses, [0, 0, 1], "lattice", 1, tau, tau, 2)


def test_piercing_accepts_planted_points():
    assert _piercing([[(F(0), F(0))], [(F(3), F(0))]]) == []


def test_piercing_rejects_a_witness_moved_off_its_member():
    bad = _piercing([[(F(0), F(0))], [(F(2), F(0))]])
    assert any("does not contain witness 1" in b for b in bad)


def test_piercing_rejects_a_wrong_fractional_optimum():
    assert _piercing([[(F(0), F(0))], [(F(3), F(0))]], tau=3)


# -- floating-cuts ----------------------------------------------------------------


UNIT = square(0, 0, 1, 1)
AXIS_CUTS = [((1, 0), F(3, 4)), ((-1, 0), F(-1, 4)), ((0, 1), F(3, 4)), ((0, -1), F(-1, 4))]


def test_floating_body_accepts_the_exact_volume_answer():
    body = square(F(1, 4), F(1, 4), F(3, 4), F(3, 4))
    bad = checkers.check_floating_body(
        UNIT, "volume", F(1, 4), AXIS_CUTS, body, (F(3, 4), F(3, 4)), (F(1, 2), F(1, 2))
    )
    assert bad == []


def test_floating_body_rejects_a_cut_lowered_by_the_tolerance():
    (v, c), *rest = AXIS_CUTS
    cuts = [(v, c - checkers.CUT_TOL)] + rest  # the span of the unit square is 1
    body = square(F(1, 4), F(1, 4), c - checkers.CUT_TOL, F(3, 4))
    bad = checkers.check_floating_body(UNIT, "volume", F(1, 4), cuts, body, (F(3, 4), F(3, 4)))
    assert any("keeps" in b and "< target" in b for b in bad)


def test_floating_body_rejects_an_asymmetric_body_and_a_body_outside_k():
    body = square(F(1, 4), F(1, 4), F(3, 4), F(7, 8))
    bad = checkers.check_floating_body(
        UNIT, "volume", F(1, 4), AXIS_CUTS, body, (F(3, 4), F(3, 4)), (F(1, 2), F(1, 2))
    )
    assert any("asymmetric" in b for b in bad)
    bad = checkers.check_floating_body(
        UNIT, "volume", F(1, 4), AXIS_CUTS, square(0, 0, 2, 1), (F(3, 4), F(3, 4))
    )
    assert any("leaves K" in b for b in bad)


def test_floating_body_perimeter_cut():
    # [0, c] x [0, 1] has perimeter 2c + 2, which reaches (15/16) * 4 at c = 7/8
    cut = [((1, 0), F(7, 8))]
    body = square(0, 0, F(7, 8), 1)
    assert checkers.check_floating_body(UNIT, "perimeter", F(1, 16), cut, body, (F(1, 16), F(1, 16))) == []
    loose = [((1, 0), F(15, 16))]  # keeps more than needed: lowering it still reaches the target
    bad = checkers.check_floating_body(UNIT, "perimeter", F(1, 16), loose, body, (F(1, 16), F(1, 16)))
    assert any("lowered" in b for b in bad)


def test_members_contain():
    members = [square(0, 0, 2, 2), square(1, 0, 3, 2), square(5, 5, 6, 6)]
    witness = square(1, 1, 2, 2)
    assert checkers.check_members_contain(members, [0, 1], witness) == []
    assert checkers.check_members_contain(members, [0, 1, 2], witness)
    assert checkers.check_members_contain(members, [0], witness)


# -- weak-nets --------------------------------------------------------------------


CORNERS = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def test_weak_net_accepts_the_centre_and_rejects_a_removed_point():
    centre = (F(1, 2), F(1, 2))
    assert checkers.check_weak_net(CORNERS, [centre], F(3, 4)) == []
    assert checkers.check_weak_net(CORNERS, [], F(3, 4))


def test_weak_net_rejects_a_removed_point_of_two():
    pts = [(4 * x, 4 * y) for x, y in CORNERS]
    net = [(F(1), F(1)), (F(3), F(3))]
    assert checkers.check_weak_net(pts, net, F(3, 4)) == []
    # the triangle x + y >= 4 holds (3, 3) only, and x + y <= 4 holds (1, 1) only
    assert checkers.check_weak_net(pts, net[:1], F(3, 4))
    assert checkers.check_weak_net(pts, net[1:], F(3, 4))


def test_selection_counts_covering_tuples():
    centre = (F(1, 2), F(1, 2))
    tuples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert checkers.check_selection(CORNERS, centre, tuples, 3, True) == []
    assert checkers.check_selection(CORNERS, centre, tuples[:3], 3, True)
    assert checkers.check_selection(CORNERS, centre, tuples[:3], 3, False) == []


TVERBERG_PTS = [(F(x), F(y)) for x, y in [(-2, -1), (2, -1), (0, 3), (-3, 1), (3, 1), (0, -2), (0, 0)]]


def test_tverberg_accepts_a_partition_and_rejects_swapped_parts():
    origin = (F(0), F(0))
    parts = ((0, 1, 2), (3, 4, 5), (6,))
    assert checkers.check_tverberg(TVERBERG_PTS, parts, origin, 3) == []
    # (0, 3) and (0, -2) trade places: both parts now lie on one side of the origin
    swapped = ((0, 1, 5), (2, 3, 4), (6,))
    assert checkers.check_tverberg(TVERBERG_PTS, swapped, origin, 3)
    assert checkers.check_tverberg(TVERBERG_PTS, ((0, 1, 2), (3, 4, 5)), origin, 3)
