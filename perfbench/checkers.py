"""Exact checks on the benchmark's outputs, written apart from quanthelly.

Nothing here imports the package under test: points are tuples of
`fractions.Fraction` (or ints), polygons are vertex lists, and every
predicate is exact.  Each `check_*` function returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

# Tolerance the program's floating-body bisection stops at, as a share of
# the support span; the drop check lowers each cut by exactly this much.
CUT_TOL = Fraction(1, 2**40)
# Relative width of the program's default perimeter intervals.
PROGRAM_SQRT_BITS = 40
# Relative width used for the checker's own perimeter bounds; finer than
# any precision the program refines to, so its bounds nest inside.
FINE_SQRT_BITS = 256


# -- exact planar primitives ---------------------------------------------------


def orient(a, b, c):
    """Twice the signed area of abc; > 0 iff counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def hull(points):
    """Convex hull, counterclockwise, collinear points dropped (monotone chain)."""
    pts = sorted(set((Fraction(p[0]), Fraction(p[1])) for p in points))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    ring = lower[:-1] + upper[:-1]
    return ring if len(ring) >= 2 else ring[:1]


def on_segment(p, a, b) -> bool:
    return (
        orient(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def in_polygon(p, ring) -> bool:
    """Closed point-in-convex-polygon test for a counterclockwise hull ring."""
    if not ring:
        return False
    if len(ring) == 1:
        return tuple(p) == tuple(ring[0])
    if len(ring) == 2:
        return on_segment(p, ring[0], ring[1])
    n = len(ring)
    return all(orient(ring[i], ring[(i + 1) % n], p) >= 0 for i in range(n))


def in_hull(p, points) -> bool:
    return in_polygon(p, hull(points))


def polygon_inside(inner, outer_ring) -> bool:
    """Every vertex of inner lies in the convex ring (so its hull does too)."""
    return all(in_polygon(v, outer_ring) for v in inner)


def shoelace_area(points) -> Fraction:
    ring = hull(points)
    if len(ring) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i, a in enumerate(ring):
        b = ring[(i + 1) % len(ring)]
        s += a[0] * b[1] - b[0] * a[1]
    return s / 2


def sqrt_bounds(x, bits: int):
    """Rationals lo <= sqrt(x) <= hi, exact when x is a rational square.

    The scale grows eight bits at a time until the integer root has at least
    `bits` bits, so hi - lo <= 2**-bits * lo; refining further only moves lo
    up and hi down.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative value")
    n, q = x.numerator * x.denominator, x.denominator
    s = math.isqrt(n)
    if s * s == n:
        return Fraction(s, q), Fraction(s, q)
    k, m = 0, s
    while m < (1 << bits):
        k += 8
        m = math.isqrt(n << (2 * k))
    return Fraction(m, q << k), Fraction(m + 1, q << k)


def perimeter_bounds(points, bits: int = FINE_SQRT_BITS):
    """Certified (lo, hi) on the perimeter of the hull of points.

    A segment counts twice, as the boundary of a degenerate polygon.
    """
    ring = hull(points)
    if len(ring) <= 1:
        return Fraction(0), Fraction(0)
    edges = [(ring[0], ring[1])] * 2 if len(ring) == 2 else [
        (ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))
    ]
    lo = hi = Fraction(0)
    for a, b in edges:
        e_lo, e_hi = sqrt_bounds((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2, bits)
        lo += e_lo
        hi += e_hi
    return lo, hi


def clip(ring, normal, offset):
    """Part of a convex ring with <normal, x> <= offset (Sutherland-Hodgman)."""
    out = []
    n = len(ring)
    if n == 1:
        p = ring[0]
        return list(ring) if normal[0] * p[0] + normal[1] * p[1] <= offset else []
    slack = [offset - normal[0] * p[0] - normal[1] * p[1] for p in ring]
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        sa, sb = slack[i], slack[(i + 1) % n]
        if sa >= 0:
            out.append(a)
        if (sa >= 0) != (sb >= 0):
            t = sa / (sa - sb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return hull(out)


def lattice_count(points) -> int:
    """Integer points in the hull of points, by brute force over its box."""
    ring = hull(points)
    if not ring:
        return 0
    xs = [p[0] for p in ring]
    ys = [p[1] for p in ring]
    return sum(
        1
        for i in range(math.ceil(min(xs)), math.floor(max(xs)) + 1)
        for j in range(math.ceil(min(ys)), math.floor(max(ys)) + 1)
        if in_polygon((i, j), ring)
    )


# -- pq-pierce -------------------------------------------------------------------


def check_piercing(members, witnesses, coverage, measure, floor_, tau, nu, clusters):
    """members: vertex lists; witnesses: vertex lists; coverage: member -> witness.

    measure is "lattice" or "volume"; floor_ = (1 - eps) * lam.
    """
    bad = []
    if len(coverage) != len(members):
        bad.append(f"coverage maps {len(coverage)} of {len(members)} members")
    for fi, wi in enumerate(coverage):
        if not 0 <= wi < len(witnesses):
            bad.append(f"member {fi} maps to missing witness {wi}")
        elif not polygon_inside(witnesses[wi], hull(members[fi])):
            bad.append(f"member {fi} does not contain witness {wi}")
    for wi, w in enumerate(witnesses):
        got = lattice_count(w) if measure == "lattice" else shoelace_area(w)
        if got < floor_:
            bad.append(f"witness {wi} has {measure} {got} < {floor_}")
    if not tau == nu == clusters:
        bad.append(f"tau* = {tau}, nu* = {nu}, planted clusters = {clusters}")
    return bad


# -- floating-cuts ---------------------------------------------------------------


def _measure_bounds(kind, points):
    if kind == "volume":
        a = shoelace_area(points)
        return a, a
    return perimeter_bounds(points)


def check_floating_body(K, kind, eps, cuts, body, delta, center=None):
    """Cuts are (normal, offset) pairs; delta is the program's (lo, hi) defect.

    The target the program bisects towards is (1 - eps) times the upper end
    of its default perimeter interval (exact area for volume), so it is
    rebuilt here at that precision.
    """
    bad = []
    eps = Fraction(eps)
    ring = hull(K)
    if kind == "volume":
        total = shoelace_area(ring)
    else:
        total = perimeter_bounds(ring, PROGRAM_SQRT_BITS)[1]
    target = (1 - eps) * total
    f_lo, f_hi = _measure_bounds(kind, ring)
    eta = None
    for normal, offset in cuts:
        proj = [normal[0] * p[0] + normal[1] * p[1] for p in ring]
        span = max(proj) - min(proj)
        kept = clip(ring, normal, offset)
        kept_lo, kept_hi = _measure_bounds(kind, kept) if kept else (0, 0)
        if kept_lo < target:
            bad.append(f"cut {normal} <= {offset} keeps {kept_lo} < target {target}")
        lowered = clip(ring, normal, offset - CUT_TOL * span)
        low_lo, low_hi = _measure_bounds(kind, lowered) if lowered else (0, 0)
        if low_hi >= target:
            bad.append(f"cut {normal} lowered by the tolerance still keeps {low_hi}")
        slack = (kept_hi - low_lo) / f_lo
        eta = slack if eta is None else min(eta, slack)
    if not polygon_inside(body, ring):
        bad.append("floating body leaves K")
    b_lo, b_hi = _measure_bounds(kind, body) if body else (0, 0)
    defect_lo, defect_hi = 1 - b_hi / f_lo, 1 - b_lo / f_hi
    if eta is not None and defect_lo < eps - eta:
        bad.append(f"defect {defect_lo} below eps {eps} by more than {eta}")
    if delta[1] < defect_lo or delta[0] > defect_hi:
        bad.append(f"reported defect {delta} misses [{defect_lo}, {defect_hi}]")
    if center is not None:
        pts = set(hull(body))
        mirrored = {(2 * center[0] - p[0], 2 * center[1] - p[1]) for p in pts}
        if mirrored != pts:
            bad.append("symmetric K gave an asymmetric floating body")
    return bad


def check_members_contain(members, reported, witness):
    """The reported members are exactly those containing the witness."""
    bad = []
    if not witness:
        return ["empty witness"]
    inside = {i for i, m in enumerate(members) if polygon_inside(witness, hull(m))}
    for i in reported:
        if i not in inside:
            bad.append(f"member {i} is reported but does not contain the witness")
    if set(reported) != inside:
        bad.append(f"reported members {sorted(reported)} != containing {sorted(inside)}")
    return bad


# -- weak-nets -------------------------------------------------------------------


def _triangle_masks(x, pts):
    """Bitmasks of point triples whose closed triangle contains x."""
    masks = []
    for i, j, k in combinations(range(len(pts)), 3):
        a, b, c = pts[i], pts[j], pts[k]
        if orient(a, b, c) == 0:
            continue
        d = (orient(a, b, x), orient(b, c, x), orient(c, a, x))
        if min(d) >= 0 or max(d) <= 0:
            masks.append((1 << i) | (1 << j) | (1 << k))
    return masks


def check_weak_net(pts, net, eps_prime):
    """Every ceil(eps' n)-subset's hull contains a net point, by brute force.

    Subsets have at least three points here, and the points are in general
    position, so a hull contains x exactly when one of its triangles does.
    """
    n = len(pts)
    k = max(1, math.ceil(Fraction(eps_prime) * n))
    if k < 3:
        raise ValueError("brute-force net check needs subsets of three or more")
    masks = [m for x in net for m in _triangle_masks(x, pts)]
    for combo in combinations(range(n), k):
        s = sum(1 << i for i in combo)
        if not any(m & s == m for m in masks):
            return [f"subset {combo} misses every net point"]
    return []


def count_covering_tuples(pts, x, r):
    """Number of r-subsets of pts whose hull contains x."""
    return sum(1 for combo in combinations(pts, r) if in_hull(x, combo))


def check_selection(pts, witness, tuples, r, exhaustive):
    bad = []
    for t in tuples:
        if not in_hull(witness, [pts[i] for i in t]):
            bad.append(f"tuple {t} does not contain the witness")
    if exhaustive:
        want = count_covering_tuples(pts, witness, r)
        if len(tuples) != want:
            bad.append(f"{len(tuples)} tuples reported, {want} contain the witness")
    return bad


def check_tverberg(pts, parts, witness, m):
    bad = []
    flat = sorted(i for p in parts for i in p)
    if flat != list(range(len(pts))) or len(parts) != m:
        bad.append(f"parts {parts} are not a partition of {len(pts)} points into {m}")
    for p in parts:
        if not in_hull(witness, [pts[i] for i in p]):
            bad.append(f"part {p} misses the witness {witness}")
    return bad
