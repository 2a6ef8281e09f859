"""Seeded inputs and operations for the three benchmark workloads.

Inputs are built here from a `random.Random` keyed on (workload, seed,
round), never through `quanthelly.generators`, so the planted structure the
checks rely on is known apart from the program.  Every round holds the same
operations in the same order; only the coordinates change with the seed
and the round, so no call can be answered from an earlier identical one.

An operation is `(label, run, check)`: `run()` calls one public function and
is the only timed part; `check(result)` returns a list of problems found by
`checkers`, which does not import the program.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checkers

# -- shared builders --------------------------------------------------------------


def box(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def rng_for(workload, seed, round_index):
    return random.Random(f"{workload}/{seed}/{round_index}")


def _vertices(body):
    return list(body.vertices)


# -- pq-pierce ----------------------------------------------------------------------

# Members per cluster of each lattice instance in a round, then of each
# volume instance; families have 8 to 12 members.  The mix puts the median
# latency in the middle of the 8-10 member lattice families, and the two
# volume families (a sixth of the calls) hold the 90th percentile.  The
# cluster of three in the second volume family has pairs and a triple that
# all meet in the same base rectangle, so build_pool floats identical
# bodies more than once.
PQ_LATTICE = (
    (2, 2, 2, 2), (4, 4), (3, 3, 3), (2, 2, 2, 2, 2), (2, 2, 2, 2),
    (4, 4), (3, 3, 3), (2, 2, 2, 2, 2), (2, 2, 2, 2), (3, 3, 3, 3),
)
PQ_VOLUME = ((2, 2, 2, 2), (3, 2, 2, 1))
PQ_VOLUME_EPS = Fraction(1, 8)


def lattice_clusters(rng, sizes):
    """Rectangles reaching less than 1 past a lattice point, one point per cluster.

    Cluster j sits at x = 3j, so rectangles of different clusters are
    disjoint, and each rectangle holds exactly its cluster's lattice point.
    """
    members = []
    for j, per in enumerate(sizes):
        px, py = 3 * j, 3 * rng.randint(-2, 2)
        for _ in range(per):
            a, b, c, d = (Fraction(rng.randint(1, 7), 8) for _ in range(4))
            members.append(box(px - a, py - c, px + b, py + d))
    return members


def volume_clusters(rng, sizes):
    """Side-inflated copies of a base rectangle of area >= 1, one side each.

    Members of a cluster inflate distinct sides, so any two of them meet in
    exactly the base; clusters sit 12 apart, beyond any inflation.
    """
    members = []
    for j, per in enumerate(sizes):
        x0, y0 = 12 * j, 12 * rng.randint(-1, 1)
        w, h = Fraction(rng.randint(4, 8), 4), Fraction(rng.randint(4, 8), 4)
        for side in rng.sample("NESW", per):
            a = Fraction(rng.randint(1, 8), 2)
            x_lo, y_lo, x_hi, y_hi = x0, y0, x0 + w, y0 + h
            if side == "N":
                y_hi += a
            elif side == "E":
                x_hi += a
            elif side == "S":
                y_lo -= a
            else:
                x_lo -= a
            members.append(box(x_lo, y_lo, x_hi, y_hi))
    return members


def _pq_op(qh, kind, sizes, members, measure, eps):
    fam = qh.Family(tuple(qh.ConvexBody.from_points(m) for m in members))
    clusters, lam = len(sizes), 1

    def run():
        # any clusters + 1 members hold two of one cluster, which share its base
        return qh.pq_pierce(fam, clusters + 1, 2, measure, lam, eps)

    def check(cert):
        return checkers.check_piercing(
            members,
            [_vertices(w) for w in cert.witnesses],
            cert.coverage,
            kind,
            (1 - eps) * lam,
            cert.transcript["tau_star"],
            cert.transcript["nu_star"],
            clusters,
        )

    return f"{kind}-{'+'.join(map(str, sizes))}", run, check


def pq_round(qh, rng):
    lat, vol = qh.Measure.lattice(), qh.Measure.volume()
    ops = [
        _pq_op(qh, "lattice", sizes, lattice_clusters(rng, sizes), lat, Fraction(0))
        for sizes in PQ_LATTICE
    ]
    ops += [
        _pq_op(qh, "volume", sizes, volume_clusters(rng, sizes), vol, PQ_VOLUME_EPS)
        for sizes in PQ_VOLUME
    ]
    return ops


# -- floating-cuts ----------------------------------------------------------------------


def random_polygon(rng, span=12, points=6):
    """Hull of random integer points, redrawn until it has positive area."""
    while True:
        pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(points)]
        if checkers.shoelace_area(pts) > 0:
            return pts, None


def symmetric_polygon(rng, reach=5):
    """Hull of c +- v over three random vectors v: centrally symmetric about c."""
    c = (Fraction(rng.randint(0, 12), 2), Fraction(rng.randint(0, 12), 2))
    while True:
        vs = [(rng.randint(-reach, reach), rng.randint(-reach, reach)) for _ in range(3)]
        pts = [(c[0] + s * v[0], c[1] + s * v[1]) for v in vs for s in (1, -1)]
        if checkers.shoelace_area(pts) > 0:
            return pts, c


def core_boxes(rng, count):
    """Boxes that all contain one core box of side >= 1 (so area >= 1 and
    perimeter >= 4 in every intersection)."""
    gx, gy = Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(0, 8), 2)
    gw, gh = Fraction(rng.randint(4, 8), 4), Fraction(rng.randint(4, 8), 4)
    out = []
    for _ in range(count):
        l, r, d, u = (Fraction(rng.randint(0, 8), 4) for _ in range(4))
        out.append(box(gx - l, gy - d, gx + gw + r, gy + gh + u))
    return out


HELLY_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))

# (shape, measure, eps, direction set) of each floating body in a round.
FLOATING = (
    ("random", "volume", Fraction(1, 4), "farey:2"),
    ("symmetric", "volume", Fraction(1, 8), "farey:2"),
    ("random", "perimeter", Fraction(1, 16), "farey:2"),
    ("symmetric", "perimeter", Fraction(1, 16), "farey:2"),
    ("symmetric", "volume", Fraction(1, 4), "farey:3"),
    ("random", "perimeter", Fraction(1, 16), "farey:3"),
)
# (measure, lam, eps) of the fractional and colorful Helly calls.
HELLY = (("volume", 1, Fraction(1, 8)), ("perimeter", 4, Fraction(1, 16)))
FRACTIONAL_HELLY_N, FRACTIONAL_HELLY_H = 6, 3
COLORFUL_CLASSES, COLORFUL_PER_CLASS = 3, 2


def _floating_op(qh, shape, kind, eps, dirs, rng, measures, direction_sets):
    pts, center = random_polygon(rng) if shape == "random" else symmetric_polygon(rng)
    K = qh.ConvexBody.from_points(pts)
    m, D = measures[kind], direction_sets[dirs]

    def run():
        return qh.floating_body(K, m, eps, D)

    def check(fb):
        return checkers.check_floating_body(
            pts,
            kind,
            eps,
            [(h.normal, h.offset) for _, h in fb.cuts],
            _vertices(fb.body),
            (fb.delta.lo, fb.delta.hi),
            center,
        )

    return f"floating-{shape}-{kind}-{dirs}", run, check


def _fractional_helly_op(qh, kind, lam, eps, rng, measures):
    members = core_boxes(rng, FRACTIONAL_HELLY_N)
    fam = qh.Family(tuple(qh.ConvexBody.from_points(b) for b in members))
    v = rng.choice(HELLY_DIRECTIONS)

    def run():
        return qh.fractional_helly_witness(fam, measures[kind], lam, eps, FRACTIONAL_HELLY_H, v)

    def check(res):
        return checkers.check_members_contain(members, res.members, _vertices(res.witness))

    return f"fractional-helly-{kind}", run, check


def slab_boxes(rng, count):
    """Boxes sharing one cross-section across a direction v = +-e_x or +-e_y,
    each covering a core segment along v.

    With a common cross-section the colorful cut argument goes through
    exactly: the containment-maximal cut body lies in every member of the
    class it leaves out, so the program's witness check can succeed on the
    first direction set.
    """
    axis, sign = rng.randrange(2), rng.choice((1, -1))
    lo, width = Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(4, 8), 4)
    core, length = Fraction(rng.randint(0, 8), 2), Fraction(rng.randint(4, 8), 4)
    out = []
    for _ in range(count):
        a = core - Fraction(rng.randint(0, 8), 4)
        b = core + length + Fraction(rng.randint(0, 8), 4)
        out.append(box(a, lo, b, lo + width) if axis == 0 else box(lo, a, lo + width, b))
    v = (sign, 0) if axis == 0 else (0, sign)
    return out, v


def _colorful_helly_op(qh, kind, lam, eps, rng, measures):
    boxes, v = slab_boxes(rng, COLORFUL_CLASSES * COLORFUL_PER_CLASS)
    classes = [
        boxes[i : i + COLORFUL_PER_CLASS] for i in range(0, len(boxes), COLORFUL_PER_CLASS)
    ]
    fams = [qh.Family(tuple(qh.ConvexBody.from_points(b) for b in cls)) for cls in classes]

    def run():
        return qh.colorful_helly(fams, measures[kind], lam, eps, v)

    def check(res):
        cls = classes[res.class_index]
        return checkers.check_members_contain(cls, range(len(cls)), _vertices(res.witness))

    return f"colorful-helly-{kind}", run, check


def floating_round(qh, rng):
    measures = {"volume": qh.Measure.volume(), "perimeter": qh.Measure.perimeter()}
    direction_sets = {d: qh.named_directions(d) for d in ("farey:2", "farey:3")}
    ops = [
        _floating_op(qh, shape, kind, eps, dirs, rng, measures, direction_sets)
        for shape, kind, eps, dirs in FLOATING
    ]
    for kind, lam, eps in HELLY:
        ops.append(_fractional_helly_op(qh, kind, lam, eps, rng, measures))
        ops.append(_colorful_helly_op(qh, kind, lam, eps, rng, measures))
    return ops


# -- weak-nets ---------------------------------------------------------------------------

# (points, eps') of each weak net, points of each selection and (points,
# parts) of each Tverberg partition in a round.  Weak nets cost the most;
# eps' = 2/3 on eleven and twelve points keeps a round near two seconds,
# and the mix puts the median latency among the selections.
NETS = ((10, Fraction(1, 2)), (11, Fraction(2, 3)), (12, Fraction(2, 3)))
SELECTION_SIZES = (10, 11)
TVERBERG = ((10, 4), (11, 3), (12, 3), (10, 3), (12, 4))


def general_position_points(rng, n, reach=20):
    """n distinct half-integer points, no three on a line."""
    pts = []
    while len(pts) < n:
        p = (Fraction(rng.randint(-reach, reach), 2), Fraction(rng.randint(-reach, reach), 2))
        if p in pts:
            continue
        if any(checkers.orient(a, b, p) == 0 for i, a in enumerate(pts) for b in pts[i + 1 :]):
            continue
        pts.append(p)
    return sorted(pts)


def _point_family(qh, pts):
    return qh.Family(tuple(qh.ConvexBody.from_points([p]) for p in pts))


def _single_points(bodies):
    out = []
    for b in bodies:
        verts = _vertices(b)
        if len(verts) != 1:
            raise ValueError(f"witness {b!r} is not a single point")
        out.append(verts[0])
    return out


def _net_op(qh, n, eps_prime, rng, ne):
    pts = general_position_points(rng, n)
    fam = _point_family(qh, pts)

    def run():
        return qh.weak_net(fam, ne, eps_prime=eps_prime)

    def check(res):
        return checkers.check_weak_net(pts, _single_points(res.net), eps_prime)

    return f"weak-net-{n}", run, check


def _selection_op(qh, n, rng, ne):
    pts = general_position_points(rng, n)
    fam = _point_family(qh, pts)

    def run():
        return qh.selection(fam, ne)

    def check(res):
        (x,) = _single_points([res.witness])
        return checkers.check_selection(pts, x, res.tuples, res.r, res.exhaustive)

    return f"selection-{n}", run, check


def _tverberg_op(qh, n, m, rng, ne):
    pts = general_position_points(rng, n)
    fam = _point_family(qh, pts)

    def run():
        return qh.tverberg_partition(fam, m, ne)

    def check(res):
        (x,) = _single_points([res.witness])
        return checkers.check_tverberg(pts, res.partition, x, m)

    return f"tverberg-{n}-{m}", run, check


def nets_round(qh, rng):
    ne = qh.Measure.nonempty()
    ops = [_net_op(qh, n, eps_prime, rng, ne) for n, eps_prime in NETS]
    ops += [_selection_op(qh, n, rng, ne) for n in SELECTION_SIZES]
    ops += [_tverberg_op(qh, n, m, rng, ne) for n, m in TVERBERG]
    return ops


ROUNDS = {
    "pq-pierce": pq_round,
    "floating-cuts": floating_round,
    "weak-nets": nets_round,
}
