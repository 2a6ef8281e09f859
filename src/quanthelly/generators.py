"""Deterministic instance generators for families of convex bodies.

Each generator is a pure function of (kind, params, seed): the seed is hashed
together with the canonicalized parameters, so regenerating a spec is
bit-reproducible.  Generators with planted structure re-verify that structure
exactly before returning and raise if construction failed.

Extremal constructions:
  doignon-witness      four triangles showing the integer Helly number is 4
  bkp-counterexample   four half-planes showing volume-Helly fails at 2d-1
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import Family
from .geometry import ConvexBody, Halfspace, contains, intersect, orient2, point
from .measures import Measure, evaluate, lattice_points

GENERATOR_KINDS = (
    "point-cloud",
    "random-polygons",
    "clustered-volume",
    "clustered-lattice",
    "doignon-witness",
    "bkp-counterexample",
    "halfplane-bundle",
    "volume-family",
    "lattice-family",
)


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise GeneratorError(f"unknown generator kind {self.kind!r}")

    def canonical(self) -> str:
        return json.dumps(
            {"kind": self.kind, "params": self.params, "seed": self.seed},
            sort_keys=True,
            default=str,
        )


def _rng_for(spec: GeneratorSpec) -> random.Random:
    digest = hashlib.sha256(spec.canonical().encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate(spec: GeneratorSpec) -> Family:
    rng = _rng_for(spec)
    p = dict(spec.params)
    fn = {
        "point-cloud": _gen_point_cloud,
        "random-polygons": _gen_random_polygons,
        "clustered-volume": _gen_clustered_volume,
        "clustered-lattice": _gen_clustered_lattice,
        "doignon-witness": _gen_doignon,
        "bkp-counterexample": _gen_bkp,
        "halfplane-bundle": _gen_halfplane_bundle,
        "volume-family": _gen_volume_family,
        "lattice-family": _gen_lattice_family,
    }[spec.kind]
    return fn(rng, p)


def _box(x0, y0, x1, y1) -> ConvexBody:
    return ConvexBody.from_points([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _boxes_meet_lattice(boxes) -> bool:
    """Whether the axis-parallel boxes (x0, y0, x1, y1) share a point of Z^2.

    Their intersection is the box of the innermost sides, which holds an
    integer point iff each of its two sides holds an integer.
    """
    x0 = max(b[0] for b in boxes)
    y0 = max(b[1] for b in boxes)
    x1 = min(b[2] for b in boxes)
    y1 = min(b[3] for b in boxes)
    return math.ceil(x0) <= math.floor(x1) and math.ceil(y0) <= math.floor(y1)


# -- point clouds and polygons -------------------------------------------------


def _gen_point_cloud(rng: random.Random, p) -> Family:
    n = int(p.get("n", 7))
    span = int(p.get("span", 60))
    general = bool(p.get("general_position", True))
    tries = int(p.get("tries", 400))
    for _ in range(tries):
        pts = []
        used = set()
        while len(pts) < n:
            q = (rng.randint(0, span), rng.randint(0, span))
            if q not in used:
                used.add(q)
                pts.append(q)
        if not general or _general_position(pts):
            return Family.from_points(pts)
    raise GeneratorError(f"no general-position cloud of {n} points in span {span}")


def _general_position(pts) -> bool:
    for a, b, c in itertools.combinations(pts, 3):
        if orient2(point(*a), point(*b), point(*c)) == 0:
            return False
    return True


def _gen_random_polygons(rng: random.Random, p) -> Family:
    n = int(p.get("n", 6))
    pts_per = int(p.get("pts_per", 6))
    span = int(p.get("span", 40))
    size = int(p.get("size", 8))
    members = []
    for _ in range(n):
        cx, cy = rng.randint(0, span), rng.randint(0, span)
        cloud = [
            (cx + rng.randint(-size, size), cy + rng.randint(-size, size))
            for _ in range(pts_per)
        ]
        body = ConvexBody.from_points(cloud)
        if not body.is_full_dim:  # degenerate draw: widen deterministically
            cloud += [(cx + size, cy), (cx, cy + size)]
            body = ConvexBody.from_points(cloud)
        members.append(body)
    return Family(tuple(members))


# -- clustered instances with planted structure ----------------------------------


def _gen_clustered_volume(rng: random.Random, p) -> Family:
    """Clusters of side-inflated copies of a base rectangle.

    Within a cluster the members inflate pairwise-distinct sides, so the
    intersection of any two or more cluster members is exactly the base
    rectangle (verified); distractors sit far away.
    """
    clusters = int(p.get("clusters", 1))
    per = int(p.get("per_cluster", 4))
    distractors = int(p.get("distractors", 0))
    if not 2 <= per <= 4:
        raise GeneratorError("per_cluster must be 2..4 (distinct inflation sides)")
    members, labels = [], []
    gap = 40
    for j in range(clusters):
        cx, cy = j * gap, 0
        w = Fraction(rng.randint(4, 8), 4)  # base area in [1, 4]
        h = Fraction(rng.randint(4, 8), 4)
        base = _box(cx, cy, cx + w, cy + h)
        sides = ["N", "E", "S", "W"][:per]
        for s in sides:
            a = Fraction(rng.randint(1, 8), 2)
            x0, y0, x1, y1 = cx, cy, cx + w, cy + h
            if s == "N":
                y1 += a
            elif s == "E":
                x1 += a
            elif s == "S":
                y0 -= a
            else:
                x0 -= a
            members.append(_box(x0, y0, x1, y1))
            labels.append(f"cluster:{j}")
        got = intersect(members[-per:])
        if got != base:
            raise GeneratorError("planted cluster intersection drifted")
    for k in range(distractors):
        cx = -gap * (k + 1)
        cy = gap
        s = Fraction(1, 2)
        members.append(_box(cx, cy, cx + s, cy + s))
        labels.append("distractor")
    return Family(tuple(members), tuple(labels))


def _gen_clustered_lattice(rng: random.Random, p) -> Family:
    """Clusters of thin rectangles sharing exactly one lattice point each."""
    clusters = int(p.get("clusters", 3))
    per = int(p.get("per_cluster", 4))
    denom = int(p.get("denom", 8))
    members, labels = [], []
    msr = Measure.lattice()
    for j in range(clusters):
        px, py = 5 * j, 3 * (j % 2)
        for _ in range(per):
            a = Fraction(rng.randint(1, denom - 1), denom)
            b = Fraction(rng.randint(1, denom - 1), denom)
            c = Fraction(rng.randint(1, denom - 1), denom)
            d = Fraction(rng.randint(1, denom - 1), denom)
            body = _box(px - a, py - c, px + b, py + d)
            if lattice_points(body, msr) != ((px, py),):
                raise GeneratorError("cluster rectangle admits extra lattice points")
            members.append(body)
            labels.append(f"cluster:{j}")
        common = intersect(members[-per:])
        if not contains(common, point(px, py)):
            raise GeneratorError("planted lattice point escaped its cluster")
    return Family(tuple(members), tuple(labels))


# -- extremal constructions -------------------------------------------------------


def _gen_doignon(rng: random.Random, p) -> Family:
    """Four triangles, each the hull of the unit-square corners minus one.

    Every three of them share the omitted corner of the fourth; all four meet
    only in the middle diamond, which contains no integer point.  Both facts
    are re-verified by exact enumeration.
    """
    corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
    members, labels = [], []
    for omit in corners:
        tri = ConvexBody.from_points([c for c in corners if c != omit])
        members.append(tri)
        labels.append(f"omit:{omit[0]},{omit[1]}")
    msr = Measure.lattice()
    full = intersect(members)
    if lattice_points(full, msr):
        raise GeneratorError("full intersection unexpectedly holds a lattice point")
    for i in range(4):
        tri3 = intersect([members[j] for j in range(4) if j != i])
        if corners[i] not in lattice_points(tri3, msr):
            raise GeneratorError("three-wise intersection lost its lattice point")
    return Family(tuple(members), tuple(labels))


def _gen_bkp(rng: random.Random, p) -> Family:
    """Four half-planes bounding [0,s]^2: 3-wise volumes infinite, full s^2."""
    s = Fraction(p.get("s", Fraction(1, 10)))
    if s <= 0:
        raise GeneratorError("side must be positive")
    hs = [
        Halfspace.make((1, 0), s),
        Halfspace.make((-1, 0), 0),
        Halfspace.make((0, 1), s),
        Halfspace.make((0, -1), 0),
    ]
    members = tuple(ConvexBody.from_halfspaces([h], 2) for h in hs)
    vol = Measure.volume()
    full = evaluate(vol, intersect(list(members)))
    if full.exact_value != s * s:
        raise GeneratorError("full intersection volume drifted")
    for i in range(4):
        v = evaluate(vol, intersect([members[j] for j in range(4) if j != i]))
        if not v.is_infinite:
            raise GeneratorError("three-wise intersection should be unbounded")
    return Family(members)


# -- bundles and rejection-sampled hypothesis families -----------------------------


def _gen_halfplane_bundle(rng: random.Random, p) -> Family:
    """Half-planes all containing a common anchor point (so all triples meet)."""
    n = int(p.get("n", 6))
    span = int(p.get("span", 10))
    anchor = (rng.randint(-span, span), rng.randint(-span, span))
    members = []
    while len(members) < n:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if a == 0 and b == 0:
            continue
        offset = a * anchor[0] + b * anchor[1] + rng.randint(0, span)
        body = ConvexBody.from_halfspaces([Halfspace.make((a, b), offset)], 2)
        if not contains(body, point(*anchor)):
            raise GeneratorError("bundle member lost the anchor")
        members.append(body)
    return Family(tuple(members), tuple(f"anchor:{anchor}" for _ in members))


def _gen_volume_family(rng: random.Random, p) -> Family:
    """Axis boxes rejection-sampled until every 4-wise intersection has
    volume >= lam; the interval structure then bounds the full intersection."""
    n = int(p.get("n", 6))
    span = int(p.get("span", 2))
    lam = Fraction(p.get("lam", 1))
    tries = int(p.get("tries", 500))
    vol = Measure.volume()
    for _ in range(tries):
        members = []
        for _ in range(n):
            x0 = Fraction(rng.randint(0, 2 * span), 2)
            y0 = Fraction(rng.randint(0, 2 * span), 2)
            w = Fraction(rng.randint(5, 9), 2)
            h = Fraction(rng.randint(5, 9), 2)
            members.append(_box(x0, y0, x0 + w, y0 + h))
        ok = all(
            evaluate(vol, intersect([members[i] for i in A])).ge(lam) is True
            for A in itertools.combinations(range(n), min(4, n))
        )
        if ok:
            return Family(tuple(members))
    raise GeneratorError("no 4-wise-large family found within the retry budget")


def _gen_lattice_family(rng: random.Random, p) -> Family:
    """Rational rectangles rejection-sampled until every 4-wise intersection
    contains a lattice point."""
    n = int(p.get("n", 6))
    span = int(p.get("span", 5))
    tries = int(p.get("tries", 500))
    for _ in range(tries):
        boxes = []
        for _ in range(n):
            x0 = Fraction(rng.randint(0, 4 * span), 4)
            y0 = Fraction(rng.randint(0, 4 * span), 4)
            w = Fraction(rng.randint(8, 16), 4)
            h = Fraction(rng.randint(8, 16), 4)
            boxes.append((x0, y0, x0 + w, y0 + h))
        ok = all(
            _boxes_meet_lattice([boxes[i] for i in A])
            for A in itertools.combinations(range(n), min(4, n))
        )
        if ok:
            return Family(tuple(_box(*b) for b in boxes))
    raise GeneratorError("no 4-wise-lattice family found within the retry budget")
