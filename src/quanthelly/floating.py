"""Floating bodies: what survives after shaving an eps-fraction in every direction.

For a measure f, a bounded body K, and a direction v, the minimal v-halfspace
is {x : <v, x> <= c} with the smallest c that still keeps f(K cut to it) at or
above a target.  The floating body intersects K with these cuts at target
(1 - eps) f(K) over a chosen direction set; since the true object quantifies
over all directions, the computed body is an outer approximation.

Continuous measures search the dyadic grid lo + (hi - lo) j / 2^N between the
two supporting offsets of K, with N = ceil(log2(1/tol)) capped at MAX_BISECT.
The returned offset is the smallest grid point whose cut certifiably reaches
the target, so the defining inequality holds exactly (and lands on the true
cut whenever that cut is on the grid).  It is found by an Illinois
(modified regula falsi) search over j with exact probes; measures are
monotone in c, so it is the offset that plain bisection to depth N returns.
Discrete measures use an exact order statistic of the point projections and
demand strict projection order: a tie anywhere means the direction must be
re-picked (see generic_direction / perturbed_directions).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    ConvexBody,
    GeometryError,
    Halfspace,
    body_contains_body,
    clip,
    dot,
    intersect,
    primitive_vector,
    rot90,
    support,
)
from .measures import (
    DEFAULT_TOL,
    Measure,
    MeasureError,
    MeasureValue,
    certified_ge,
    evaluate,
    lattice_points,
    one_minus_ratio,
)

MAX_BISECT = 512  # the deepest dyadic grid a continuous cut searches
MAX_DOUBLINGS = 512


# -- direction sets ----------------------------------------------------------


@dataclass(frozen=True)
class DirectionSet:
    """Primitive integer directions with no two positively parallel."""

    directions: tuple
    scheme: str = "custom"

    def __post_init__(self):
        dirs = []
        seen = set()
        for v in self.directions:
            d = primitive_vector(v)
            if d not in seen:
                seen.add(d)
                dirs.append(d)
        if not dirs:
            raise GeometryError("a direction set cannot be empty")
        object.__setattr__(self, "directions", tuple(dirs))

    def __iter__(self):
        return iter(self.directions)

    def __len__(self):
        return len(self.directions)

    @staticmethod
    def axis(dim: int = 2) -> "DirectionSet":
        out = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            out.append(e)
            out.append(tuple(-c for c in e))
        return DirectionSet(tuple(out), "axis")

    @staticmethod
    def axis_diag(dim: int = 2) -> "DirectionSet":
        out = list(DirectionSet.axis(dim).directions)
        for signs in itertools.product((1, -1), repeat=dim):
            out.append(signs)
        return DirectionSet(tuple(out), "axis-diag")

    @staticmethod
    def farey(n: int) -> "DirectionSet":
        """All primitive 2D integer directions with coordinates in [-n, n]."""
        if n < 1:
            raise GeometryError("farey direction order must be >= 1")
        seen = set()
        for a in range(-n, n + 1):
            for b in range(-n, n + 1):
                if a == 0 and b == 0:
                    continue
                seen.add(primitive_vector((a, b)))
        return DirectionSet(tuple(sorted(seen)), f"farey({n})")

    @staticmethod
    def custom(vectors) -> "DirectionSet":
        return DirectionSet(tuple(vectors), "custom")


def named_directions(name: str, dim: int = 2) -> DirectionSet:
    """Resolve 'axis', 'axis-diag', or 'farey:N'."""
    if name == "axis":
        return DirectionSet.axis(dim)
    if name == "axis-diag":
        return DirectionSet.axis_diag(dim)
    if name.startswith("farey:"):
        if dim != 2:
            raise GeometryError("farey directions are 2D")
        return DirectionSet.farey(int(name.split(":", 1)[1]))
    raise GeometryError(f"unknown direction set {name!r}")


def _as_direction_set(D) -> DirectionSet:
    return D if isinstance(D, DirectionSet) else DirectionSet.custom(D)


# -- minimal cuts ------------------------------------------------------------


def minimal_v_halfspace(
    K: ConvexBody,
    v,
    m: Measure,
    target,
    *,
    tol: Fraction = DEFAULT_TOL,
) -> Halfspace:
    """Smallest-offset halfspace <v, x> <= c keeping evaluate(m, K cut) >= target.

    Lattice measures cut at an exact order statistic.  Continuous measures
    return the smallest c = lo + (hi - lo) j / 2^N, N the grid depth of tol,
    whose cut is certified to reach the target.  Each probe clips K exactly
    and decides by one certified comparison; the search between probes keeps
    a bracket of grid indices (ia misses, ib reaches) and picks the next
    probe by false position on the residuals f - target, halving the residual
    of an end kept twice in a row (Illinois) and taking the midpoint after 4
    steps in a row that fail to halve the bracket.
    """
    v = primitive_vector(v)
    target = Fraction(target)
    if target <= 0:
        raise MeasureError("the cut target must be positive")
    if K.is_empty:
        raise MeasureError("cannot cut the empty body")
    if not K.bounded:
        raise MeasureError("minimal cuts need a bounded body")
    if m.kind == "nonempty":
        raise MeasureError("minimal cuts need a nonconstant measure")

    if m.kind == "lattice":
        pts = lattice_points(K, m)
        n = len(pts)
        if n == 0:
            raise MeasureError("floating cuts need positive measure")
        keep = math.ceil(target)
        if keep > n:
            raise MeasureError(f"target {target} exceeds the available count {n}")
        proj = sorted(dot(v, p) for p in pts)
        if len(set(proj)) != n:
            raise MeasureError(
                f"direction {v} is not generic for the point set (re-pick required)"
            )
        return Halfspace.make(v, proj[keep - 1])

    total = evaluate(m, K)
    if total.hi <= 0:
        raise MeasureError("floating cuts need positive measure")
    reaches, gb = _verdict(m, K, total, target)
    if not reaches:
        raise MeasureError(f"body measure {total} is below the target {target}")

    lo = -support(K, tuple(-c for c in v))
    span = support(K, v) - lo
    depth = _grid_depth(tol)

    def probe(i):
        c = lo + span * Fraction(i, 1 << depth)
        cut = clip(K, Halfspace.make(v, c))
        return _verdict(m, cut, evaluate(m, cut), target)

    # Grid index 0 is the face of K at lo; index 2^depth is K itself, whose
    # verdict is the one certified above.  Invariant: ia misses the target,
    # ib reaches it.
    reaches, ga = probe(0)
    if reaches:
        return Halfspace.make(v, lo)
    ia, ib = 0, 1 << depth
    kept = None  # the end kept by the previous step
    stalls = 0  # steps in a row that failed to halve the bracket
    while ib - ia > 1:
        w = ib - ia
        if stalls >= 4 or gb == ga:  # gb == ga only when both are 0
            i = ia + w // 2
        else:
            i = min(max(ia + (-ga * w) // (gb - ga), ia + 1), ib - 1)
        reaches, g = probe(i)
        if reaches:
            ib, gb = i, g
            if kept == "a":
                ga /= 2
            kept = "a"
        else:
            ia, ga = i, g
            if kept == "b":
                gb /= 2
            kept = "b"
        stalls = stalls + 1 if 2 * (ib - ia) > w else 0
    return Halfspace.make(v, lo + span * Fraction(ib, 1 << depth))


def _grid_depth(tol: Fraction) -> int:
    """Smallest N <= MAX_BISECT with 2^-N <= tol."""
    if tol <= 0:
        return MAX_BISECT
    return min((math.ceil(1 / tol) - 1).bit_length(), MAX_BISECT)


def _verdict(m: Measure, body: ConvexBody, val: MeasureValue, target: Fraction):
    """Certified f(body) >= target, with the residual that steers the search.

    The residual is the exact value (volume) or the interval midpoint
    (perimeter) minus the target, clamped to the side of the verdict; it only
    picks the next probe and never decides one.
    """
    reaches = val.ge(target)
    if reaches is None:
        reaches = certified_ge(m, body, target)
        if reaches is None:
            raise MeasureError("cut measure cannot be separated from the target")
    g = (val.lo + val.hi) / 2 - target
    return reaches, (max(g, Fraction(0)) if reaches else min(g, Fraction(0)))


# -- floating bodies ---------------------------------------------------------


@dataclass(frozen=True)
class FloatingBodyResult:
    body: ConvexBody
    delta: MeasureValue  # measured 1 - f(body)/f(K)
    cuts: tuple  # (direction, halfspace) pairs in direction-set order


def floating_body(
    K: ConvexBody,
    m: Measure,
    eps,
    D,
) -> FloatingBodyResult:
    """Intersect per-direction minimal cuts at target (1 - eps) f(K)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise MeasureError("eps must lie strictly between 0 and 1")
    dirs = _as_direction_set(D)
    total = evaluate(m, K)
    if total.is_infinite or total.hi <= 0:
        raise MeasureError("floating bodies need finite positive measure")
    target = (1 - eps) * total.hi
    cuts = tuple(
        (v, minimal_v_halfspace(K, v, m, target)) for v in dirs
    )
    inner = K
    for _, h in cuts:
        inner = clip(inner, h)
    part = evaluate(m, inner)
    delta = one_minus_ratio(part, total)
    return FloatingBodyResult(body=inner, delta=delta, cuts=cuts)


def check_separation(K: ConvexBody, m: Measure, eps, D, A: ConvexBody) -> bool:
    """Whether f(A cut K) >= (1 - eps) f(K) implies the floating body sits in A.

    Vacuously true when the hypothesis fails; an interval that cannot be
    separated from the threshold after refinement is treated as satisfying the
    hypothesis, which only makes the check stricter.
    """
    eps = Fraction(eps)
    total = evaluate(m, K)
    if total.is_infinite:
        raise MeasureError("separation checks need finite measure")
    bar = (1 - eps) * total.hi
    if certified_ge(m, intersect([A, K]), bar) is False:
        return True
    fb = floating_body(K, m, eps, D)
    return body_contains_body(A, fb.body)


# -- generic directions ------------------------------------------------------


def generic_direction(base, points):
    """A primitive direction near base whose projections separate all points.

    Tries base * 2^k + rot90(base) with growing k; each candidate is verified
    exactly, so the result is certified generic for the given points.
    """
    base = primitive_vector(base)
    if len(base) != 2:
        raise GeometryError("generic directions are 2D")
    pts = [tuple(Fraction(c) for c in p) for p in points]
    side = rot90(base)
    for k in range(MAX_DOUBLINGS):
        cand = primitive_vector(tuple((b << k) + s for b, s in zip(base, side)))
        vals = [dot(cand, p) for p in pts]
        if len(set(vals)) == len(vals):
            return cand
    raise GeometryError("no generic perturbation found (points may coincide)")


def perturbed_directions(D, points) -> DirectionSet:
    """Replace every direction that ties on the point projections with a
    certified-generic perturbation of itself."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    out = []
    for v in _as_direction_set(D):
        vals = [dot(v, p) for p in pts]
        if len(set(vals)) == len(vals):
            out.append(v)
        else:
            out.append(generic_direction(v, pts))
    return DirectionSet.custom(out)
