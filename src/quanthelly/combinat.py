"""Constructive combinatorial layer over families of convex bodies.

Implements rainbow point selection (colorful Caratheodory with an exact
pivoting loop), Tverberg partitions in two regimes (a point regime for the
nonemptiness indicator and a measure regime driven by subfamily-hull
intersections plus inscribed approximation), the selection theorem, and the
greedy weak-net construction with an explicit iteration cap.

All verification steps are exact; randomized fallbacks are flagged as such.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    ConvexBody,
    body_contains_body,
    contains,
    convex_hull,
    dot,
    intersect,
    point,
    segment_intersection,
    sub,
)
from .measures import (
    Measure,
    MeasureValue,
    default_vertex_budget,
    evaluate,
    inscribed_polytope,
)

CC_PIVOT_CAP = 10_000
SCAN_BUDGET = 10**6  # subsets or combinations searched exhaustively
SCAN_SAMPLES = 2000  # seeded samples tested beyond the budget
HULL_BUDGET = 20_000  # subfamily hulls intersected by a Tverberg step


class CombinatError(ValueError):
    pass


def scan_subsets(n: int, k: int, test):
    """(first k-subset of range(n) passing test, or None; whether the scan
    was exhaustive).

    Every subset is tried in lexicographic order when C(n, k) <= SCAN_BUDGET;
    otherwise SCAN_SAMPLES sorted samples drawn from Random(0).
    """
    if math.comb(n, k) <= SCAN_BUDGET:
        return next(filter(test, itertools.combinations(range(n), k)), None), True
    rng = random.Random(0)
    for _ in range(SCAN_SAMPLES):
        combo = tuple(sorted(rng.sample(range(n), k)))
        if test(combo):
            return combo, False
    return None, False


@dataclass(frozen=True)
class Family:
    """An indexed list of convex bodies sharing one ambient dimension."""

    members: tuple
    labels: tuple | None = None

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise CombinatError("a family needs at least one member")
        dims = {b.dim for b in members}
        if len(dims) != 1:
            raise CombinatError(f"mixed dimensions in family: {sorted(dims)}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(members):
                raise CombinatError("labels must match members one to one")

    @staticmethod
    def from_points(points, labels=None) -> "Family":
        return Family(tuple(ConvexBody.from_points([point(*p)]) for p in points), labels)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __iter__(self):
        return iter(self.members)

    def is_point_family(self) -> bool:
        return all(b.has_vertices() and len(b.vertices) == 1 for b in self.members)

    def union_hull(self, indices=None) -> ConvexBody:
        idx = range(len(self.members)) if indices is None else indices
        pts = []
        for i in idx:
            pts.extend(self.members[i].vertices)
        return convex_hull(pts)


# -- colorful Caratheodory --------------------------------------------------


def _hull_distance_support(target, pts):
    """(squared distance, nearest point, support coords) from target to conv(pts)."""
    hull = ConvexBody.from_points(pts)
    verts = hull.vertices
    if contains(hull, target):
        return Fraction(0), target, ()
    best = None
    for v in verts:
        d = sub(target, v)
        cand = (dot(d, d), v, (v,))
        if best is None or cand[0] < best[0]:
            best = cand
    edges = []
    if len(verts) == 2:
        edges = [(verts[0], verts[1])]
    elif len(verts) > 2:
        edges = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]
    for a, b in edges:
        ab = sub(b, a)
        denom = dot(ab, ab)
        s = Fraction(dot(sub(target, a), ab), 1) / denom
        if 0 < s < 1:
            y = tuple(ai + s * di for ai, di in zip(a, ab))
            d = sub(target, y)
            cand = (dot(d, d), y, (a, b))
            if cand[0] < best[0]:
                best = cand
    return best


def _covers_all(targets, pts) -> bool:
    hull = ConvexBody.from_points(pts)
    return all(contains(hull, t) for t in targets)


def colorful_caratheodory(targets, classes):
    """One point per class so that their hull contains every target.

    Each class hull must contain all targets (checked exactly).  A single
    target runs the pivoting loop, whose potential (squared distance from the
    target to the current rainbow hull) strictly decreases, so it terminates;
    several targets use bounded pivoting rounds with an exhaustive fallback.
    """
    targets = [tuple(Fraction(c) for c in t) for t in targets]
    classes = [[tuple(Fraction(c) for c in p) for p in cls] for cls in classes]
    if not targets:
        raise CombinatError("no targets given")
    if not classes or any(not cls for cls in classes):
        raise CombinatError("every class needs at least one point")
    d = len(targets[0])
    needed = max(len(targets) * d, d + 1)
    if len(classes) < needed:
        raise CombinatError(f"need at least {needed} classes, got {len(classes)}")
    for ci, cls in enumerate(classes):
        hull = ConvexBody.from_points(cls)
        for t in targets:
            if not contains(hull, t):
                raise CombinatError(f"class {ci} hull does not contain target {t}")
    if d != 2:
        return _cc_exhaustive(targets, classes)

    chosen = [cls[0] for cls in classes]
    steps = 0
    while steps < CC_PIVOT_CAP:
        steps += 1
        t = next((t for t in targets if not _covers_all([t], chosen)), None)
        if t is None:
            return chosen
        d2, y, support = _hull_distance_support(t, chosen)
        u = sub(t, y)
        kept = set()
        for sv in support:
            for slot, p in enumerate(chosen):
                if p == sv and slot not in kept:
                    kept.add(slot)
                    break
        best = None
        for slot in range(len(classes)):
            if slot in kept:
                continue
            for mi, x in enumerate(classes[slot]):
                score = dot(sub(x, y), u)
                if best is None or score > best[0]:
                    best = (score, slot, mi, x)
        if best is None or best[0] <= 0:
            break  # pivoting stalled; single-target theory says this cannot happen
        chosen[best[1]] = best[3]
        if len(targets) > 1 and steps >= len(classes) * 50:
            break
    return _cc_exhaustive(targets, classes)


def _cc_exhaustive(targets, classes):
    total = 1
    for cls in classes:
        total *= len(cls)
        if total > SCAN_BUDGET:
            raise CombinatError(
                f"exhaustive rainbow search over {total}+ combinations exceeds budget"
            )
    for combo in itertools.product(*classes):
        if _covers_all(targets, list(combo)):
            return list(combo)
    raise CombinatError("no rainbow choice covers the targets (hypothesis violated?)")


def caratheodory_subset(targets, pts):
    """Smallest-cardinality subset of pts (lex-first among minimum) covering targets.

    Searches subset sizes 1..max(d*k, d+1) over the hull vertices of pts,
    since a covering subset may be assumed to lie in convex position.
    """
    targets = [tuple(Fraction(c) for c in t) for t in targets]
    pts = [tuple(Fraction(c) for c in p) for p in pts]
    if not _covers_all(targets, pts):
        raise CombinatError("targets are not inside the hull of the point set")
    d = len(targets[0])
    cap = max(d * len(targets), d + 1)
    hull_verts = list(ConvexBody.from_points(pts).vertices)
    base = sorted(set(hull_verts))
    for size in range(1, cap + 1):
        count = math.comb(len(base), size)
        if count > SCAN_BUDGET:
            raise CombinatError(
                f"subset search C({len(base)},{size}) = {count} exceeds budget"
            )
        for combo in itertools.combinations(base, size):
            if _covers_all(targets, list(combo)):
                return list(combo)
    raise CombinatError(f"no covering subset of size <= {cap} found")


# -- Tverberg ---------------------------------------------------------------


@dataclass(frozen=True)
class TverbergResult:
    partition: tuple  # tuple of tuples of member indices
    witness: ConvexBody
    achieved: MeasureValue
    transcript: dict = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class TverbergConfig:
    h: int | None = None  # family-size parameter of the intersection step
    c: int | None = None  # vertex budget of the inscribed step

    def resolved(self, msr: Measure, dim: int, eps2, lam) -> tuple:
        h = self.h
        c = self.c
        if h is None:
            h = dim + 1 if msr.kind == "nonempty" else 2 * dim
        if c is None:
            if msr.kind == "nonempty":
                c = 1
            elif msr.kind == "lattice":
                c = max(1, math.ceil(lam))
            else:
                c = default_vertex_budget(dim, Fraction(eps2))
        return h, c


def tverberg_partition(
    T: Family,
    m: int,
    msr: Measure,
    eps1=Fraction(1, 8),
    eps2=Fraction(1, 8),
    config: TverbergConfig = TverbergConfig(),
) -> TverbergResult:
    """Partition the family into m parts whose union-hulls share a large body.

    Point families under the nonemptiness indicator use the exact point
    pathway (candidate witnesses are input points and segment crossings).
    Otherwise: intersect all subfamily hulls missing at most (m-1)*d*c
    members, inscribe a c-vertex polytope, then peel off parts by
    Caratheodory reduction; every containment re-verified exactly.
    """
    if m < 1:
        raise CombinatError("need at least one part")
    if msr.kind == "nonempty" and T.is_point_family():
        return _tverberg_points(T, m)
    return _tverberg_measure(T, m, msr, Fraction(eps1), Fraction(eps2), config)


def _tverberg_points(T: Family, m: int) -> TverbergResult:
    pts = [b.vertices[0] for b in T.members]
    n = len(pts)
    need = 3 * (m - 1) + 1
    if n < need:
        raise CombinatError(f"need {need} points for {m} parts, got {n}")
    if m == 1:
        return _point_result(T, ((tuple(range(n)),)), pts[0])

    for x, pre_parts in _tverberg_candidates(pts):
        rest = [i for i in range(n) if not any(i in p for p in pre_parts)]
        packed = _pack_parts(pts, rest, x, m - len(pre_parts))
        if packed is None:
            continue
        partition = tuple(tuple(sorted(p)) for p in (list(pre_parts) + packed))
        return _point_result(T, partition, x)

    if n <= 10:
        found = _tverberg_bruteforce(pts, m)
        if found is not None:
            return _point_result(T, found[0], found[1])
    raise CombinatError("no Tverberg partition found (degenerate input?)")


def _tverberg_candidates(pts):
    """Candidate witness points with their pre-assigned parts, deterministic order."""
    n = len(pts)
    singles = [(pts[i], ((i,),)) for i in range(n)]
    crossings = []
    for (i, j) in itertools.combinations(range(n), 2):
        for (k, l) in itertools.combinations(range(n), 2):
            if (k, l) <= (i, j) or {i, j} & {k, l}:
                continue
            x = segment_intersection(pts[i], pts[j], pts[k], pts[l])
            if x is not None:
                crossings.append((x, ((i, j), (k, l))))
    for item in singles:
        yield item
    for item in sorted(crossings, key=lambda it: (it[0], it[1])):
        yield item


def _pack_parts(pts, avail, x, r):
    """Split avail into r parts whose hulls contain x; surplus joins the last part."""
    if r == 0:
        return [] if not avail else None
    if len(avail) < 3 * (r - 1) + 1:
        return None
    if r == 1:
        hull = ConvexBody.from_points([pts[i] for i in avail])
        return [list(avail)] if contains(hull, x) else None
    p = avail[0]
    for q, s in itertools.combinations(avail[1:], 2):
        tri = ConvexBody.from_points([pts[p], pts[q], pts[s]])
        if contains(tri, x):
            rest = [i for i in avail if i not in (p, q, s)]
            sub_parts = _pack_parts(pts, rest, x, r - 1)
            if sub_parts is not None:
                return [[p, q, s]] + sub_parts
    return None


def _tverberg_bruteforce(pts, m):
    n = len(pts)
    for assignment in itertools.product(range(m), repeat=n):
        if set(assignment) != set(range(m)):
            continue
        parts = [[i for i in range(n) if assignment[i] == j] for j in range(m)]
        hulls = [ConvexBody.from_points([pts[i] for i in p]) for p in parts]
        common = intersect(hulls)
        if not common.is_empty:
            wit = min(common.vertices) if common.has_vertices() else None
            if wit is None:
                continue
            return tuple(tuple(p) for p in parts), wit
    return None


def _point_result(T, partition, x) -> TverbergResult:
    witness = ConvexBody.from_points([x])
    for part in partition:
        hull = T.union_hull(part)
        if not contains(hull, x):
            raise CombinatError("internal: witness escaped a part hull")
    return TverbergResult(
        partition=partition,
        witness=witness,
        achieved=MeasureValue.exact(1),
        transcript={"mode": "point", "witness_point": x},
    )


def _tverberg_measure(T, m, msr, eps1, eps2, config) -> TverbergResult:
    n = len(T)
    d = T.dim
    lam = _family_floor(T, msr)
    h, c = config.resolved(msr, d, eps2, lam)
    need = (m - 1) * d * h * c + 1
    if n < need:
        raise CombinatError(f"need {need} members for m={m}, h={h}, c={c}; got {n}")
    drop = (m - 1) * d * c
    count = math.comb(n, drop)
    if count > HULL_BUDGET:
        raise CombinatError(
            f"intersection step needs C({n},{drop}) = {count} hulls, over budget"
        )

    hulls = [T.union_hull(keep) for keep in itertools.combinations(range(n), n - drop)]
    T0 = intersect(hulls)
    val0 = evaluate(msr, T0) if not T0.is_empty else MeasureValue.exact(0)
    floor1 = (1 - eps1) * lam
    if val0.ge(floor1) is not True:
        raise CombinatError(
            f"hull intersection too small: measure {val0}, needed {floor1}"
        )
    P = inscribed_polytope(msr, T0, eps2, max_vertices=c)
    achieved = evaluate(msr, P)

    remaining = list(range(n))
    parts = []
    for _ in range(m - 1):
        pool_pts = []
        for i in remaining:
            pool_pts.extend(T.members[i].vertices)
        chosen_pts = caratheodory_subset(P.vertices, pool_pts)
        part = []
        for pt in chosen_pts:
            owner = next(i for i in remaining if contains(T.members[i], pt))
            if owner not in part:
                part.append(owner)
        parts.append(tuple(sorted(part)))
        remaining = [i for i in remaining if i not in part]
        if not remaining:
            raise CombinatError("ran out of members while extracting parts")
    parts.append(tuple(remaining))

    for part in parts:
        hull = T.union_hull(part)
        if not body_contains_body(hull, P):
            raise CombinatError("internal: inscribed witness escaped a part hull")
    return TverbergResult(
        partition=tuple(parts),
        witness=P,
        achieved=achieved,
        transcript={
            "mode": "measure",
            "h": h,
            "c": c,
            "lambda": lam,
            "hull_count": count,
            "t0_measure": val0,
        },
    )


def _family_floor(T: Family, msr: Measure) -> Fraction:
    lam = None
    for b in T.members:
        v = evaluate(msr, b)
        if v.is_infinite:
            continue
        lam = v.lo if lam is None else min(lam, v.lo)
    if lam is None:
        raise CombinatError("family floor undefined (all members infinite)")
    if lam <= 0:
        raise CombinatError("family contains a member of measure 0")
    return lam


# -- selection ---------------------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    witness: ConvexBody
    tuples: tuple  # r-element member index sets, each verified
    r: int
    rho_achieved: Fraction
    exhaustive: bool
    transcript: dict = field(compare=False, default_factory=dict)


def selection(
    T: Family,
    msr: Measure,
    eps=Fraction(1, 8),
    m_parts: int | None = None,
) -> SelectionResult:
    """A single large witness inside many r-tuple union-hulls.

    Runs a Tverberg partition, then collects r-tuples two ways: rainbow
    choices over r-subsets of the parts (via colorful Caratheodory), and an
    exhaustive sweep over all r-subsets of members when affordable.  Every
    reported tuple is re-verified exactly.
    """
    eps = Fraction(eps)
    n = len(T)
    d = T.dim
    lam = _family_floor(T, msr)
    h, c = TverbergConfig().resolved(msr, d, eps / 2, lam)
    r = max(d * c, d + 1)
    if n < r:
        raise CombinatError(f"need at least r={r} members, got {n}")
    t_param = d * h * c
    if m_parts is None:
        m_parts = (n - 1) // t_param + 1 if msr.kind != "nonempty" else (n - 1) // (d + 1) + 1
        m_parts = max(m_parts, 1)
    tv = tverberg_partition(T, m_parts, msr, eps / 2, eps / 2)
    witness = tv.witness

    found = set()
    if m_parts >= r:
        for color_choice in itertools.combinations(range(m_parts), r):
            classes = []
            for j in color_choice:
                cls = []
                for i in tv.partition[j]:
                    cls.extend(T.members[i].vertices)
                classes.append(cls)
            try:
                picked = colorful_caratheodory(witness.vertices, classes)
            except CombinatError:
                continue
            members = []
            for j, pt in zip(color_choice, picked):
                owner = next(i for i in tv.partition[j] if contains(T.members[i], pt))
                members.append(owner)
            if len(set(members)) == r:
                found.add(tuple(sorted(members)))

    exhaustive = math.comb(n, r) <= SCAN_BUDGET
    if exhaustive:
        for combo in itertools.combinations(range(n), r):
            if combo in found:
                continue
            if body_contains_body(T.union_hull(combo), witness):
                found.add(combo)

    verified = tuple(
        sorted(c for c in found if body_contains_body(T.union_hull(c), witness))
    )
    rho = Fraction(len(verified), math.comb(n, r))
    return SelectionResult(
        witness=witness,
        tuples=verified,
        r=r,
        rho_achieved=rho,
        exhaustive=exhaustive,
        transcript={"m_parts": m_parts, "partition": tv.partition},
    )


# -- weak nets ----------------------------------------------------------------


@dataclass(frozen=True)
class NetResult:
    net: tuple  # ConvexBody witnesses
    achieved: tuple  # MeasureValue per witness
    iterations: int
    certified: bool  # final no-uncovered-subset check was exhaustive
    cap: int
    transcript: dict = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class UncoveredSearch:
    subset: tuple | None
    exhaustive: bool


def find_uncovered_subset(T: Family, net, eps_prime) -> UncoveredSearch:
    """A subset of size ceil(eps' |T|) whose union-hull misses every net element."""
    eps_prime = Fraction(eps_prime)
    n = len(T)
    k = max(1, math.ceil(eps_prime * n))
    net = list(net)
    if not net:
        return UncoveredSearch(tuple(range(n)), True)

    def uncovered(indices) -> bool:
        hull = T.union_hull(indices)
        return not any(body_contains_body(hull, e) for e in net)

    return UncoveredSearch(*scan_subsets(n, k, uncovered))


def weak_net(
    T: Family,
    msr: Measure,
    eps=Fraction(1, 8),
    eps_prime=Fraction(1, 2),
) -> NetResult:
    """Greedy net: repeatedly find an uncovered large subset, add its witness."""
    eps = Fraction(eps)
    eps_prime = Fraction(eps_prime)
    if not 0 < eps_prime < 1:
        raise CombinatError("eps' must lie in (0, 1)")
    net = []
    achieved = []
    rho_min = None
    r_seen = T.dim + 1
    iterations = 0
    cap = None
    last_search = None
    while True:
        last_search = find_uncovered_subset(T, net, eps_prime)
        if last_search.subset is None:
            break
        sub_family = Family(
            tuple(T.members[i] for i in last_search.subset),
        )
        sel = selection(sub_family, msr, eps)
        net.append(sel.witness)
        achieved.append(evaluate(msr, sel.witness))
        iterations += 1
        r_seen = sel.r
        if sel.rho_achieved > 0:
            rho_min = sel.rho_achieved if rho_min is None else min(rho_min, sel.rho_achieved)
        cap_base = rho_min if rho_min is not None else Fraction(1, math.comb(len(T), r_seen))
        cap = math.ceil(1 / (cap_base * eps_prime**r_seen))
        if iterations > cap:
            raise CombinatError(
                f"net construction exceeded its iteration cap {cap} after {iterations} rounds"
            )
    return NetResult(
        net=tuple(net),
        achieved=tuple(achieved),
        iterations=iterations,
        certified=last_search.exhaustive,
        cap=cap if cap is not None else 0,
        transcript={"eps": eps, "eps_prime": eps_prime},
    )
