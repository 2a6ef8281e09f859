"""Exact rational convex-polytope kernel in dimensions 2 and 3.

All coordinates are `fractions.Fraction` and every predicate is exact.
2D bodies support the full operation set: hull, halfspace intersection,
clipping, containment, support, triangulation.  3D bodies support hull,
containment, support, clipping and triangulation; 3D bodies known only
by halfspaces support containment and further intersection.

2D bodies are kept canonical (vertices counterclockwise starting at the
lexicographic minimum) so equality is decidable by comparison.

In 2D, containment reuses an H-representation but never builds one to
test a point: a body known by its vertices alone is tested by the signs of
`orient2` over its ring.  Normalized halfspaces (`Halfspace.make`) are
built where halfspaces are compared or clipped by.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Scalar = Fraction
Point = tuple[Fraction, ...]
Direction = tuple[int, ...]

INF = math.inf


class GeometryError(ValueError):
    """Dimension mismatch, empty input, or an unusable representation."""


def point(*coords) -> Point:
    return tuple(Fraction(c) for c in coords)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise GeometryError("dimension mismatch in dot product")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def primitive_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to coprime integers.

    Orientation is preserved; only the magnitude is normalized.
    """
    fracs = [Fraction(v) for v in vec]
    if all(f == 0 for f in fracs):
        raise GeometryError("zero vector has no direction")
    den = 1
    for f in fracs:
        den = _lcm(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def direction(vec) -> Direction:
    """Canonical direction: coprime integer entries, orientation kept."""
    return primitive_vector(vec)


def rot90(v) -> tuple:
    """Counterclockwise quarter turn of a 2D vector."""
    return (-v[1], v[0])


def cross2(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def cross3(a, b) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def orient2(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc; positive iff counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def orient3(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    """Six times the signed volume of tetrahedron abcd."""
    u, v, w = sub(b, a), sub(c, a), sub(d, a)
    return dot(cross3(u, v), w)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : <normal, x> <= offset}.

    The normal is stored as a primitive integer vector (coprime entries,
    orientation preserved), making equal halfspaces compare equal.
    """

    normal: tuple[int, ...]
    offset: Fraction

    @staticmethod
    def make(normal, offset) -> "Halfspace":
        fracs = [Fraction(v) for v in normal]
        prim = primitive_vector(fracs)
        i = next(k for k, v in enumerate(prim) if v != 0)
        factor = Fraction(prim[i]) / fracs[i]
        return Halfspace(prim, Fraction(offset) * factor)

    @property
    def dim(self) -> int:
        return len(self.normal)

    def slack(self, p: Point) -> Fraction:
        return self.offset - dot(self.normal, p)

    def contains(self, p: Point) -> bool:
        return self.slack(p) >= 0


def _hull2(points) -> tuple[Point, ...]:
    """Strict 2D convex hull, counterclockwise from the lexicographic minimum.

    Monotone chain; collinear intermediate points are dropped so the output
    is in convex position.  Degenerate inputs yield a segment or a point.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return (hull[0],)
    return tuple(hull)


def _ring_halfspaces(ring) -> tuple[Halfspace, ...]:
    """H-representation of a canonical 2D polygon, segment, or point."""
    if len(ring) >= 3:
        out = []
        for i, a in enumerate(ring):
            b = ring[(i + 1) % len(ring)]
            e = sub(b, a)
            n = (e[1], -e[0])  # outward for a counterclockwise ring
            out.append(Halfspace.make(n, dot(n, a)))
        return tuple(out)
    if len(ring) == 2:
        a, b = ring
        e = sub(b, a)
        n = (e[1], -e[0])
        c = dot(n, a)
        return (
            Halfspace.make(n, c),
            Halfspace.make((-n[0], -n[1]), -c),
            Halfspace.make(e, dot(e, b)),
            Halfspace.make((-e[0], -e[1]), -dot(e, a)),
        )
    if len(ring) == 1:
        (p,) = ring
        return (
            Halfspace.make((1, 0), p[0]),
            Halfspace.make((-1, 0), -p[0]),
            Halfspace.make((0, 1), p[1]),
            Halfspace.make((0, -1), -p[1]),
        )
    raise GeometryError("empty body has no halfspace representation")


def _clip_ring(ring, h: Halfspace):
    """Sutherland-Hodgman clip of a convex ring by one halfspace, exact."""
    if not ring:
        return []
    if len(ring) == 1:
        return list(ring) if h.contains(ring[0]) else []
    if len(ring) == 2:
        ring = [ring[0], ring[1]]  # treat a segment as a degenerate ring
    out = []
    n = len(ring)
    slacks = [h.slack(p) for p in ring]
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        sa, sb = slacks[i], slacks[(i + 1) % n]
        if sa >= 0:
            out.append(a)
            if sb < 0:
                t = sa / (sa - sb)
                out.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        elif sb >= 0:
            t = sa / (sa - sb)
            out.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    if len(ring) == 2 and out:
        out = out[: 2 if len(out) > 1 else 1]
    return out


class ConvexBody:
    """Immutable convex polytope carrying V- and/or H-representations.

    Construct via from_points, from_halfspaces, or empty.  Bodies given
    by halfspaces are resolved lazily (feasibility, boundedness and, in
    2D, vertices).  The empty body has an empty vertex tuple.
    """

    __slots__ = ("dim", "_vertices", "_halfspaces", "_faces", "_bounded", "_resolved")

    def __init__(self, dim, vertices, halfspaces, faces, bounded, resolved):
        self.dim = dim
        self._vertices = vertices
        self._halfspaces = halfspaces
        self._faces = faces
        self._bounded = bounded
        self._resolved = resolved

    @staticmethod
    def from_points(points) -> "ConvexBody":
        pts = [tuple(Fraction(c) for c in p) for p in points]
        if not pts:
            raise GeometryError("need at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise GeometryError("mixed point dimensions")
        if dim == 2:
            ring = _hull2(pts)
            return ConvexBody(2, ring, None, None, True, True)
        if dim == 3:
            verts, faces = _hull3(pts)
            return ConvexBody(3, verts, None, faces, True, True)
        raise GeometryError(f"dimension {dim} not supported (only 2 and 3)")

    @staticmethod
    def from_halfspaces(halfspaces, dim) -> "ConvexBody":
        if dim not in (2, 3):
            raise GeometryError(f"dimension {dim} not supported (only 2 and 3)")
        hs = []
        for h in halfspaces:
            if not isinstance(h, Halfspace):
                h = Halfspace.make(*h)
            if h.dim != dim:
                raise GeometryError("halfspace dimension mismatch")
            hs.append(h)
        if not hs:
            raise GeometryError("need at least one halfspace")
        return ConvexBody(dim, None, tuple(hs), None, None, False)

    @staticmethod
    def empty(dim) -> "ConvexBody":
        return ConvexBody(dim, (), None, None, True, True)

    # -- resolution ----------------------------------------------------

    def _resolve(self):
        if self._resolved:
            return
        if self.dim != 2:
            raise GeometryError("3D bodies from halfspaces cannot be resolved to vertices")
        verts, hs, bounded = _resolve_halfspaces_2d(self._halfspaces)
        self._vertices = verts
        self._halfspaces = hs
        self._bounded = bounded
        self._resolved = True

    @property
    def is_empty(self) -> bool:
        if self._vertices is not None:
            return len(self._vertices) == 0
        self._resolve()
        return self._vertices is not None and len(self._vertices) == 0

    @property
    def vertices(self) -> tuple[Point, ...]:
        if self._vertices is None:
            self._resolve()
        if self._vertices is None:
            raise GeometryError("unbounded body has no vertex representation")
        return self._vertices

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        if self._halfspaces is None:
            if self.is_empty:
                raise GeometryError("empty body has no halfspace representation")
            if self.dim == 2:
                self._halfspaces = _ring_halfspaces(self._vertices)
            else:
                self._halfspaces = _hull3_halfspaces(self._vertices, self._faces)
        return self._halfspaces

    @property
    def bounded(self) -> bool:
        if self._bounded is None:
            if self.dim != 2:
                raise GeometryError("boundedness analysis is implemented for 2D halfspace bodies only")
            self._resolve()
        return self._bounded

    @property
    def faces(self):
        """3D facet rings (tuples of vertex indices, outward orientation)."""
        if self.dim != 3:
            raise GeometryError("faces are defined for 3D bodies")
        if self._faces is None:
            raise GeometryError("3D halfspace body has no face structure")
        return self._faces

    def has_vertices(self) -> bool:
        return self._vertices is not None

    @property
    def is_full_dim(self) -> bool:
        if self._vertices is not None or self._resolved or self.dim == 2:
            if self.is_empty:
                return False
            if self._vertices is not None:
                return _affine_dim(self._vertices) == self.dim
            # resolved unbounded 2D body: full-dimensional iff it contains a disk
        return _full_dim_lp(self._halfspaces, self.dim)

    # -- canonical identity --------------------------------------------

    def _key(self):
        if self._vertices is None and self.dim == 2:
            self._resolve()
        if self._vertices is not None:
            if self.dim == 3:
                return (3, tuple(sorted(self._vertices)))
            return (2, self._vertices)
        return (self.dim, "H", tuple(sorted((h.normal, h.offset) for h in self._canonical_hset())))

    def _canonical_hset(self):
        seen = {}
        for h in self._halfspaces:
            prev = seen.get(h.normal)
            if prev is None or h.offset < prev:
                seen[h.normal] = h.offset
        return tuple(Halfspace(n, o) for n, o in seen.items())

    def __eq__(self, other):
        if not isinstance(other, ConvexBody):
            return NotImplemented
        return self.dim == other.dim and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self._vertices is not None:
            if not self._vertices:
                return f"ConvexBody.empty({self.dim})"
            pts = ", ".join("(" + ",".join(str(c) for c in p) + ")" for p in self._vertices)
            return f"ConvexBody[{pts}]"
        return f"ConvexBody<{len(self._halfspaces)} halfspaces, dim {self.dim}>"


# -- 2D halfspace resolution ------------------------------------------


def _dedupe_halfspaces(halfspaces):
    seen = {}
    for h in halfspaces:
        prev = seen.get(h.normal)
        if prev is None or h.offset < prev.offset:
            seen[h.normal] = h
    return sorted(seen.values(), key=lambda h: (h.normal, h.offset))


def _recession_rays_2d(halfspaces):
    """Feasible directions of the recession cone among its extreme candidates.

    For rational halfplanes the recession cone, if nontrivial, is spanned
    by rays perpendicular to some constraint normal or opposite to one, so
    checking those candidates is exhaustive.
    """
    cands = []
    for h in halfspaces:
        n = h.normal
        cands.append(rot90(n))
        cands.append(rot90((-n[0], -n[1])))
        cands.append((-n[0], -n[1]))
    out = []
    seen = set()
    for y in cands:
        y = primitive_vector(y)
        if y in seen:
            continue
        seen.add(y)
        if all(dot(h.normal, y) <= 0 for h in halfspaces):
            out.append(y)
    return out


def _resolve_halfspaces_2d(halfspaces):
    """Return (vertices or None, irredundant halfspaces, bounded)."""
    from . import lp

    hs = _dedupe_halfspaces(halfspaces)
    n_h = len(hs)
    feas = lp.solve(
        c=(Fraction(0), Fraction(0)),
        rows=[h.normal for h in hs],
        senses=["<="] * n_h,
        rhs=[h.offset for h in hs],
        free=True,
    )
    if feas.status == "infeasible":
        return (), None, True
    rays = _recession_rays_2d(hs)
    if rays:
        kept = []
        for i, h in enumerate(hs):
            others = kept + hs[i + 1 :]
            if not others:
                kept.append(h)
                continue
            sol = lp.solve(
                c=tuple(-Fraction(v) for v in h.normal),
                rows=[g.normal for g in others],
                senses=["<="] * len(others),
                rhs=[g.offset for g in others],
                free=True,
            )
            if sol.status == "unbounded" or -sol.objective > h.offset:
                kept.append(h)
        return None, tuple(kept), False

    # bounded: box out the feasible region, then clip
    bounds = []
    for v in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        sol = lp.solve(
            c=tuple(-Fraction(c) for c in v),
            rows=[h.normal for h in hs],
            senses=["<="] * n_h,
            rhs=[h.offset for h in hs],
            free=True,
        )
        bounds.append(-sol.objective)
    xmax, xmin, ymax, ymin = bounds[0], -bounds[1], bounds[2], -bounds[3]
    ring = [
        (xmin - 1, ymin - 1),
        (xmax + 1, ymin - 1),
        (xmax + 1, ymax + 1),
        (xmin - 1, ymax + 1),
    ]
    for h in hs:
        ring = _clip_ring(ring, h)
        if not ring:
            return (), None, True
    verts = _hull2(ring)
    if not verts:
        return (), None, True
    return verts, _ring_halfspaces(verts), True


def _full_dim_lp(halfspaces, dim) -> bool:
    """A polyhedron is full-dimensional iff it contains an L-infinity ball."""
    from . import lp

    hs = list(halfspaces)
    rows = []
    for h in hs:
        rows.append(tuple(Fraction(v) for v in h.normal) + (sum(Fraction(abs(v)) for v in h.normal),))
    sol = lp.solve(
        c=tuple([Fraction(0)] * dim) + (Fraction(-1),),
        rows=rows + [tuple([Fraction(0)] * dim) + (Fraction(1),)],
        senses=["<="] * len(hs) + ["<="],
        rhs=[h.offset for h in hs] + [Fraction(1)],
        free=True,
    )
    return sol.status == "optimal" and -sol.objective > 0


# -- 3D hull -----------------------------------------------------------


def _affine_dim(points) -> int:
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    basis = []
    for p in pts[1:]:
        v = sub(p, base)
        for b in basis:
            # Gram-Schmidt-free reduction: eliminate along b's pivot coordinate
            piv = next(i for i, c in enumerate(b) if c != 0)
            v = tuple(x - Fraction(v[piv], b[piv]) * y for x, y in zip(v, b))
        if any(c != 0 for c in v):
            basis.append(v)
    return len(basis)


def _hull3(points):
    """3D hull by supporting-plane enumeration; exact, for small inputs.

    Returns (vertices sorted lexicographically, faces as index rings with
    outward orientation).  Degenerate inputs (affine dimension < 3) yield
    the lower-dimensional hull with no faces.
    """
    pts = sorted(set(points))
    if len(pts) > 64:
        raise GeometryError("3D hull supports at most 64 points")
    adim = _affine_dim(pts)
    if adim <= 0:
        return tuple(pts), None
    if adim == 1:
        d = next(sub(p, pts[0]) for p in pts[1:] if p != pts[0])
        keyed = sorted(pts, key=lambda p: dot(d, p))
        return (keyed[0], keyed[-1]), None
    if adim == 2:
        base = pts[0]
        u = next(sub(p, base) for p in pts[1:] if any(c != 0 for c in sub(p, base)))
        nrm = None
        for p in pts[1:]:
            c = cross3(u, sub(p, base))
            if any(x != 0 for x in c):
                nrm = c
                break
        w = cross3(nrm, u)
        flat = {(dot(u, p), dot(w, p)): p for p in pts}
        ring2 = _hull2(list(flat.keys()))
        return tuple(sorted(flat[q] for q in ring2)), None

    planes = {}
    for a, b, c in itertools.combinations(pts, 3):
        n = cross3(sub(b, a), sub(c, a))
        if all(v == 0 for v in n):
            continue
        off = dot(n, a)
        sides = [dot(n, p) - off for p in pts]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            n = tuple(-v for v in n)
            off = -off
        else:
            continue
        nn = primitive_vector(n)
        i = next(k for k, v in enumerate(nn) if v != 0)
        key = (nn, off * Fraction(nn[i]) / Fraction(n[i]))
        planes.setdefault(key, set()).update(
            p for p, s in zip(pts, sides) if s == 0
        )

    vert_set = set()
    face_rings = []
    for (n, off), coplanar in sorted(planes.items()):
        cop = sorted(coplanar)
        base = cop[0]
        u = next(sub(p, base) for p in cop[1:] if any(c != 0 for c in sub(p, base)))
        w = cross3(n, u)
        flat = {(dot(u, p), dot(w, p)): p for p in cop}
        ring2 = _hull2(list(flat.keys()))
        ring = [flat[q] for q in ring2]
        if len(ring) < 3:
            continue
        # orient the ring so its normal matches the outward plane normal
        rn = cross3(sub(ring[1], ring[0]), sub(ring[2], ring[0]))
        if dot(rn, n) < 0:
            ring.reverse()
        vert_set.update(ring)
        face_rings.append((n, off, ring))

    verts = tuple(sorted(vert_set))
    index = {p: i for i, p in enumerate(verts)}
    faces = tuple(tuple(index[p] for p in ring) for _, _, ring in face_rings)
    return verts, faces


def _hull3_halfspaces(verts, faces):
    out = []
    seen = set()
    if faces is None:
        return _degenerate3_halfspaces(verts)
    for ring in faces:
        a, b, c = (verts[ring[0]], verts[ring[1]], verts[ring[2]])
        n = cross3(sub(b, a), sub(c, a))
        h = Halfspace.make(n, dot(n, a))
        if (h.normal, h.offset) not in seen:
            seen.add((h.normal, h.offset))
            out.append(h)
    return tuple(out)


def _degenerate3_halfspaces(verts):
    """H-representation of a point, segment, or planar polygon in 3D."""
    if len(verts) == 1:
        (p,) = verts
        out = []
        for i in range(3):
            e = tuple(1 if j == i else 0 for j in range(3))
            out.append(Halfspace.make(e, p[i]))
            out.append(Halfspace.make(tuple(-v for v in e), -p[i]))
        return tuple(out)
    if len(verts) == 2:
        a, b = verts
        d = sub(b, a)
        # two independent normals spanning the orthogonal plane of d
        if d[0] == 0 and d[1] == 0:
            n1 = (1, 0, 0)
        else:
            n1 = (-d[1], d[0], 0)
        n2 = cross3(d, n1)
        out = [
            Halfspace.make(n1, dot(n1, a)),
            Halfspace.make(tuple(-v for v in n1), -dot(n1, a)),
            Halfspace.make(n2, dot(n2, a)),
            Halfspace.make(tuple(-v for v in n2), -dot(n2, a)),
            Halfspace.make(d, dot(d, b)),
            Halfspace.make(tuple(-v for v in d), -dot(d, a)),
        ]
        return tuple(out)
    base = verts[0]
    u = next(sub(p, base) for p in verts[1:] if any(c != 0 for c in sub(p, base)))
    n = None
    for p in verts[1:]:
        c = cross3(u, sub(p, base))
        if any(x != 0 for x in c):
            n = c
            break
    w = cross3(n, u)
    flat = {(dot(u, p), dot(w, p)): p for p in verts}
    ring2 = _hull2(list(flat.keys()))
    ring = [flat[q] for q in ring2]
    out = [
        Halfspace.make(n, dot(n, base)),
        Halfspace.make(tuple(-v for v in n), -dot(n, base)),
    ]
    for i, a in enumerate(ring):
        b = ring[(i + 1) % len(ring)]
        m = cross3(n, sub(b, a))  # in-plane normal
        inward = any(dot(m, p) > dot(m, a) for p in ring if p not in (a, b))
        if inward:
            out.append(Halfspace.make(tuple(-v for v in m), -dot(m, a)))
        else:
            out.append(Halfspace.make(m, dot(m, a)))
    return tuple(out)


# -- public operations --------------------------------------------------


def convex_hull(points) -> ConvexBody:
    """Convex hull of rational points in dimension 2 or 3."""
    return ConvexBody.from_points(points)


def _ring_contains(ring, p: Point) -> bool:
    """Whether p lies in a canonical 2D ring (polygon, segment or point).

    A polygon holds p when p is on no edge's clockwise side; a segment when
    p is collinear with it and lexicographically between its endpoints.
    """
    if len(ring) >= 3:
        return all(orient2(a, b, p) >= 0 for a, b in zip(ring, ring[1:] + ring[:1]))
    if len(ring) == 2:
        a, b = ring
        return orient2(a, b, p) == 0 and a <= p <= b
    return p == ring[0]


def contains(body: ConvexBody, p: Point) -> bool:
    """Exact membership test.

    A body that carries an H-representation is tested against it.  A 2D
    body known only by its vertices is tested by orientation signs over its
    ring: no halfspace is built just to test a point.
    """
    p = tuple(Fraction(c) for c in p)
    if len(p) != body.dim:
        raise GeometryError("point dimension mismatch")
    if body.is_empty:
        return False
    if body._halfspaces is None and body.dim == 2:
        return _ring_contains(body._vertices, p)
    return all(h.contains(p) for h in body.halfspaces)


def in_hull(points, p: Point) -> bool:
    """Exact test of p in conv(points); in 2D by orientation signs, building no body."""
    if len(p) == 2:
        return _ring_contains(_hull2(points), p)
    return contains(convex_hull(points), p)


def in_triangle(a: Point, b: Point, c: Point, p: Point) -> bool:
    """Exact test of p in the closed triangle abc, in either orientation.

    A collinear (or repeated-vertex) triangle is tested as the hull of its
    vertices, as is any triangle outside 2D.
    """
    o = orient2(a, b, c) if len(p) == 2 else 0
    if o == 0:
        return in_hull((a, b, c), p)
    if o < 0:
        b, c = c, b
    return orient2(a, b, p) >= 0 and orient2(b, c, p) >= 0 and orient2(c, a, p) >= 0


def body_contains_body(outer: ConvexBody, inner: ConvexBody) -> bool:
    """Exact containment of a bounded body's hull inside another body."""
    if inner.is_empty:
        return True
    if outer.is_empty:
        return False
    return all(contains(outer, v) for v in inner.vertices)


def support(body: ConvexBody, v) -> Fraction | float:
    """max <x, v> over the body; math.inf when unbounded in direction v."""
    if body.is_empty:
        raise GeometryError("support of the empty body is undefined")
    if body.has_vertices() or body.dim == 2:
        if not body.bounded:
            for y in _recession_rays_2d(body.halfspaces):
                if dot(y, v) > 0:
                    return INF
            # bounded in this direction: maximize by LP
            from . import lp

            hs = body.halfspaces
            sol = lp.solve(
                c=tuple(-Fraction(c) for c in v),
                rows=[h.normal for h in hs],
                senses=["<="] * len(hs),
                rhs=[h.offset for h in hs],
                free=True,
            )
            return -sol.objective
        return max(dot(p, v) for p in body.vertices)
    raise GeometryError("support needs vertices or a 2D body")


def clip(body: ConvexBody, h: Halfspace) -> ConvexBody:
    """Intersection with one halfspace; exact vertex updates in 2D/3D."""
    if not isinstance(h, Halfspace):
        h = Halfspace.make(*h)
    if h.dim != body.dim:
        raise GeometryError("halfspace dimension mismatch")
    if body.is_empty:
        return body
    if body.dim == 2:
        if body.has_vertices() and body.bounded:
            ring = _clip_ring(list(body.vertices), h)
            verts = _hull2(ring) if ring else ()
            return ConvexBody(2, verts, None, None, True, True)
        return ConvexBody.from_halfspaces(tuple(body.halfspaces) + (h,), 2)
    if body.has_vertices():
        inside = [p for p in body.vertices if h.contains(p)]
        crossings = []
        for a, b in _edges3(body):
            sa, sb = h.slack(a), h.slack(b)
            if (sa > 0 and sb < 0) or (sa < 0 and sb > 0):
                t = sa / (sa - sb)
                crossings.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        if not inside and not crossings:
            return ConvexBody.empty(3)
        return ConvexBody.from_points(inside + crossings)
    return ConvexBody.from_halfspaces(tuple(body.halfspaces) + (h,), 3)


def _edges3(body):
    verts = body.vertices
    if body._faces is None:
        # degenerate: all vertex pairs (small sets only)
        yield from itertools.combinations(verts, 2)
        return
    seen = set()
    for ring in body._faces:
        for i in range(len(ring)):
            a, b = ring[i], ring[(i + 1) % len(ring)]
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                yield verts[a], verts[b]


def intersect(bodies) -> ConvexBody:
    """Exact intersection of convex bodies of equal dimension.

    In 2D the result carries vertices whenever it is bounded; unbounded
    inputs are allowed and produce a halfspace body.  In 3D the result is
    the concatenated H-representation.
    """
    bodies = list(bodies)
    if not bodies:
        raise GeometryError("intersection of an empty collection")
    dim = bodies[0].dim
    if any(b.dim != dim for b in bodies):
        raise GeometryError("mixed dimensions in intersection")
    if any(b.is_empty for b in bodies):
        return ConvexBody.empty(dim)
    if len(bodies) == 1:
        return bodies[0]
    if dim == 2 and all(b.has_vertices() or (b._resolved and b.bounded) for b in bodies):
        ring = list(bodies[0].vertices)
        for b in bodies[1:]:
            for h in b.halfspaces:
                ring = _clip_ring(ring, h)
                if not ring:
                    return ConvexBody.empty(2)
        verts = _hull2(ring)
        if not verts:
            return ConvexBody.empty(2)
        return ConvexBody(2, verts, None, None, True, True)
    all_hs = []
    for b in bodies:
        all_hs.extend(b.halfspaces)
    return ConvexBody.from_halfspaces(all_hs, dim)


def triangulate(body: ConvexBody):
    """Fan decomposition into simplices partitioning the body.

    2D: triangles from the first vertex.  3D: tetrahedra from the first
    vertex over the facet triangles.  Degenerate bodies give no simplices.
    """
    if body.is_empty:
        return []
    verts = body.vertices
    if body.dim == 2:
        if len(verts) < 3:
            return []
        v0 = verts[0]
        return [(v0, verts[i], verts[i + 1]) for i in range(1, len(verts) - 1)]
    if body._faces is None:
        return []
    v0 = verts[0]
    out = []
    for ring in body.faces:
        if 0 in ring:
            continue
        for i in range(1, len(ring) - 1):
            out.append((v0, verts[ring[0]], verts[ring[i]], verts[ring[i + 1]]))
    return out


def polygon_area(body: ConvexBody) -> Fraction:
    """Exact area of a 2D body via the shoelace formula (0 if degenerate)."""
    if body.is_empty:
        return Fraction(0)
    verts = body.vertices
    if len(verts) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        s += a[0] * b[1] - b[0] * a[1]
    return s / 2


def polytope_volume(body: ConvexBody) -> Fraction:
    """Exact volume: shoelace in 2D, fan of tetrahedra in 3D."""
    if body.dim == 2:
        return polygon_area(body)
    total = Fraction(0)
    verts = body.vertices if not body.is_empty else ()
    if len(verts) < 4 or body._faces is None:
        return Fraction(0)
    for a, b, c, d in triangulate(body):
        total += orient3(a, b, c, d)
    return abs(total) / 6


def segment_intersection(a: Point, b: Point, c: Point, d: Point) -> Point | None:
    """Intersection point of closed segments ab and cd when it is unique."""
    r, s = sub(b, a), sub(d, c)
    den = cross2(r, s)
    if den == 0:
        return None
    t = cross2(sub(c, a), s) / den
    u = cross2(sub(c, a), r) / den
    if 0 <= t <= 1 and 0 <= u <= 1:
        return tuple(x + t * y for x, y in zip(a, r))
    return None


def bounding_box(points):
    """(mins, maxs) per coordinate over an iterable of points."""
    pts = list(points)
    if not pts:
        raise GeometryError("bounding box of nothing")
    dim = len(pts[0])
    mins = tuple(min(p[i] for p in pts) for i in range(dim))
    maxs = tuple(max(p[i] for p in pts) for i in range(dim))
    return mins, maxs
