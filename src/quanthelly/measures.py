"""Monotone measures on convex bodies, evaluated exactly or with certified intervals.

Supported kinds:

* volume        exact rational (2D shoelace, 3D tetrahedra)
* perimeter     certified rational interval (edge lengths are square roots)
* lattice       exact count of S = L \\ (L_1 | ... | L_m) inside the body,
                with exact infinity detection for unbounded bodies
* nonempty      degenerate 0/1 indicator used by classic-mode theorems

Values are MeasureValue instances: an exact rational, a certified
interval [lo, hi], or the distinguished infinite value.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .geometry import (
    INF,
    ConvexBody,
    Halfspace,
    _recession_rays_2d,
    bounding_box,
    cross2,
    dot,
    polytope_volume,
    rot90,
    sub,
)

DEFAULT_TOL = Fraction(1, 2**40)
ENUM_BUDGET = 4_000_000
REFINE_ROUNDS = 12


class MeasureError(ValueError):
    pass


class InscribedError(MeasureError):
    """Certification failed within the vertex budget; carries achieved ratio."""

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class MeasureValue:
    """Exact value, certified interval, or infinity; all comparisons exact."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo != INF:
            lo = Fraction(lo)
        if hi != INF:
            hi = Fraction(hi)
        if not (lo == hi == INF) and not (hi != INF and lo <= hi):
            raise MeasureError(f"bad interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def exact(v) -> "MeasureValue":
        return MeasureValue(v, v)

    @staticmethod
    def interval(lo, hi) -> "MeasureValue":
        return MeasureValue(lo, hi)

    @property
    def is_infinite(self) -> bool:
        return self.lo == INF

    @property
    def is_exact(self) -> bool:
        return not self.is_infinite and self.lo == self.hi

    @property
    def exact_value(self) -> Fraction:
        if not self.is_exact:
            raise MeasureError(f"value {self} is not exact")
        return self.lo

    def ge(self, bar) -> bool | None:
        """Certified >= bar; None when the interval straddles the bar."""
        if self.is_infinite:
            return True
        if self.lo >= bar:
            return True
        if self.hi < bar:
            return False
        return None

    def __eq__(self, other):
        if isinstance(other, MeasureValue):
            return self.lo == other.lo and self.hi == other.hi
        if self.is_exact:
            return self.lo == other
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        if self.is_infinite:
            return "MeasureValue(inf)"
        if self.is_exact:
            return f"MeasureValue({self.lo})"
        return f"MeasureValue[{self.lo}, {self.hi}]"


INFINITE = MeasureValue(INF, INF)


def one_minus_ratio(part: MeasureValue, whole: MeasureValue) -> MeasureValue:
    """1 - part/whole for nonnegative part <= whole, whole > 0."""
    if whole.is_infinite or part.is_infinite:
        raise MeasureError("ratio of infinite values")
    if whole.lo <= 0:
        raise MeasureError("ratio denominator must be certified positive")
    lo = 1 - part.hi / whole.lo
    hi = 1 - part.lo / whole.hi
    return MeasureValue(min(lo, hi), max(lo, hi))


@dataclass(frozen=True)
class Measure:
    kind: str
    tol: Fraction = DEFAULT_TOL
    basis: tuple | None = None
    excluded: tuple = ()

    @staticmethod
    def volume() -> "Measure":
        return Measure("volume")

    @staticmethod
    def perimeter(tol=DEFAULT_TOL) -> "Measure":
        return Measure("perimeter", tol=Fraction(tol))

    @staticmethod
    def lattice(basis=((1, 0), (0, 1)), excluded=()) -> "Measure":
        b = tuple(tuple(Fraction(c) for c in row) for row in basis)
        ex = tuple(tuple(tuple(Fraction(c) for c in row) for row in sub) for sub in excluded)
        m = Measure("lattice", basis=b, excluded=ex)
        _lattice_data(m)  # validates rank and sublattice integrality
        return m

    @staticmethod
    def nonempty() -> "Measure":
        return Measure("nonempty")

    @property
    def continuous(self) -> bool:
        return self.kind in ("volume", "perimeter")

    def with_tol(self, tol) -> "Measure":
        return replace(self, tol=Fraction(tol))


# -- exact square roots as certified intervals ---------------------------


def sqrt_interval(x: Fraction, rel_tol: Fraction):
    """Rational lo <= sqrt(x) <= hi with hi - lo <= rel_tol * lo (exact when possible)."""
    x = Fraction(x)
    if x < 0:
        raise MeasureError("sqrt of a negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = x.numerator, x.denominator
    n = p * q  # sqrt(x) = sqrt(n) / q
    s = isqrt(n)
    if s * s == n:
        r = Fraction(s, q)
        return r, r
    k = 0
    m = s
    while m * rel_tol < 1:
        k += 8
        m = isqrt(n << (2 * k))
    lo = Fraction(m, q << k)
    hi = Fraction(m + 1, q << k)
    return lo, hi


# -- lattice bookkeeping --------------------------------------------------


def _mat2_det(rows):
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def _mat2_inv(rows):
    d = _mat2_det(rows)
    if d == 0:
        raise MeasureError("lattice basis is singular")
    return (
        (Fraction(rows[1][1], 1) / d, Fraction(-rows[0][1], 1) / d),
        (Fraction(-rows[1][0], 1) / d, Fraction(rows[0][0], 1) / d),
    )


def _row_times_mat(v, rows):
    """Row vector times matrix given by rows: v . rows."""
    return tuple(sum(v[i] * rows[i][j] for i in range(len(rows))) for j in range(len(rows[0])))


def _is_integral(vec) -> bool:
    return all(Fraction(c).denominator == 1 for c in vec)


def _integer_kernel(rows):
    """Basis of {z integer : M z = 0} for an integer matrix, via column ops."""
    m = len(rows)
    n = len(rows[0])
    A = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(j1, j2, q):
        for i in range(m):
            A[i][j2] -= q * A[i][j1]
        for i in range(n):
            U[i][j2] -= q * U[i][j1]

    def colswap(j1, j2):
        for i in range(m):
            A[i][j1], A[i][j2] = A[i][j2], A[i][j1]
        for i in range(n):
            U[i][j1], U[i][j2] = U[i][j2], U[i][j1]

    col = 0
    for row in range(m):
        while True:
            nz = [j for j in range(col, n) if A[row][j] != 0]
            if len(nz) <= 1:
                break
            j1, j2 = nz[0], nz[1]
            if abs(A[row][j2]) < abs(A[row][j1]):
                colswap(j1, j2)
            colop(j1, j2, A[row][j2] // A[row][j1])
            if A[row][j2] == 0:
                continue
        nz = [j for j in range(col, n) if A[row][j] != 0]
        if nz:
            if nz[0] != col:
                colswap(nz[0], col)
            col += 1
    return [[U[i][j] for i in range(n)] for j in range(col, n)]


def _lattice_intersection(b1, b2):
    """Row basis of the intersection of two full-rank rational 2D lattices."""
    den = 1
    for row in list(b1) + list(b2):
        for c in row:
            den = den // gcd(den, Fraction(c).denominator) * Fraction(c).denominator
    a1 = [[int(Fraction(c) * den) for c in row] for row in b1]
    a2 = [[int(Fraction(c) * den) for c in row] for row in b2]
    M = [
        [a1[0][k], a1[1][k], -a2[0][k], -a2[1][k]]
        for k in range(2)
    ]
    kern = _integer_kernel(M)
    if len(kern) != 2:
        raise MeasureError("lattice intersection is not full rank")
    rows = []
    for z in kern:
        v = [z[0] * a1[0][j] + z[1] * a1[1][j] for j in range(2)]
        rows.append(tuple(Fraction(c, den) for c in v))
    return tuple(rows)


def _hnf_2d(rows):
    """Upper-triangular row basis [[g, s], [0, h]] with g, h > 0."""
    a = [list(int(c) for c in r) for r in rows]
    if a[0][0] == 0:
        a[0], a[1] = a[1], a[0]
    while a[1][0] != 0:
        if a[0][0] == 0 or (a[1][0] != 0 and abs(a[1][0]) < abs(a[0][0])):
            a[0], a[1] = a[1], a[0]
        q = a[1][0] // a[0][0]
        a[1] = [x - q * y for x, y in zip(a[1], a[0])]
    if a[0][0] < 0:
        a[0] = [-x for x in a[0]]
    if a[1][1] < 0:
        a[1] = [-x for x in a[1]]
    if a[1][1] == 0:
        raise MeasureError("degenerate lattice")
    return (tuple(a[0]), tuple(a[1]))


class _LatticeData:
    """Derived quantities for a lattice measure, in lattice coordinates."""

    __slots__ = ("R", "Rt_inv", "excl", "excl_inv", "period", "s_nonempty")

    def __init__(self, measure: Measure):
        R = measure.basis
        if len(R) != 2 or any(len(r) != 2 for r in R):
            raise MeasureError("lattice basis must be 2x2")
        if _mat2_det(R) == 0:
            raise MeasureError("lattice basis must have full rank")
        self.R = R
        Rinv = _mat2_inv(R)
        # u = z . R^-1 maps a point z to its lattice coordinates
        self.Rt_inv = Rinv
        excl = []
        for sub_basis in measure.excluded:
            rows = []
            for v in sub_basis:
                u = _row_times_mat(v, Rinv)
                if not _is_integral(u):
                    raise MeasureError(f"excluded basis vector {v} is not in the base lattice")
                rows.append(tuple(int(c) for c in u))
            if len(rows) != 2 or _mat2_det(rows) == 0:
                raise MeasureError("excluded sublattices must have full rank")
            excl.append(tuple(rows))
        self.excl = tuple(excl)
        self.excl_inv = tuple(_mat2_inv(e) for e in excl)
        if excl:
            inter = excl[0]
            for e in excl[1:]:
                inter = _lattice_intersection(inter, e)
            self.period = _hnf_2d(inter)
        else:
            self.period = ((1, 0), (0, 1))
        self.s_nonempty = self._check_nonempty()

    def in_s(self, u) -> bool:
        """u integer pair (lattice coordinates); is the point in S?"""
        for inv in self.excl_inv:
            x = _row_times_mat(u, inv)
            if _is_integral(x):
                return False
        return True

    def _check_nonempty(self) -> bool:
        g = self.period[0][0]
        h = self.period[1][1]
        if g * h > ENUM_BUDGET:
            raise MeasureError("excluded-lattice residue enumeration exceeds budget")
        for i in range(g):
            for j in range(h):
                if self.in_s((i, j)):
                    return True
        return False

    def to_lattice(self, z):
        return _row_times_mat(tuple(Fraction(c) for c in z), self.Rt_inv)

    def to_ambient(self, u):
        return _row_times_mat(tuple(Fraction(c) for c in u), self.R)

    def line_period(self, y) -> int:
        """Smallest p > 0 with p*y in the intersection of all excluded lattices."""
        if not self.excl:
            return 1
        inv = _mat2_inv(self.period)
        x = _row_times_mat(y, inv)
        den = 1
        for c in x:
            den = den // gcd(den, c.denominator) * c.denominator
        return den


@lru_cache(maxsize=64)
def _lattice_data(measure: Measure) -> _LatticeData:
    return _LatticeData(measure)


# -- evaluation -----------------------------------------------------------


def evaluate(measure: Measure, body: ConvexBody) -> MeasureValue:
    """Measure of a convex body; exact except for perimeter intervals."""
    if measure.kind == "nonempty":
        return MeasureValue.exact(0 if body.is_empty else 1)
    if body.is_empty:
        return MeasureValue.exact(0)
    if measure.kind == "volume":
        if body.dim == 2 and not body.bounded:
            return INFINITE if body.is_full_dim else MeasureValue.exact(0)
        return MeasureValue.exact(polytope_volume(body))
    if measure.kind == "perimeter":
        if body.dim != 2:
            raise MeasureError("perimeter is defined for 2D bodies")
        if not body.bounded:
            return INFINITE
        return _perimeter(body, measure.tol)
    if measure.kind == "lattice":
        if body.dim != 2:
            raise MeasureError("lattice counting is defined for 2D bodies")
        data = _lattice_data(measure)
        if not body.bounded:
            return _count_unbounded(body, data)
        pts = _enumerate_lattice(body, data)
        return MeasureValue.exact(len(pts))
    raise MeasureError(f"unknown measure kind {measure.kind!r}")


def _perimeter(body: ConvexBody, tol: Fraction) -> MeasureValue:
    verts = body.vertices
    if len(verts) <= 1:
        return MeasureValue.exact(0)
    if len(verts) == 2:
        d = sub(verts[1], verts[0])
        lo, hi = sqrt_interval(dot(d, d), tol)
        return MeasureValue.interval(2 * lo, 2 * hi)
    lo_sum = Fraction(0)
    hi_sum = Fraction(0)
    for i in range(len(verts)):
        d = sub(verts[(i + 1) % len(verts)], verts[i])
        lo, hi = sqrt_interval(dot(d, d), tol)
        lo_sum += lo
        hi_sum += hi
    return MeasureValue.interval(lo_sum, hi_sum)


def certified_ge(measure: Measure, body: ConvexBody, bar) -> bool | None:
    """Certified f(body) >= bar, refining interval measures as needed.

    Each of REFINE_ROUNDS rounds divides the tolerance by 2^8; None when the
    interval still straddles the bar after the last one.
    """
    m = measure
    for _ in range(REFINE_ROUNDS):
        got = evaluate(m, body).ge(bar)
        if got is not None:
            return got
        m = m.with_tol(m.tol / 2**8)
    return None


def lattice_points(body: ConvexBody, measure: Measure):
    """All points of S inside a bounded body, sorted lexicographically."""
    if measure.kind != "lattice":
        raise MeasureError("lattice_points needs a lattice measure")
    if body.is_empty:
        return ()
    if not body.bounded:
        raise MeasureError("lattice_points needs a bounded body")
    data = _lattice_data(measure)
    return _enumerate_lattice(body, data)


def _enumerate_lattice(body: ConvexBody, data: _LatticeData):
    verts = body.vertices
    u_verts = [data.to_lattice(v) for v in verts]
    mins, maxs = bounding_box(u_verts)
    lo0, hi0 = math.ceil(mins[0]), math.floor(maxs[0])
    lo1, hi1 = math.ceil(mins[1]), math.floor(maxs[1])
    if lo0 > hi0 or lo1 > hi1:
        return ()
    if (hi0 - lo0 + 1) * (hi1 - lo1 + 1) > ENUM_BUDGET:
        raise MeasureError("lattice enumeration budget exceeded")
    hs = body.halfspaces
    out = []
    for i in range(lo0, hi0 + 1):
        for j in range(lo1, hi1 + 1):
            if not data.in_s((i, j)):
                continue
            z = data.to_ambient((i, j))
            if all(h.contains(z) for h in hs):
                out.append(z)
    out.sort()
    return tuple(out)


def _count_unbounded(body: ConvexBody, data: _LatticeData) -> MeasureValue:
    if not data.s_nonempty:
        return MeasureValue.exact(0)
    hs_u = tuple(
        Halfspace.make(_row_times_mat(tuple(Fraction(c) for c in h.normal), _transpose(data.R)), h.offset)
        for h in body.halfspaces
    )
    rays = _recession_rays_2d(hs_u)
    if not rays:
        raise MeasureError("unbounded body with trivial recession cone")
    independent = any(cross2(rays[0], y) != 0 for y in rays[1:])
    if independent:
        # full-dimensional recession cone: arbitrarily large balls, and S
        # is periodic with positive density, so the count is infinite
        return INFINITE
    y = rays[0]
    return _count_beam(hs_u, y, data)


def _transpose(rows):
    return tuple(tuple(rows[i][j] for i in range(len(rows))) for j in range(len(rows[0])))


def _count_beam(hs_u, y, data: _LatticeData) -> MeasureValue:
    """Count S on a polyhedron whose recession cone is the single direction y."""
    from . import lp

    n_perp = rot90(y)
    rows = [h.normal for h in hs_u]
    rhs = [h.offset for h in hs_u]
    t_bounds = []
    for sgn in (1, -1):
        sol = lp.solve(
            c=tuple(-sgn * Fraction(c) for c in n_perp),
            rows=rows,
            senses=["<="] * len(rows),
            rhs=rhs,
            free=True,
        )
        if sol.status != "optimal":
            raise MeasureError("beam cross-range is unbounded")
        t_bounds.append(sgn * -sol.objective)
    t_hi, t_lo = t_bounds
    a, b = n_perp
    x0, y0 = _ext_gcd_pair(a, b)
    total = 0
    for c in range(math.ceil(t_lo), math.floor(t_hi) + 1):
        p = (c * x0, c * y0)
        lo, hi = None, None  # bounds on the line parameter t
        empty = False
        for h in hs_u:
            const = dot(h.normal, p)
            coef = dot(h.normal, y)
            if coef == 0:
                if const > h.offset:
                    empty = True
                    break
            elif coef > 0:
                bound = (h.offset - const) / coef
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = (h.offset - const) / coef
                lo = bound if lo is None else max(lo, bound)
        if empty or (lo is not None and hi is not None and lo > hi):
            continue
        if lo is not None and hi is not None:
            for t in range(math.ceil(lo), math.floor(hi) + 1):
                if data.in_s((p[0] + t * y[0], p[1] + t * y[1])):
                    total += 1
        else:
            period = data.line_period(y)
            start = math.ceil(lo) if lo is not None else (math.floor(hi) - period + 1 if hi is not None else 0)
            for t in range(start, start + period):
                if data.in_s((p[0] + t * y[0], p[1] + t * y[1])):
                    return INFINITE
    return MeasureValue.exact(total)


def _ext_gcd_pair(a, b):
    """(x, y) with a*x + b*y = 1 for coprime integers a, b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


# -- inscribed approximation ----------------------------------------------


def _ceil_sqrt_fraction(x: Fraction) -> int:
    s = isqrt(math.floor(x))
    while s * s < x:
        s += 1
    return s


def default_vertex_budget(dim: int, eps: Fraction) -> int:
    """max(ceil((2 dim / eps)^((dim-1)/2)), dim+1); the constant 2 is a tunable."""
    if eps <= 0:
        raise MeasureError("vertex budget needs eps > 0")
    base = Fraction(2 * dim) / Fraction(eps)
    if dim == 2:
        val = _ceil_sqrt_fraction(base)
    else:
        val = math.ceil(base ** ((dim - 1) // 2)) if (dim - 1) % 2 == 0 else math.ceil(
            _ceil_sqrt_fraction(base ** (dim - 1))
        )
    return max(val, dim + 1)


def inscribed_polytope(
    measure: Measure,
    body: ConvexBody,
    eps: Fraction,
    max_vertices: int | None = None,
) -> ConvexBody:
    """A polytope P inside the body with few vertices and f(P) >= (1-eps) f(body).

    For volume and perimeter this is a greedy vertex subset (boundary-optimal
    insertions for a polytope occur at vertices, so vertex insertion is
    exhaustive); for lattice measures the construction is the hull of exactly
    ceil((1-eps) * count) points; for the nonemptiness indicator, one point.
    """
    eps = Fraction(eps)
    if body.is_empty:
        raise MeasureError("cannot inscribe into the empty body")
    if not (0 <= eps < 1) and not (eps == 1):
        raise MeasureError("eps must lie in [0, 1]")
    if measure.kind == "nonempty":
        v = min(body.vertices)
        return ConvexBody.from_points([v])
    if measure.kind == "lattice":
        pts = lattice_points(body, measure)
        if not pts:
            raise MeasureError("body contains no points of S")
        need = math.ceil((1 - eps) * len(pts))
        need = max(need, 1)
        return ConvexBody.from_points(pts[:need])
    if not body.bounded:
        raise MeasureError("cannot inscribe into an unbounded body")

    total = evaluate(measure, body)
    verts = body.vertices
    if measure.kind == "volume" and total.exact_value == 0:
        # degenerate body: it is its own best approximation
        return body
    budget = max_vertices if max_vertices is not None else default_vertex_budget(body.dim, eps)
    if body.dim != 2:
        raise MeasureError("inscribed approximation is implemented for 2D bodies")
    if len(verts) <= budget:
        return body

    if total.is_infinite:
        raise MeasureError("cannot inscribe into a body of infinite measure")
    target_bar = (1 - eps) * total.hi

    n = len(verts)
    chosen = _greedy_seed(verts)
    while True:
        P = ConvexBody.from_points([verts[i] for i in sorted(chosen)])
        val = certified_ge(measure, P, target_bar)
        if val is None:
            raise MeasureError("cannot separate measure value from target at available precision")
        if val:
            return P
        if len(chosen) >= budget:
            achieved = evaluate(measure, P)
            ratio_hi = achieved.hi / total.lo if total.lo > 0 else Fraction(0)
            raise InscribedError(
                f"vertex budget {budget} exhausted at ratio <= {ratio_hi}",
                achieved=achieved,
            )
        best_gain = None
        best_i = None
        for i in range(n):
            if i in chosen:
                continue
            gain = _insertion_gain(measure, verts, sorted(chosen), i)
            if best_gain is None or gain > best_gain:
                best_gain = gain
                best_i = i
        chosen.add(best_i)
        if len(chosen) == n:
            return body


def _greedy_seed(verts):
    n = len(verts)
    i0 = 0
    d2 = [sum((a - b) ** 2 for a, b in zip(verts[i], verts[i0])) for i in range(n)]
    i1 = max(range(n), key=lambda i: (d2[i], -i))
    best = None
    i2 = None
    for i in range(n):
        if i in (i0, i1):
            continue
        area = abs(
            (verts[i1][0] - verts[i0][0]) * (verts[i][1] - verts[i0][1])
            - (verts[i1][1] - verts[i0][1]) * (verts[i][0] - verts[i0][0])
        )
        if best is None or area > best:
            best = area
            i2 = i
    return {i0, i1, i2} if i2 is not None else {i0, i1}


def _insertion_gain(measure, verts, chosen_sorted, i):
    """Lower bound on the measure gain from inserting ring vertex i."""
    pos = bisect.bisect_left(chosen_sorted, i)
    prev = verts[chosen_sorted[pos - 1]]
    nxt = verts[chosen_sorted[pos % len(chosen_sorted)]]
    v = verts[i]
    if measure.kind == "volume":
        return abs((prev[0] - v[0]) * (nxt[1] - v[1]) - (prev[1] - v[1]) * (nxt[0] - v[0]))
    a = sub(v, prev)
    b = sub(nxt, v)
    c = sub(nxt, prev)
    la = sqrt_interval(dot(a, a), measure.tol)[0]
    lb = sqrt_interval(dot(b, b), measure.tol)[0]
    lc = sqrt_interval(dot(c, c), measure.tol)[1]
    return la + lb - lc
