"""Piercing families of large convex sets through exact LP duality.

The pipeline: build a finite candidate pool from subfamily intersections and
their floating-body shrinks, solve one covering program per pool exactly (the
fractional transversal; nu* and the packing weights are its certified duals),
and round the transversal to a greedy cover of the family by the candidates of
positive weight.  Every certificate is re-verified by exact containment and
certified measure bounds.

Also here: the fractional Helly witness construction (directional cuts of
(h-1)-tuple intersections, containment-maximal assignment), its colorful
variant (the first class intersection that certifies, starting from the
class the cut argument leaves out), and a direct hypothesis/conclusion
checker for Helly-type implications.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import SCAN_BUDGET, SCAN_SAMPLES, Family, scan_subsets
from .floating import DirectionSet, floating_body, minimal_v_halfspace, perturbed_directions
from .geometry import (
    ConvexBody,
    Halfspace,
    body_contains_body,
    clip,
    convex_hull,
    intersect,
    primitive_vector,
    support,
)
from .lp import LPSolution, solve
from .measures import Measure, MeasureError, certified_ge, evaluate, lattice_points

MAX_FAMILY = 64
MAX_POOL = 4096
GAMMA = Fraction(1, 2)  # share of eps spent on the pool shrink


class PiercingError(ValueError):
    pass


class HypothesisError(PiercingError):
    """The instance violates the stated intersection hypothesis (exit code 2)."""

    def __init__(self, message, violator=None):
        super().__init__(message)
        self.violator = violator


class PoolError(PiercingError):
    """The candidate pool or its budgets cannot support the run (exit code 3).

    stage ("pool", "lp", "round" or "certify") and indices say where it gave up.
    """

    def __init__(self, message, stage=None, indices=()):
        super().__init__(message)
        self.stage = stage
        self.indices = tuple(indices)


class ConclusionError(PiercingError):
    """The hypothesis holds but the stated conclusion fails (exit code 4)."""


def _shrink_body(body: ConvexBody, msr: Measure, eps, extra_dirs=()):
    """Floating-body shrink at level eps; exact point-hull on the sharp path.

    Returns (body, applied).  eps = 0 keeps continuous bodies as they are and
    replaces a discrete body by the hull of its lattice points.
    """
    eps = Fraction(eps)
    if msr.kind == "nonempty":
        return body, False
    if eps == 0:
        if msr.kind == "lattice":
            pts = lattice_points(body, msr)
            if not pts:
                return body, False
            return convex_hull(pts), True
        return body, False
    dirs = list(DirectionSet.axis_diag(body.dim))
    for v in extra_dirs:
        dirs.append(primitive_vector(v))
        dirs.append(tuple(-c for c in primitive_vector(v)))
    return _float_over(body, msr, eps, DirectionSet.custom(dirs)), True


def _float_over(body: ConvexBody, msr: Measure, eps, D) -> ConvexBody:
    """Floating body over D, with directions made generic for lattice points."""
    if msr.kind == "lattice":
        D = perturbed_directions(D, lattice_points(body, msr))
    return floating_body(body, msr, eps, D).body


# -- candidate pool -----------------------------------------------------------


@dataclass(frozen=True)
class CandidatePool:
    candidates: tuple  # ConvexBody
    provenance: tuple  # (member index tuple, shrunk flag)
    thresholds: tuple  # certified measure floor per candidate
    matrix: tuple  # matrix[ci][fi]: candidate ci contained in member fi

    def __len__(self):
        return len(self.candidates)

    def covering(self, fi: int):
        return tuple(ci for ci in range(len(self.candidates)) if self.matrix[ci][fi])


def build_pool(
    F: Family,
    msr: Measure,
    lam,
    eps,
    s_max: int,
    *,
    max_pool: int = MAX_POOL,
) -> CandidatePool:
    """Subfamily intersections with measure >= lam, plus their eps-shrinks.

    Level-wise: a subfamily is intersected (from one of its parents) only if
    every subfamily one member smaller is non-empty and not certified below
    lam, and each distinct body is shrunk once; the pool order is that of the
    exhaustive lexicographic scan.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    if s_max < 1:
        raise PoolError("s_max must be at least 1", "pool")
    n = len(F)
    if n > MAX_FAMILY:
        raise PoolError(f"family size {n} exceeds the cap {MAX_FAMILY}", "pool")

    bodies = []
    provenance = []
    thresholds = []
    seen = {}
    shrinks = {}
    alive = {(): None}  # previous level: subset -> intersection body
    for size in range(1, min(s_max, n) + 1):
        level = {}
        for A in itertools.combinations(range(n), size):
            # measures are monotone: a superset of a failed subset fails too
            if any(A[:j] + A[j + 1 :] not in alive for j in range(size)):
                continue
            if size == 1:
                body = F.members[A[0]]
            else:
                body = intersect([alive[A[:-1]], F.members[A[-1]]])
            if body.is_empty:
                continue
            verdict = certified_ge(msr, body, lam)
            if verdict is False:
                continue
            level[A] = body
            if verdict is None:
                continue
            entries = [(body, False, lam)]
            if body not in shrinks:
                shrinks[body] = _shrink_body(body, msr, eps)
            shrunk, applied = shrinks[body]
            if applied and not shrunk.is_empty:
                entries.append((shrunk, True, (1 - eps) * lam))
            for cand, flag, floor_ in entries:
                if not cand.bounded:
                    continue  # unbounded candidates cannot serve as witnesses
                key = cand
                if key in seen:
                    continue
                seen[key] = len(bodies)
                bodies.append(cand)
                provenance.append((A, flag))
                thresholds.append(floor_)
            if len(bodies) > max_pool:
                raise PoolError(f"candidate pool exceeded {max_pool} entries", "pool", A)
        alive = level

    matrix = tuple(
        tuple(body_contains_body(F.members[fi], cand) for fi in range(n))
        for cand in bodies
    )
    return CandidatePool(
        candidates=tuple(bodies),
        provenance=tuple(provenance),
        thresholds=tuple(thresholds),
        matrix=matrix,
    )


# -- the covering program and its duals ----------------------------------------


def fractional_transversal(F: Family, pool: CandidatePool) -> LPSolution:
    """min sum w(C) over w >= 0 with every member covered by weight >= 1.

    No w <= 1 rows: lowering a weight above 1 to 1 covers the same members for
    less.  lp.solve verifies the duals as an optimal packing (max sum y(F), y >= 0,
    each candidate's members weighing <= 1), so nu* = sum(duals) = tau*.
    """
    n_c = len(pool)
    n_f = len(F)
    if n_c == 0:
        raise PoolError("empty candidate pool", "lp")
    for fi in range(n_f):
        if not pool.covering(fi):
            raise PoolError(f"family member {fi} contains no pool candidate", "lp", (fi,))
    rows = [[1 if pool.matrix[ci][fi] else 0 for ci in range(n_c)] for fi in range(n_f)]
    sol = solve([1] * n_c, rows, [">="] * n_f, [1] * n_f)
    if sol.status != "optimal":
        raise PoolError(f"transversal program ended {sol.status}", "lp")
    return sol


def fractional_packing(F: Family, pool: CandidatePool) -> LPSolution:
    """The maximum fractional packing, as a view of the transversal's duals.

    Solves the one covering program and returns its certified duals as x (the
    member weights), their sum nu* as objective and the transversal weights as
    duals.  pq_pierce reads tau.duals itself and does not call this; it stays
    because it is public API and the benchmark tracer binds it by name.
    """
    tau = fractional_transversal(F, pool)
    return LPSolution("optimal", sum(tau.duals), tau.duals, tau.x, None)


# -- (p,q) hypothesis ----------------------------------------------------------


@dataclass(frozen=True)
class PQCheck:
    holds: bool
    violator: tuple | None
    exhaustive: bool


def check_pq(
    F: Family,
    p: int,
    q: int,
    msr: Measure,
    lam,
) -> PQCheck:
    """Every p members must include q whose intersection measures >= lam."""
    lam = Fraction(lam)
    n = len(F)
    if not (p >= q >= 1):
        raise PiercingError("need p >= q >= 1")
    if n < p:
        raise PiercingError(f"family has {n} < p = {p} members")

    q_cache: dict = {}

    def q_ok(sub) -> bool:
        key = frozenset(sub)
        if key not in q_cache:
            body = intersect([F.members[i] for i in sub])
            q_cache[key] = certified_ge(msr, body, lam) is True
        return q_cache[key]

    def p_fails(psub) -> bool:
        return not any(q_ok(qsub) for qsub in itertools.combinations(psub, q))

    violator, exhaustive = scan_subsets(n, p, p_fails)
    return PQCheck(violator is None, violator, exhaustive)


# -- rounding -------------------------------------------------------------------


@dataclass(frozen=True)
class PiercingCertificate:
    witnesses: tuple  # ConvexBody
    coverage: tuple  # member index -> witness index
    values: tuple  # MeasureValue per witness
    transcript: dict = field(compare=False, default_factory=dict)


def replicate_and_round(
    F: Family, pool: CandidatePool, sol: LPSolution, msr: Measure
) -> PiercingCertificate:
    """Round the fractional transversal to a cover of the family by the pool.

    Every pool candidate inside a member is a certified witness, so a cover
    is a certificate.  Among the candidates of positive weight, repeatedly
    take the one inside the most uncovered members (ties to the lower index);
    the witnesses are the chosen ones in index order.  A 0/1 optimum is a
    minimum cover, so each of its candidates covers a member no other covers
    and the cover is exactly its support; in general |cover| <= H_d * tau*
    (Chvatal 1979), d the most members any one candidate lies in.  The name
    stays from the replication step this replaced: the benchmark tracer
    binds it.
    """
    support = [ci for ci, w in enumerate(sol.x[: len(pool)]) if w > 0]
    inside = {ci: {fi for fi, hit in enumerate(pool.matrix[ci]) if hit} for ci in support}
    uncovered = set(range(len(F)))
    chosen = []
    while uncovered:
        best = max(support, key=lambda ci: (len(inside[ci] & uncovered), -ci))
        if not inside[best] & uncovered:
            break  # weights that cover no more: _assemble names the member
        chosen.append(best)
        uncovered -= inside[best]
    transcript = {
        "tau_star": sol.objective,
        "integral": all(sol.x[ci] == 1 for ci in support),
    }
    return _assemble(F, msr, [pool.candidates[ci] for ci in sorted(chosen)], transcript)


def _assemble(F: Family, msr: Measure, witnesses, transcript) -> PiercingCertificate:
    coverage = []
    for fi, member in enumerate(F.members):
        wi = next(
            (i for i, w in enumerate(witnesses) if body_contains_body(member, w)), None
        )
        if wi is None:
            raise PoolError(
                f"member {fi} contains no witness; the pool or direction set "
                "is too coarse (raise s_max or refine directions)", "round", (fi,),
            )
        coverage.append(wi)
    values = tuple(evaluate(msr, w) for w in witnesses)
    return PiercingCertificate(
        witnesses=tuple(witnesses),
        coverage=tuple(coverage),
        values=values,
        transcript=transcript,
    )


def pq_pierce(
    F: Family,
    p: int,
    q: int,
    msr: Measure,
    lam,
    eps,
    s_max: int | None = None,
) -> PiercingCertificate:
    """End-to-end piercing: hypothesis check, pool, one covering LP, rounding.

    Thresholds split as lam and shrink level gamma*eps with gamma fixed at
    1/2 (recorded in the transcript), so the final witnesses certify measure
    >= (1 - eps) * lam.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise PiercingError("eps must lie in [0, 1)")
    pq = check_pq(F, p, q, msr, lam)
    if not pq.holds:
        raise HypothesisError(
            f"(p,q) hypothesis fails on members {pq.violator}", pq.violator
        )
    if s_max is None:
        h_default = F.dim + 1 if msr.kind == "nonempty" else 2 * F.dim
        s_max = max(q, h_default)
        s_max = min(s_max, len(F))
    shrink = GAMMA * eps
    pool = build_pool(F, msr, lam, shrink, s_max)
    tau = fractional_transversal(F, pool)
    cert = replicate_and_round(F, pool, tau, msr)
    floor_ = (1 - eps) * lam
    for wi, w in enumerate(cert.witnesses):
        if certified_ge(msr, w, floor_) is not True:
            raise PoolError(
                f"witness {wi} cannot certify measure >= {floor_}; "
                "raise s_max or refine the shrink directions", "certify", (wi,),
            )
    transcript = dict(cert.transcript)
    transcript.update(
        {
            "p": p,
            "q": q,
            "lam": lam,
            "eps": eps,
            "gamma": GAMMA,
            "s_max": s_max,
            "pool_size": len(pool),
            "nu_star": sum(tau.duals),
            "pq_exhaustive": pq.exhaustive,
            "pool_limited": s_max < len(F),
        }
    )
    return PiercingCertificate(cert.witnesses, cert.coverage, cert.values, transcript)


# -- fractional and colorful Helly constructions --------------------------------


def _directional_cut(body: ConvexBody, v, msr: Measure, lam):
    """(offset, halfspace) of the minimal v-cut keeping measure lam.

    Nonemptiness uses the supporting halfspace at the v-minimal face.
    """
    if msr.kind == "nonempty":
        lo = -support(body, tuple(-c for c in v))
        if lo == -math.inf:
            raise MeasureError("directional cuts need v-bounded bodies")
        h = Halfspace.make(v, lo)
        return h.offset, h
    h = minimal_v_halfspace(body, v, msr, lam)
    return h.offset, h


@dataclass(frozen=True)
class FractionalHellyResult:
    witness: ConvexBody
    members: tuple  # indices of members verified to contain the witness
    tuple_m: tuple  # the (h-1)-tuple whose cut body generated the witness
    assigned: int  # h-tuples assigned to tuple_m
    transcript: dict = field(compare=False, default_factory=dict)


def fractional_helly_witness(
    F: Family, msr: Measure, lam, eps, h: int, v
) -> FractionalHellyResult:
    """Witness from the most popular containment-maximal directional cut.

    Every qualifying h-tuple is assigned to the (h-1)-subtuple whose minimal
    v-cut has the largest offset (ties to the lexicographically first); the
    most-assigned subtuple's cut body, shrunk at level eps, is the witness.
    """
    lam = Fraction(lam)
    v = primitive_vector(v)
    n = len(F)
    if n < h or h < 2:
        raise PiercingError(f"need h >= 2 and at least h members (h={h}, n={n})")
    if math.comb(n, h) > SCAN_BUDGET:
        raise PoolError(f"h-tuple scan C({n},{h}) exceeds the budget")

    qualifying = []
    for A in itertools.combinations(range(n), h):
        body = intersect([F.members[i] for i in A])
        if certified_ge(msr, body, lam) is True:
            qualifying.append(A)
    if not qualifying:
        raise HypothesisError("no h-tuple reaches the measure threshold")

    cuts: dict = {}

    def cut_for(B):
        if B not in cuts:
            body = intersect([F.members[i] for i in B])
            try:
                cuts[B] = (_directional_cut(body, v, msr, lam), body)
            except MeasureError:
                cuts[B] = (None, body)  # unbounded in -v: no minimal cut
        return cuts[B]

    assigned: dict = {}
    for A in qualifying:
        best = None
        for B in itertools.combinations(A, h - 1):
            cut, _ = cut_for(B)
            if cut is None:
                continue
            alpha = cut[0]
            if best is None or alpha > best[0] or (alpha == best[0] and B < best[1]):
                best = (alpha, B)
        if best is not None:
            assigned[best[1]] = assigned.get(best[1], 0) + 1
    if not assigned:
        raise PoolError("every candidate cut tuple is unbounded against v")

    m_tuple = max(assigned, key=lambda B: (assigned[B], tuple(-i for i in B)))
    (_, h_m), body_m = cut_for(m_tuple)
    kb = clip(body_m, h_m)
    if msr.kind == "nonempty":
        witness = ConvexBody.from_points([min(kb.vertices)])
    else:
        witness = _shrink_body(kb, msr, eps, (v,))[0]
    members = tuple(
        fi for fi in range(n) if body_contains_body(F.members[fi], witness)
    )
    count = assigned[m_tuple]
    floor_report = math.ceil(
        Fraction(count * (n - h + 1), h * math.comb(n, h - 1))
    )
    return FractionalHellyResult(
        witness=witness,
        members=members,
        tuple_m=m_tuple,
        assigned=count,
        transcript={
            "qualifying": len(qualifying),
            "beta_empirical": Fraction(len(qualifying), math.comb(n, h)),
            "counting_floor": floor_report,
            "cut_offset": h_m.offset,
        },
    )


@dataclass(frozen=True)
class ColorfulHellyResult:
    class_index: int
    witness: ConvexBody
    choice: tuple  # (class index, member index) pairs forming the cut tuple
    transcript: dict = field(compare=False, default_factory=dict)


def colorful_helly(classes, msr: Measure, lam, eps, v) -> ColorfulHellyResult:
    """A class whose full intersection certifies measure >= (1 - eps) * lam.

    Hypothesis: every colorful full-length choice intersects with measure at
    least lam (checked, budget-capped).  The containment-maximal colorful
    (h-1)-tuple under the minimal v-cut names the class it leaves out; that
    class is tried first, then the others in ascending order, and the first
    class intersection that certifies is the witness.  ConclusionError when
    none does.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    v = primitive_vector(v)
    h = len(classes)
    if h < 2:
        raise PiercingError("need at least two classes")
    sizes = [len(c) for c in classes]
    total = math.prod(sizes)
    exhaustive = total <= SCAN_BUDGET
    choices = (
        itertools.product(*[range(s) for s in sizes])
        if exhaustive
        else _sampled_products(sizes)
    )
    for choice in choices:
        body = intersect([classes[i].members[j] for i, j in enumerate(choice)])
        if certified_ge(msr, body, lam) is not True:
            raise HypothesisError(
                f"colorful choice {choice} misses the threshold", choice
            )

    best = None  # (alpha, omitted class, member choice)
    for omit in range(h):
        others = [i for i in range(h) if i != omit]
        for pick in itertools.product(*[range(sizes[i]) for i in others]):
            body = intersect(
                [classes[i].members[j] for i, j in zip(others, pick)]
            )
            if body.is_empty:
                continue
            try:
                alpha, _ = _directional_cut(body, v, msr, lam)
            except MeasureError:
                continue
            if best is None or alpha > best[0]:
                best = (alpha, omit, tuple(zip(others, pick)))
    if best is None:
        raise HypothesisError("no colorful cut tuple is measurable")
    alpha, omit, choice = best

    floor_ = (1 - eps) * lam
    values = []
    for k in [omit] + [i for i in range(h) if i != omit]:
        full = intersect(list(classes[k].members))
        if certified_ge(msr, full, floor_) is True:
            return ColorfulHellyResult(
                class_index=k,
                witness=full,
                choice=choice,
                transcript={
                    "alpha": alpha,
                    "omitted": omit,
                    "exhaustive_hypothesis": exhaustive,
                },
            )
        values.append(f"class {k}: {evaluate(msr, full)!r}")
    raise ConclusionError(
        f"no class intersection certifies measure >= {floor_} ({'; '.join(values)})"
    )


def _sampled_products(sizes):
    rng = random.Random(0)
    for _ in range(SCAN_SAMPLES):
        yield tuple(rng.randrange(s) for s in sizes)


# -- direct Helly implication check ---------------------------------------------


@dataclass(frozen=True)
class HellyReport:
    holds: bool  # the implication (not vacuous truth-value of sides)
    hypothesis_holds: bool
    conclusion_holds: bool | None
    violator: tuple | None  # h-subset breaking the hypothesis, if any
    conclusion_value: object  # MeasureValue of the full intersection
    exhaustive: bool


def helly_check(
    F: Family,
    h: int,
    msr: Measure,
    lam,
    eps,
) -> HellyReport:
    """Check: all h-wise intersections >= lam implies full intersection
    >= (1 - eps) * lam."""
    lam = Fraction(lam)
    eps = Fraction(eps)
    n = len(F)
    if n < h:
        raise PiercingError(f"family has {n} < h = {h} members")

    def misses(A) -> bool:
        return certified_ge(msr, intersect([F.members[i] for i in A]), lam) is False

    violator, exhaustive = scan_subsets(n, h, misses)
    hypothesis = violator is None

    whole = intersect(list(F.members))
    value = evaluate(msr, whole)
    conclusion = certified_ge(msr, whole, (1 - eps) * lam)
    holds = not (hypothesis and conclusion is False)
    return HellyReport(
        holds=holds,
        hypothesis_holds=hypothesis,
        conclusion_holds=conclusion,
        violator=violator,
        conclusion_value=value,
        exhaustive=exhaustive,
    )
