"""Piercing families of large convex sets through exact LP duality.

The pipeline: build a finite candidate pool from subfamily intersections and
their floating-body shrinks, solve the fractional transversal and packing
programs exactly (their optima must coincide), replicate candidates by their
rounded weights, and extract an integral witness set via a weak net.  Every
certificate is re-verified by exact containment and certified measure bounds.

Also here: the fractional Helly witness construction (directional cuts of
(h-1)-tuple intersections, containment-maximal assignment), its colorful
variant, and a direct hypothesis/conclusion checker for Helly-type
implications.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import (
    SCAN_BUDGET,
    SCAN_SAMPLES,
    CombinatError,
    Family,
    scan_subsets,
    selection,
    weak_net,
)
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
DENOM_CAP = 2**16
GAMMA = Fraction(1, 2)  # share of eps spent on the pool shrink
REPLICA_CAP = 512


class PiercingError(ValueError):
    pass


class HypothesisError(PiercingError):
    """The instance violates the stated intersection hypothesis (exit code 2)."""

    def __init__(self, message, violator=None):
        super().__init__(message)
        self.violator = violator


class PoolError(PiercingError):
    """The candidate pool or its budgets cannot support the run (exit code 3)."""


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
    transcript: dict = field(compare=False, default_factory=dict)

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
        raise PoolError("s_max must be at least 1")
    n = len(F)
    if n > MAX_FAMILY:
        raise PoolError(f"family size {n} exceeds the cap {MAX_FAMILY}")

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
                raise PoolError(f"candidate pool exceeded {max_pool} entries")
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
        transcript={"s_max": s_max, "lam": lam, "eps": eps, "pool_limited": s_max < n},
    )


# -- the two fractional programs ----------------------------------------------


def fractional_transversal(F: Family, pool: CandidatePool) -> LPSolution:
    """min sum w(C) with every member covered by total candidate weight >= 1."""
    n_c = len(pool)
    n_f = len(F)
    if n_c == 0:
        raise PoolError("empty candidate pool")
    for fi in range(n_f):
        if not pool.covering(fi):
            raise PoolError(f"family member {fi} contains no pool candidate")
    rows, senses, rhs = [], [], []
    for fi in range(n_f):
        rows.append([1 if pool.matrix[ci][fi] else 0 for ci in range(n_c)])
        senses.append(">=")
        rhs.append(1)
    for ci in range(n_c):
        rows.append([1 if j == ci else 0 for j in range(n_c)])
        senses.append("<=")
        rhs.append(1)
    sol = solve([1] * n_c, rows, senses, rhs, maximize=False)
    if sol.status != "optimal":
        raise PoolError(f"transversal program ended {sol.status}")
    return sol


def fractional_packing(F: Family, pool: CandidatePool) -> LPSolution:
    """max sum w(F) with every candidate's containing members weighing <= 1."""
    n_c = len(pool)
    n_f = len(F)
    rows, senses, rhs = [], [], []
    for ci in range(n_c):
        rows.append([1 if pool.matrix[ci][fi] else 0 for fi in range(n_f)])
        senses.append("<=")
        rhs.append(1)
    for fi in range(n_f):
        rows.append([1 if j == fi else 0 for j in range(n_f)])
        senses.append("<=")
        rhs.append(1)
    sol = solve([1] * n_f, rows, senses, rhs, maximize=True)
    if sol.status != "optimal":
        raise PoolError(f"packing program ended {sol.status}")
    return sol


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


# -- replication and rounding ---------------------------------------------------


@dataclass(frozen=True)
class PiercingCertificate:
    witnesses: tuple  # ConvexBody
    coverage: tuple  # member index -> witness index
    values: tuple  # MeasureValue per witness
    transcript: dict = field(compare=False, default_factory=dict)


def replicate_and_round(
    F: Family,
    pool: CandidatePool,
    sol: LPSolution,
    msr: Measure,
    lam,
    eps,
) -> PiercingCertificate:
    """Turn fractional transversal weights into an integral witness set.

    Integral solutions pass through directly.  Otherwise weights are rounded
    up to denominators <= 2^16 (feasibility only improves), every candidate is
    replicated weight * M times, and a weak 1/r-net of the multiset supplies
    the witnesses; each member then contains at least an eps'-fraction of the
    copies, hence a net element.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    weights = [Fraction(w) for w in sol.x[: len(pool)]]
    support_idx = [ci for ci, w in enumerate(weights) if w > 0]
    transcript = {"tau_star": sol.objective}

    if all(weights[ci] == 1 for ci in support_idx):
        witnesses = [pool.candidates[ci] for ci in support_idx]
        transcript.update({"integral": True})
        return _assemble(F, msr, witnesses, transcript)

    rounded = []
    for w in weights:
        if w == 0:
            rounded.append(Fraction(0))
        else:
            rounded.append(min(Fraction(1), Fraction(math.ceil(w * DENOM_CAP), DENOM_CAP)))
    M = 1
    for w in rounded:
        if w > 0:
            M = M * w.denominator // math.gcd(M, w.denominator)
    counts = [int(w * M) for w in rounded]
    total = sum(counts)
    if total > REPLICA_CAP:
        raise PoolError(
            f"replication would need {total} copies (cap {REPLICA_CAP}); "
            "weights too fine for the desk-scale net step"
        )
    copies = []
    for ci, cnt in enumerate(counts):
        copies.extend([pool.candidates[ci]] * cnt)
    tau_rounded = Fraction(total, M)
    transcript.update(
        {"integral": False, "M": M, "copies": total, "tau_rounded": tau_rounded}
    )

    replicas = Family(tuple(copies))
    try:
        if total == M:  # rounded optimum 1: every positive-weight candidate fits all
            witnesses = [selection(replicas, msr, eps).witness]
            transcript["net_iterations"] = 1
        else:
            eps_prime = Fraction(M, total)
            net = weak_net(replicas, msr, eps, eps_prime)
            witnesses = list(net.net)
            transcript.update({"eps_prime": eps_prime, "net_iterations": net.iterations})
    except CombinatError as e:
        raise PoolError(f"cannot round tau* = {sol.objective}: {e}") from e
    return _assemble(F, msr, witnesses, transcript)


def _assemble(F: Family, msr: Measure, witnesses, transcript) -> PiercingCertificate:
    uniq = []
    for w in witnesses:
        if w not in uniq:
            uniq.append(w)
    coverage = []
    for fi, member in enumerate(F.members):
        wi = next(
            (i for i, w in enumerate(uniq) if body_contains_body(member, w)), None
        )
        if wi is None:
            raise PoolError(
                f"member {fi} contains no witness; the pool or direction set "
                "is too coarse (raise s_max or refine directions)"
            )
        coverage.append(wi)
    values = tuple(evaluate(msr, w) for w in uniq)
    return PiercingCertificate(
        witnesses=tuple(uniq),
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
    """End-to-end piercing: hypothesis check, pool, exact LP duality, rounding.

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
    nu = fractional_packing(F, pool)
    if tau.objective != nu.objective:
        raise PiercingError(
            f"duality broke: tau* = {tau.objective} != nu* = {nu.objective}"
        )
    cert = replicate_and_round(F, pool, tau, msr, lam, shrink)
    floor_ = (1 - eps) * lam
    for wi, w in enumerate(cert.witnesses):
        if certified_ge(msr, w, floor_) is not True:
            raise PoolError(
                f"witness {wi} cannot certify measure >= {floor_}; "
                "raise s_max or refine the shrink directions"
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
            "nu_star": nu.objective,
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


def _witness_from_cut(kb: ConvexBody, msr: Measure, eps, v):
    """Shrink the cut body to the final witness at level eps."""
    if msr.kind == "nonempty":
        return ConvexBody.from_points([min(kb.vertices)])
    return _shrink_body(kb, msr, eps, (v,))[0]


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
    witness = _witness_from_cut(kb, msr, eps, v)
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
    """A class whose full intersection contains the witness body.

    Hypothesis: every colorful full-length choice intersects with measure at
    least lam (checked, budget-capped).  The witness is the shrunk cut body of
    a containment-maximal colorful (h-1)-tuple; the class left out of that
    tuple is the reported one, and the containment is verified exactly,
    retrying with finer direction sets before giving up.
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

    best = None  # (alpha, omitted class, member choice, cut halfspace, tuple body)
    for omit in range(h):
        others = [i for i in range(h) if i != omit]
        for pick in itertools.product(*[range(sizes[i]) for i in others]):
            body = intersect(
                [classes[i].members[j] for i, j in zip(others, pick)]
            )
            if body.is_empty:
                continue
            try:
                alpha, hs = _directional_cut(body, v, msr, lam)
            except MeasureError:
                continue
            if best is None or alpha > best[0]:
                best = (alpha, omit, tuple(zip(others, pick)), hs, body)
    if best is None:
        raise HypothesisError("no colorful cut tuple is measurable")
    alpha, omit, choice, hs, body = best
    kb = clip(body, hs)

    target = intersect(list(classes[omit].members))
    refinable = msr.kind != "nonempty" and eps > 0
    schedules = [None]
    if refinable:
        schedules += [DirectionSet.farey(3), DirectionSet.farey(5)]
    witness = None
    for extra in schedules:
        if extra is None:
            cand = _witness_from_cut(kb, msr, eps, v)
        else:
            cand = _float_over(kb, msr, eps, extra)
        if body_contains_body(target, cand):
            witness = cand
            break
    if witness is None:
        raise PoolError(
            "witness verification failed at every direction refinement; "
            "the outer approximation is too coarse for this instance"
        )
    return ColorfulHellyResult(
        class_index=omit,
        witness=witness,
        choice=choice,
        transcript={"alpha": alpha, "exhaustive_hypothesis": exhaustive},
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
