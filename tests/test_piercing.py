"""Piercing pipeline tests.

LP oracle: exhaustive vertex enumeration over the tiny transversal/packing
programs.  Certificates are torn apart and re-verified from scratch; the
candidate pool's containment matrix is re-checked exactly.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quanthelly import piercing
from quanthelly.combinat import Family
from quanthelly.geometry import (
    ConvexBody,
    body_contains_body,
    contains,
    convex_hull,
    intersect,
)
from quanthelly.measures import Measure, certified_ge, evaluate
from quanthelly.piercing import (
    HypothesisError,
    PoolError,
    _shrink_body,
    build_pool,
    check_pq,
    colorful_helly,
    fractional_helly_witness,
    fractional_packing,
    fractional_transversal,
    helly_check,
    pq_pierce,
    replicate_and_round,
)

VOL = Measure.volume()
LAT = Measure.lattice()
NE = Measure.nonempty()


def box(x0, y0, x1, y1):
    return convex_hull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def three_squares():
    return Family((box(0, 0, 2, 2), box(1, 0, 3, 2), box(2, 0, 4, 2)))


def pentagon_edge_boxes():
    """Boxes around the five edges of a pentagon, widened by 2.

    Only neighbours meet, so every 3 members hold 2 that meet, and
    tau* = nu* = 5/2.
    """
    verts = [(10, 0), (3, 10), (-8, 6), (-8, -6), (3, -10)]
    boxes = []
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        boxes.append(
            box(min(ax, bx) - 2, min(ay, by) - 2, max(ax, bx) + 2, max(ay, by) + 2)
        )
    return Family(tuple(boxes))


def oracle_transversal(pool, n_members):
    """Minimum fractional transversal by vertex enumeration.

    Candidates with identical coverage columns are interchangeable in the
    LP, so the oracle keeps one variable per distinct column.  Then every
    vertex of the feasible region is the solution of some square system
    drawn from {coverage rows, w_i = 0, w_i = 1}.
    """
    import itertools as it

    columns = sorted(
        {
            tuple(pool.matrix[ci][fi] for fi in range(n_members))
            for ci in range(len(pool.candidates))
        }
    )
    nc = len(columns)
    rows = []
    rhs = []
    for fi in range(n_members):
        rows.append([F(1) if columns[ci][fi] else F(0) for ci in range(nc)])
        rhs.append(F(1))
    planes = [(r[:], b) for r, b in zip(rows, rhs)]
    for i in range(nc):
        e = [F(0)] * nc
        e[i] = F(1)
        planes.append((e[:], F(0)))
        planes.append((e[:], F(1)))
    best = None
    for combo in it.combinations(range(len(planes)), nc):
        mat = [planes[i][0] for i in combo]
        vec = [planes[i][1] for i in combo]
        x = _solve_square(mat, vec)
        if x is None:
            continue
        if any(v < 0 or v > 1 for v in x):
            continue
        if not all(
            sum(a * w for a, w in zip(r, x)) >= b for r, b in zip(rows, rhs)
        ):
            continue
        val = sum(x)
        if best is None or val < best:
            best = val
    return best


def _solve_square(mat, vec):
    n = len(vec)
    a = [list(row) + [v] for row, v in zip(mat, vec)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = F(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# ---------------------------------------------------------------- candidate pool

def test_pool_three_squares_pairs():
    fam = three_squares()
    pool = build_pool(fam, VOL, F(1), F(1, 8), 2)
    # adjacent pairs overlap in area-2 rectangles; the outer pair is disjoint
    provs = {p[0] for p in pool.provenance}
    assert (0, 1) in provs and (1, 2) in provs
    assert (0, 2) not in provs


def test_pool_matrix_is_exact():
    fam = three_squares()
    pool = build_pool(fam, VOL, F(1), F(1, 8), 2)
    for ci, cand in enumerate(pool.candidates):
        for fi, mem in enumerate(fam.members):
            assert pool.matrix[ci][fi] == body_contains_body(mem, cand)


def test_pool_thresholds_hold():
    fam = three_squares()
    pool = build_pool(fam, VOL, F(1), F(1, 8), 2)
    for cand, bar in zip(pool.candidates, pool.thresholds):
        v = evaluate(VOL, cand)
        assert v.lo >= bar


def exhaustive_pool(fam, msr, lam, eps, s_max):
    """Reference pool: every subset up to s_max, each intersected from scratch."""
    bodies, provenance, thresholds = [], [], []
    for size in range(1, min(s_max, len(fam)) + 1):
        for A in itertools.combinations(range(len(fam)), size):
            body = intersect([fam.members[i] for i in A])
            if body.is_empty or certified_ge(msr, body, lam) is not True:
                continue
            entries = [(body, False, lam)]
            shrunk, applied = _shrink_body(body, msr, eps)
            if applied and not shrunk.is_empty:
                entries.append((shrunk, True, (1 - eps) * lam))
            for cand, flag, floor_ in entries:
                if cand.bounded and cand not in bodies:
                    bodies.append(cand)
                    provenance.append((A, flag))
                    thresholds.append(floor_)
    matrix = [
        tuple(body_contains_body(mem, cand) for mem in fam.members) for cand in bodies
    ]
    return bodies, provenance, thresholds, matrix


@st.composite
def clustered_boxes(draw):
    """Up to 7 axis-parallel boxes in eighths, spread over disjoint clusters."""
    n = draw(st.integers(1, 7))
    clusters = draw(st.integers(1, 3))
    members = []
    for _ in range(n):
        dx = 8 * draw(st.integers(0, clusters - 1))
        x0, y0 = draw(st.integers(0, 24)), draw(st.integers(0, 24))
        w, h = draw(st.integers(1, 24)), draw(st.integers(1, 24))
        members.append(box(dx + F(x0, 8), F(y0, 8), dx + F(x0 + w, 8), F(y0 + h, 8)))
    return Family(tuple(members))


BARS = {
    "volume": (VOL, (F(1, 4), F(1), F(2))),
    "perimeter": (Measure.perimeter(), (F(2), F(4), F(6))),
    "lattice": (LAT, (F(1), F(2), F(4))),
    "nonempty": (NE, (F(1),)),
}


@pytest.mark.parametrize("kind", sorted(BARS))
@settings(max_examples=30)
@given(
    fam=clustered_boxes(),
    bar=st.integers(0, 2),
    eps=st.sampled_from([F(0), F(1, 8)]),
    s_max=st.sampled_from([1, 2, 3, None]),
)
def test_pool_equals_exhaustive_pool(kind, fam, bar, eps, s_max):
    msr, bars = BARS[kind]
    lam = bars[bar % len(bars)]
    s_max = s_max or len(fam)
    pool = build_pool(fam, msr, lam, eps, s_max)
    bodies, provenance, thresholds, matrix = exhaustive_pool(fam, msr, lam, eps, s_max)
    assert list(pool.candidates) == bodies
    assert list(pool.provenance) == provenance
    assert list(pool.thresholds) == thresholds
    assert list(pool.matrix) == matrix


def _counting(monkeypatch, name):
    calls = []
    orig = getattr(piercing, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(piercing, name, counted)
    return calls


def test_pool_skips_supersets_of_disjoint_pairs(monkeypatch):
    # four disjoint clusters of three rectangles that pairwise share lattice points
    fam = Family(
        tuple(
            box(10 * c + i, 0, 10 * c + i + 4, 3) for c in range(4) for i in range(3)
        )
    )
    calls = _counting(monkeypatch, "intersect")
    pool = build_pool(fam, LAT, 2, 0, 4)
    # singletons are the members themselves; then all 66 pairs and only the 4
    # in-cluster triples, as every 4-subset holds a triple across clusters
    # (an exhaustive scan intersects all 793 subsets)
    assert len(calls) == 66 + 4
    assert len(pool) == 12 + 3 * 4  # each triple equals its outer pair


def test_pool_floats_each_distinct_body_once(monkeypatch):
    # in each cluster every pair and the triple meet in the same base square
    fam = Family(
        tuple(
            b
            for dx in (0, 10)
            for b in (box(dx, 0, dx + 4, 2), box(dx, 0, dx + 2, 4), box(dx - 2, -2, dx + 2, 2))
        )
    )
    calls = _counting(monkeypatch, "_float_over")
    build_pool(fam, VOL, 1, F(1, 8), 3)
    passing = {
        body
        for size in (1, 2, 3)
        for A in itertools.combinations(range(len(fam)), size)
        for body in [intersect([fam.members[i] for i in A])]
        if not body.is_empty and certified_ge(VOL, body, 1) is True
    }
    assert len(passing) == 6 + 2  # the members and the two base squares
    assert len(calls) == len(passing)


# ------------------------------------------------------------------ LP duality

def test_three_squares_tau_nu_exact():
    fam = three_squares()
    pool = build_pool(fam, VOL, F(1), F(1, 8), 2)
    tau = fractional_transversal(fam, pool)
    nu = fractional_packing(fam, pool)
    assert tau.status == "optimal" and nu.status == "optimal"
    assert tau.objective == 2
    assert nu.objective == 2
    assert tau.objective == oracle_transversal(pool, len(fam))


def test_single_body_tau_one():
    fam = Family((box(0, 0, 2, 2),))
    pool = build_pool(fam, VOL, F(1), F(1, 8), 1)
    tau = fractional_transversal(fam, pool)
    assert tau.objective == 1


def test_duality_on_random_families():
    rng = random.Random(5)
    for _ in range(25):
        mems = []
        for _ in range(rng.randint(2, 5)):
            x = rng.randint(0, 6)
            y = rng.randint(0, 6)
            w = rng.randint(2, 5)
            h = rng.randint(2, 5)
            mems.append(box(x, y, x + w, y + h))
        fam = Family(tuple(mems))
        try:
            pool = build_pool(fam, VOL, F(1), F(0), min(len(fam), 3))
            tau = fractional_transversal(fam, pool)
        except PoolError:
            continue
        nu = fractional_packing(fam, pool)
        assert tau.objective == nu.objective
        # transversal solution must actually cover every member
        for fi in range(len(fam)):
            covered = sum(
                tau.x[ci]
                for ci in range(len(pool.candidates))
                if pool.matrix[ci][fi]
            )
            assert covered >= 1
        # weak duality: random feasible member weights never beat tau*
        for _ in range(5):
            w = [F(rng.randint(0, 3), 3) for _ in fam.members]
            feasible = all(
                sum(w[fi] for fi in range(len(fam)) if pool.matrix[ci][fi]) <= 1
                for ci in range(len(pool.candidates))
            )
            if feasible:
                assert sum(w) <= tau.objective


def test_transversal_uncoverable_member_raises():
    # second member shares nothing with anyone and itself fails the bar
    fam = Family((box(0, 0, 2, 2), box(10, 10, F(21, 2), F(21, 2))))
    with pytest.raises(PoolError, match="1"):
        pool = build_pool(fam, VOL, F(1), F(1, 8), 2)
        fractional_transversal(fam, pool)


# --------------------------------------------------------------------- check_pq

def test_check_pq_three_squares():
    fam = three_squares()
    res = check_pq(fam, 3, 2, VOL, F(1))
    assert res.holds
    assert res.exhaustive


def test_check_pq_disjoint_violator():
    fam = Family((box(0, 0, 1, 1), box(5, 5, 6, 6), box(10, 0, 11, 1)))
    res = check_pq(fam, 2, 2, VOL, F(1))
    assert not res.holds
    assert res.violator is not None
    a, b = res.violator
    inter = intersect([fam.members[a], fam.members[b]])
    assert evaluate(VOL, inter).hi < 1


def test_check_pq_sampled_when_subsets_exceed_budget():
    # C(40, 10) > 10**6 p-subsets: the scan samples and says so
    fam = Family(tuple(box(0, 0, 2, 2) for _ in range(40)))
    res = check_pq(fam, 10, 1, VOL, F(1))
    assert res.holds
    assert res.exhaustive is False


def test_check_pq_unit_subsets():
    fam = Family((box(0, 0, 2, 2), box(5, 5, 6, 6)))
    assert check_pq(fam, 1, 1, VOL, F(1)).holds
    assert not check_pq(fam, 1, 1, VOL, F(2)).holds


# ----------------------------------------------------------------- pq_pierce

def test_pq_pierce_three_squares_certificate():
    fam = three_squares()
    cert = pq_pierce(fam, 3, 2, VOL, F(1), F(1, 8))
    assert len(cert.witnesses) <= 2
    for w, v in zip(cert.witnesses, cert.values):
        assert v.lo >= F(7, 8)
    # coverage re-verified from scratch; coverage[i] names the witness in F_i
    assert len(cert.coverage) == len(fam)
    for fi, wi in enumerate(cert.coverage):
        assert body_contains_body(fam.members[fi], cert.witnesses[wi])


def test_pq_pierce_copies_single_witness():
    sq = box(0, 0, 2, 2)
    fam = Family((sq, sq, sq, sq))
    cert = pq_pierce(fam, 2, 2, VOL, F(1), F(1, 8))
    assert len(cert.witnesses) == 1


def test_pq_pierce_hypothesis_violation():
    fam = Family((box(0, 0, 1, 1), box(5, 5, 6, 6), box(10, 0, 11, 1)))
    with pytest.raises(HypothesisError):
        pq_pierce(fam, 2, 2, VOL, F(1), F(1, 8))


def test_pq_pierce_lattice_sharp_path():
    # two clusters of rectangles, each cluster pinned on one lattice point
    def thin(px, py, dx, dy):
        return box(px - F(dx, 8), py - F(dy, 8), px + F(9 - dx, 8), py + F(9 - dy, 8))

    mems = []
    for px, py in [(0, 0), (5, 3)]:
        for k in range(4):
            mems.append(thin(px, py, k + 1, (k * 3) % 7 + 1))
    fam = Family(tuple(mems))
    cert = pq_pierce(fam, 4, 2, LAT, F(1), F(0))
    assert len(cert.witnesses) <= 2
    for w, v in zip(cert.witnesses, cert.values):
        assert v.exact_value >= 1
    assert len(cert.coverage) == len(fam)
    for fi, wi in enumerate(cert.coverage):
        assert body_contains_body(fam.members[fi], cert.witnesses[wi])


def test_pq_pierce_transcript_fields():
    cert = pq_pierce(three_squares(), 3, 2, VOL, F(1), F(1, 8))
    t = cert.transcript
    assert t["tau_star"] == t["nu_star"] == 2
    assert t["p"] == 3 and t["q"] == 2
    assert t["pq_exhaustive"]


@pytest.mark.parametrize("msr, eps", [(VOL, F(1, 8)), (LAT, F(0)), (NE, F(0))])
def test_pq_pierce_fractional_tau_is_pool_error(msr, eps):
    # rounding tau* = 5/2 is out of reach of the net step: a pool error
    fam = pentagon_edge_boxes()
    assert check_pq(fam, 3, 2, msr, F(1)).holds
    with pytest.raises(PoolError):
        pq_pierce(fam, 3, 2, msr, F(1), eps)


# ------------------------------------------------------- replicate_and_round

def test_replicate_integral_fast_path():
    fam = three_squares()
    pool = build_pool(fam, VOL, F(1), F(1, 8), 2)
    tau = fractional_transversal(fam, pool)
    if all(w in (0, 1) for w in tau.x):
        cert = replicate_and_round(fam, pool, tau, VOL, F(1), F(1, 8))
        assert len(cert.witnesses) == sum(1 for w in tau.x if w == 1)


# ---------------------------------------------------------- fractional Helly

def test_fractional_helly_three_squares_hand_cut():
    fam = three_squares()
    res = fractional_helly_witness(fam, VOL, F(1), F(1, 8), 2, (1, 0))
    # the overlap rectangles have area 2; cutting to area 1 along (1,0)
    # lands at x = 3/2 for the pair {0,1}
    assert res.transcript["cut_offset"] == F(3, 2)
    assert len(res.members) >= 2
    for fi in res.members:
        assert body_contains_body(fam.members[fi], res.witness)


def test_fractional_helly_identical_members():
    sq = box(0, 0, 2, 2)
    fam = Family((sq, sq, sq, sq))
    res = fractional_helly_witness(fam, VOL, F(1), F(1, 8), 2, (1, 0))
    assert sorted(res.members) == [0, 1, 2, 3]


def test_fractional_helly_discrete_sharp():
    # six rectangles all pinned on the origin; eps=0 discrete path returns
    # the hull of surviving lattice points
    mems = []
    for k in range(6):
        mems.append(
            box(-F(k + 1, 7), -F(k + 2, 9), F(k + 2, 7), F(k + 1, 9))
        )
    fam = Family(tuple(mems))
    res = fractional_helly_witness(fam, LAT, F(1), F(0), 4, (7, 1))
    assert sorted(res.witness.vertices) == [(0, 0)]
    assert sorted(res.members) == list(range(6))


def test_fractional_helly_no_qualifying_tuple():
    fam = Family((box(0, 0, 1, 1), box(5, 5, 6, 6)))
    with pytest.raises(HypothesisError):
        fractional_helly_witness(fam, VOL, F(1), F(1, 8), 2, (1, 0))


# -------------------------------------------------------------- helly_check

def bkp_family(s=F(1, 10)):
    """Three slabs and one extra: pairwise/triple-wise huge, total tiny."""
    from quanthelly.geometry import Halfspace

    hs = [
        Halfspace.make((1, 0), s),
        Halfspace.make((-1, 0), 0),
        Halfspace.make((0, 1), s),
        Halfspace.make((0, -1), 0),
    ]
    mems = [
        ConvexBody.from_halfspaces([hs[0]], 2),
        ConvexBody.from_halfspaces([hs[1]], 2),
        ConvexBody.from_halfspaces([hs[2]], 2),
        ConvexBody.from_halfspaces([hs[3]], 2),
    ]
    return Family(tuple(mems))


def test_helly_check_halfplane_family_dichotomy():
    fam = bkp_family()
    # every 3 of the 4 halfplanes leave an unbounded (infinite-area) wedge,
    # so the h=3 hypothesis holds at lam=1, yet the full intersection is the
    # tiny s x s square
    rep3 = helly_check(fam, 3, VOL, F(1), F(0))
    assert rep3.hypothesis_holds
    assert rep3.conclusion_holds is False
    assert not rep3.holds
    assert rep3.conclusion_value.exact_value == F(1, 100)
    rep4 = helly_check(fam, 4, VOL, F(1, 100), F(0))
    assert rep4.holds


def test_helly_check_lattice_family():
    mems = tuple(box(-k, -k, k + 1, k + 1) for k in range(5))
    fam = Family(mems)
    rep = helly_check(fam, 4, LAT, F(1), F(0))
    assert rep.holds
    assert rep.hypothesis_holds and rep.conclusion_holds


def test_helly_check_reports_violator():
    fam = Family((box(0, 0, 1, 1), box(5, 5, 6, 6), box(0, 5, 1, 6)))
    rep = helly_check(fam, 2, VOL, F(1), F(0))
    assert not rep.hypothesis_holds
    assert rep.violator is not None
    assert rep.holds  # implication is vacuous


# ------------------------------------------------------------ colorful Helly

def test_colorful_helly_classic():
    # three classes; class hulls arranged so rainbow intersections are fat
    c0 = Family((box(0, 0, 4, 4), box(1, 0, 5, 4)))
    c1 = Family((box(0, 1, 4, 6), box(0, 0, 4, 5)))
    c2 = Family((box(1, 1, 3, 3), box(0, 0, 3, 3)))
    res = colorful_helly([c0, c1, c2], VOL, F(1), F(0), (1, 0))
    cls = [c0, c1, c2][res.class_index]
    full = intersect(list(cls.members))
    assert body_contains_body(full, res.witness)


def test_colorful_helly_discrete():
    # classes of rectangles all pinned on the origin lattice point
    def pinned(dx, dy):
        return box(-F(dx, 8), -F(dy, 8), F(9 - dx, 8), F(9 - dy, 8))

    classes = [
        Family((pinned(1, 2), pinned(2, 1))),
        Family((pinned(3, 4), pinned(4, 3))),
        Family((pinned(5, 6), pinned(6, 5))),
        Family((pinned(7, 1), pinned(1, 7))),
    ]
    res = colorful_helly(classes, LAT, F(1), F(0), (7, 1))
    full = intersect(list(classes[res.class_index].members))
    assert body_contains_body(full, res.witness)
    assert evaluate(LAT, res.witness).exact_value >= 1


def test_colorful_helly_hypothesis_failure():
    far = Family((box(50, 50, 51, 51),))
    near = Family((box(0, 0, 1, 1),))
    with pytest.raises(HypothesisError):
        colorful_helly([far, near, near], VOL, F(1), F(0), (1, 0))
