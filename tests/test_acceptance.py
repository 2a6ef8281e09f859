"""End-to-end acceptance checks, one test per criterion.

Each test drives the public API at a fixed scale, verifies every claim with
exact arithmetic or an independent exhaustive oracle, and enforces a wall
clock budget.  Run with -v to get one pass/fail line per criterion; each
test also prints a summary line with the elapsed time.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from quanthelly import (
    Family,
    GeneratorSpec,
    Measure,
    build_pool,
    colorful_caratheodory,
    colorful_helly,
    floating_body,
    fractional_helly_witness,
    fractional_packing,
    fractional_transversal,
    generate,
    helly_check,
    named_directions,
    pq_pierce,
    run_experiment,
    tverberg_partition,
    weak_net,
)
from quanthelly.geometry import (
    ConvexBody,
    body_contains_body,
    contains,
    convex_hull,
    intersect,
)
from quanthelly.measures import certified_ge, evaluate, lattice_points
from quanthelly.piercing import PoolError

VOL = Measure.volume()
LAT = Measure.lattice()
NE = Measure.nonempty()


def box(x0, y0, x1, y1):
    return ConvexBody.from_points([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _pass(num, t0, budget, detail):
    elapsed = time.time() - t0
    print(f"criterion {num}: PASS in {elapsed:.1f}s (budget {budget}s) - {detail}")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


# ------------------------------------------------------- 1: exact LP duality


def random_box_family(rng, n_lo, n_hi):
    n = rng.randint(n_lo, n_hi)
    mem = []
    for _ in range(n):
        x0 = F(rng.randint(0, 12), 2)
        y0 = F(rng.randint(0, 12), 2)
        w = F(rng.randint(3, 8), 2)  # sides >= 3/2 so every box holds a
        h = F(rng.randint(3, 8), 2)  # lattice point and has volume >= 1
        mem.append(box(x0, y0, x0 + w, y0 + h))
    return Family(tuple(mem))


def test_criterion_01_lp_duality_exact():
    t0 = time.time()
    rng = random.Random(1001)
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 2000, "instance rejection rate out of control"
        fam = random_box_family(rng, 3, 7)
        msr = VOL if done % 2 == 0 else LAT
        try:
            pool = build_pool(fam, msr, 1, F(0), 2, max_pool=40)
            t = fractional_transversal(fam, pool)
            p = fractional_packing(fam, pool)
        except PoolError:
            continue
        n_f, n_c = len(fam), len(pool)
        assert n_f <= 10 and n_c <= 40
        assert t.status == "optimal" and p.status == "optimal"
        # zero-tolerance duality
        assert t.objective == p.objective
        x, y = t.x, p.x
        cover = [
            sum(x[ci] for ci in range(n_c) if pool.matrix[ci][fi])
            for fi in range(n_f)
        ]
        load = [
            sum(y[fi] for fi in range(n_f) if pool.matrix[ci][fi])
            for ci in range(n_c)
        ]
        # mutual feasibility
        assert all(0 <= x[ci] <= 1 for ci in range(n_c))
        assert all(0 <= y[fi] <= 1 for fi in range(n_f))
        assert all(c >= 1 for c in cover)
        assert all(l <= 1 for l in load)
        # complementary slackness, exact on both sides
        for fi in range(n_f):
            assert y[fi] == 0 or cover[fi] == 1
        for ci in range(n_c):
            assert x[ci] == 0 or load[ci] == 1
        done += 1
    _pass(1, t0, 30, "200 instances, tau*=nu* with verified certificates")


# ------------------------------------- 2: lattice tightness and upper bound


def test_criterion_02_lattice_helly():
    t0 = time.time()
    wit = generate(GeneratorSpec("doignon-witness", {}, 0))
    assert len(wit) == 4
    for A in itertools.combinations(range(4), 3):
        tri = intersect([wit.members[i] for i in A])
        assert len(lattice_points(tri, LAT)) >= 1
    full = intersect(list(wit.members))
    assert lattice_points(full, LAT) == ()

    for seed in range(500):
        # the rejection loop is geometric; the default 500-try cap leaves a
        # per-seed failure chance visible at this scale, so raise it
        fam = generate(GeneratorSpec("lattice-family", {"tries": 20000}, seed))
        n = len(fam)
        for A in itertools.combinations(range(n), 4):
            sub = intersect([fam.members[i] for i in A])
            assert len(lattice_points(sub, LAT)) >= 1
        whole = intersect(list(fam.members))
        assert len(lattice_points(whole, LAT)) >= 1
    _pass(2, t0, 60, "witness family sharp at 4, 500/500 families conclude")


# ------------------------------- 3: volume dichotomy and the heavy overlap


def test_criterion_03_volume_dichotomy():
    t0 = time.time()
    fam = generate(GeneratorSpec("bkp-counterexample", {"s": "1/10"}, 0))
    rep = helly_check(fam, 3, VOL, 1, 0)
    assert rep.hypothesis_holds is True
    assert rep.conclusion_holds is False
    assert rep.holds is False
    assert rep.conclusion_value.exact_value == F(1, 100)

    for seed in range(200):
        fam = generate(GeneratorSpec("volume-family", {}, seed))
        n = len(fam)
        for A in itertools.combinations(range(n), 4):
            sub = intersect([fam.members[i] for i in A])
            assert evaluate(VOL, sub).ge(1) is True
        whole = evaluate(VOL, intersect(list(fam.members)))
        assert whole.exact_value >= F(1, 16)
    _pass(3, t0, 120, "3-wise dichotomy at 1/100, 200/200 families >= 1/16")


# ------------------------------------------- 4: floating body, exact + trend


def test_criterion_04_floating_body():
    t0 = time.time()
    square = box(0, 0, 1, 1)
    axis = named_directions("axis")
    fb = floating_body(square, VOL, F(1, 4), axis)
    assert fb.body == box(F(1, 4), F(1, 4), F(3, 4), F(3, 4))
    assert fb.delta.exact_value == F(3, 4)

    schemes = ["axis", "axis-diag", "farey:3"]
    dirsets = [named_directions(s) for s in schemes]
    vecs = [set(tuple(v) for v in d) for d in dirsets]
    assert vecs[0] < vecs[1] < vecs[2]  # strict refinement chain

    eps_chain = [F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    grid = {}
    for s, d in zip(schemes, dirsets):
        for eps in eps_chain:
            grid[s, eps] = floating_body(square, VOL, eps, d)
    for s in schemes:
        for e_big, e_small in zip(eps_chain, eps_chain[1:]):
            big, small = grid[s, e_big], grid[s, e_small]
            # shrinking eps grows the body and lowers delta, exactly
            assert body_contains_body(small.body, big.body)
            assert small.delta.exact_value <= big.delta.exact_value
    for eps in eps_chain:
        for s_coarse, s_fine in zip(schemes, schemes[1:]):
            coarse, fine = grid[s_coarse, eps], grid[s_fine, eps]
            assert body_contains_body(coarse.body, fine.body)
            assert fine.delta.exact_value >= coarse.delta.exact_value

    rep = run_experiment({
        "kind": "floating-sweep",
        "seed": 0,
        "params": {
            "eps_list": ["1/4", "1/16", "1/64", "1/256", "1/1024"],
            "dirs": "farey:7",
        },
    })
    exponent = rep.aggregates["fitted_exponent"]
    assert exponent is not None and 0.5 <= exponent <= 0.9
    _pass(4, t0, 60, f"exact at 1/4, 5x3 grid monotone, exponent {exponent}")


# --------------------------------------------------- 5: point-mode Tverberg


def canonical_partitions(n, m):
    """All set partitions of range(n) into exactly m parts, as assignments
    with part labels in order of first appearance."""
    assign = [-1] * n
    out = []

    def rec(i, used):
        if i == n:
            if used == m:
                out.append(tuple(assign))
            return
        if used + (n - i) < m:
            return
        for part in range(min(used + 1, m)):
            assign[i] = part
            rec(i + 1, max(used, part + 1))
        assign[i] = -1

    rec(0, 0)
    return out


def bf_tverberg(points, m, seed):
    """Exhaustive partition search; the scan order is shuffled because valid
    partitions are spread out while the lexicographic prefix packs early
    points into one part and starts with a long dry stretch."""
    n = len(points)
    leaves = canonical_partitions(n, m)
    random.Random(seed).shuffle(leaves)
    hull_cache = {}
    for assign in leaves:
        hulls = []
        for part in range(m):
            key = frozenset(j for j in range(n) if assign[j] == part)
            h = hull_cache.get(key)
            if h is None:
                h = convex_hull([points[j] for j in key])
                hull_cache[key] = h
            hulls.append(h)
        if not intersect(hulls).is_empty:
            return assign
    return None


def test_criterion_05_tverberg_classic():
    t0 = time.time()
    for m in (2, 3, 4):
        n = 3 * (m - 1) + 1
        for seed in range(100):
            fam = generate(GeneratorSpec("point-cloud", {"n": n}, seed))
            pts = [b.vertices[0] for b in fam.members]
            res = tverberg_partition(fam, m, NE)
            flat = sorted(i for part in res.partition for i in part)
            assert flat == list(range(n))  # a genuine partition
            assert len(res.partition) == m
            assert all(part for part in res.partition)
            hulls = [
                convex_hull([pts[i] for i in part]) for part in res.partition
            ]
            assert not intersect(hulls).is_empty
            w = res.witness.vertices[0]
            assert all(contains(h, w) for h in hulls)
            # independent exhaustive search must agree the instance is solvable
            found = bf_tverberg(pts, m, seed)
            assert found is not None
            bf_hulls = [
                convex_hull([pts[j] for j in range(n) if found[j] == part])
                for part in range(m)
            ]
            assert not intersect(bf_hulls).is_empty
    _pass(5, t0, 120, "m=2,3,4 x 100 instances, brute force agrees")


# -------------------------------------------- 6: colorful point selection


def oracle_cc(targets, classes):
    out = []
    for combo in itertools.product(*classes):
        hull = ConvexBody.from_points(combo)
        if all(contains(hull, t) for t in targets):
            out.append(list(combo))
    return out


def test_criterion_06_colorful_caratheodory():
    t0 = time.time()
    rng = random.Random(66)
    done = 0
    while done < 200:
        classes = []
        for _ in range(3):
            x = rng.randint(1, 8)
            y = rng.randint(1, 8)
            # three points spread over thirds of the plane around the origin
            classes.append([(x, y), (-x - y, x - y), (y - x, -x - y)])
        if not all(
            contains(ConvexBody.from_points(c), (0, 0)) for c in classes
        ):
            continue
        choice = colorful_caratheodory([(0, 0)], classes)
        assert len(choice) == 3
        for p, cls in zip(choice, classes):
            assert p in cls
        assert contains(ConvexBody.from_points(choice), (0, 0))
        assert choice in oracle_cc([(0, 0)], classes)
        done += 1

    targets = [(0, 0), (1, 0)]
    done = 0
    while done < 50:
        classes = []
        for _ in range(4):
            cls = [
                (rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(4)
            ]
            classes.append(cls)
        if not all(
            all(contains(ConvexBody.from_points(c), t) for t in targets)
            for c in classes
        ):
            continue
        choice = colorful_caratheodory(targets, classes)
        assert len(choice) == 4
        for p, cls in zip(choice, classes):
            assert p in cls
        hull = ConvexBody.from_points(choice)
        assert all(contains(hull, t) for t in targets)
        assert choice in oracle_cc(targets, classes)
        done += 1
    _pass(6, t0, 60, "200 single-target + 50 two-target, all in oracle set")


# ------------------------------------------------------------- 7: weak nets


def test_criterion_07_weak_net():
    t0 = time.time()
    corners = Family(tuple(
        ConvexBody.from_points([p]) for p in [(0, 0), (1, 0), (0, 1), (1, 1)]
    ))
    res = weak_net(corners, NE, eps_prime=F(3, 4))
    assert len(res.net) == 1
    assert res.certified
    for combo in itertools.combinations(range(4), 3):
        hull = corners.union_hull(combo)
        assert body_contains_body(hull, res.net[0])

    rng = random.Random(77)
    for _ in range(50):
        pts = set()
        while len(pts) < 12:
            pts.add((F(rng.randint(-20, 20), 2), F(rng.randint(-20, 20), 2)))
        T = Family(tuple(ConvexBody.from_points([p]) for p in sorted(pts)))
        res = weak_net(T, NE, eps_prime=F(1, 2))
        assert res.certified
        checked = 0
        for combo in itertools.combinations(range(12), 6):
            hull = T.union_hull(combo)
            assert any(body_contains_body(hull, e) for e in res.net)
            checked += 1
        assert checked == math.comb(12, 6)
    _pass(7, t0, 120, "corner net size 1, 50 x C(12,6) subsets all covered")


# ------------------------------------------------- 8: end-to-end piercing


def test_criterion_08_pq_pipeline():
    t0 = time.time()
    squares = Family((box(0, 0, 2, 2), box(1, 0, 3, 2), box(2, 0, 4, 2)))
    cert = pq_pierce(squares, 3, 2, VOL, 1, F(1, 8))
    assert len(cert.witnesses) <= 2
    for val in cert.values:
        assert val.ge(F(7, 8)) is True
    assert len(cert.coverage) == 3
    for fi, wi in enumerate(cert.coverage):
        assert body_contains_body(squares.members[fi], cert.witnesses[wi])

    fam = generate(GeneratorSpec(
        "clustered-lattice", {"clusters": 3, "per_cluster": 4}, 0
    ))
    assert len(fam) == 12
    cert = pq_pierce(fam, 4, 2, LAT, 1, 0)
    assert len(cert.witnesses) == 3
    points = []
    for w in cert.witnesses:
        pts = lattice_points(w, LAT)
        assert len(pts) == 1  # sharp path collapses each witness to a point
        assert w == ConvexBody.from_points(list(pts))
        points.append(pts[0])
    assert len(set(points)) == 3
    assert len(cert.coverage) == 12
    for fi, wi in enumerate(cert.coverage):
        assert body_contains_body(fam.members[fi], cert.witnesses[wi])
    _pass(8, t0, 60, "3-squares <=2 witnesses at 7/8; 3 lattice points cover 12")


# ---------------------------------------------------- 9: colorful piercing


def test_criterion_09_colorful_helly():
    t0 = time.time()
    rng = random.Random(99)
    vs = [(1, 0), (0, 1), (1, 1)]
    for trial in range(50):
        gx, gy = F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2)
        classes = []
        for _ in range(3):
            mem = []
            for _ in range(rng.randint(2, 3)):
                w = F(rng.randint(2, 9), 2)
                h = F(rng.randint(2, 9), 2)
                mem.append(box(gx, gy, gx + w, gy + h))
            classes.append(Family(tuple(mem)))
        for pick in itertools.product(*[range(len(c)) for c in classes]):
            tri = intersect([classes[k].members[i] for k, i in enumerate(pick)])
            assert not tri.is_empty
        res = colorful_helly(classes, NE, 1, 0, vs[trial % 3])
        full = intersect(list(classes[res.class_index].members))
        assert not res.witness.is_empty
        assert body_contains_body(full, res.witness)
        assert certified_ge(NE, res.witness, 1) is True

    for trial in range(20):
        px, py = rng.randint(-5, 5), rng.randint(-5, 5)
        classes = []
        for _ in range(4):
            mem = []
            for _ in range(2):
                dx, dy = rng.randint(2, 7), rng.randint(2, 7)
                mem.append(box(
                    px - F(dx, 8), py - F(dy, 8),
                    px + F(9 - dx, 8), py + F(9 - dy, 8),
                ))
            classes.append(Family(tuple(mem)))
        # every member traps exactly the pinned lattice point
        for cls in classes:
            for b in cls.members:
                assert lattice_points(b, LAT) == ((px, py),)
        for pick in itertools.product(range(2), repeat=4):
            body = intersect(
                [classes[k].members[i] for k, i in enumerate(pick)]
            )
            assert lattice_points(body, LAT) == ((px, py),)
        res = colorful_helly(classes, LAT, 1, 0, (7, 1))
        full = intersect(list(classes[res.class_index].members))
        assert body_contains_body(full, res.witness)
        assert certified_ge(LAT, res.witness, 1) is True
        assert lattice_points(res.witness, LAT) == ((px, py),)
    _pass(9, t0, 60, "50 point-mode + 20 lattice instances verified")


# ------------------------------------------- 10: popular-intersection pick


def test_criterion_10_fractional_helly_witness():
    t0 = time.time()
    for seed in range(50):
        rng = random.Random(seed)
        clusters = rng.randint(1, 2)
        distractors = rng.randint(0, 3)
        fam = generate(GeneratorSpec(
            "clustered-volume",
            {"clusters": clusters, "per_cluster": 4, "distractors": distractors},
            seed,
        ))
        n = len(fam)
        res = fractional_helly_witness(fam, VOL, 1, F(1, 8), 4, (1, 0))
        # the planted cluster pins the guaranteed fraction at 4/n
        assert F(len(res.members), n) >= F(4, n)
        for i in res.members:
            assert body_contains_body(fam.members[i], res.witness)
    _pass(10, t0, 60, "50 planted instances, witness fraction >= planted")
