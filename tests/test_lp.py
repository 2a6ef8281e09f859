"""Exact simplex tests.

The brute-force oracle enumerates all basic solutions of small standard-form
programs, so any optimum the solver reports must match the best vertex.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quanthelly.lp import LPError, solve

frac = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def oracle_best_vertex(c, rows, rhs, maximize):
    """Enumerate vertices of {x >= 0, Ax <= b} by basis inspection.

    Works for <= constraints with x >= 0 only.  Returns None when the oracle
    itself finds no feasible vertex (possible for empty polyhedra).
    """
    n = len(c)
    m = len(rows)
    # slack form: tight constraint subsets of size n define candidate points
    candidates = [tuple(F(0) for _ in range(n))]
    all_rows = [list(r) for r in rows] + [
        [F(1) if j == i else F(0) for j in range(n)] for i in range(n)
    ]
    all_rhs = list(rhs) + [F(0)] * n
    for combo in itertools.combinations(range(len(all_rows)), n):
        mat = [all_rows[i] for i in combo]
        vec = [all_rhs[i] for i in combo]
        x = _solve_square(mat, vec)
        if x is None:
            continue
        if all(v >= 0 for v in x) and all(
            sum(a * b for a, b in zip(r, x)) <= y for r, y in zip(rows, rhs)
        ):
            candidates.append(tuple(x))
    feas = set(candidates)
    if not all(
        sum(a * b for a, b in zip(r, candidates[0])) <= y
        for r, y in zip(rows, rhs)
    ):
        feas.discard(candidates[0])
    if not feas:
        return None
    vals = [sum(ci * xi for ci, xi in zip(c, x)) for x in feas]
    return max(vals) if maximize else min(vals)


def _solve_square(mat, vec):
    n = len(vec)
    a = [row[:] + [v] for row, v in zip(mat, vec)]
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


def test_basic_max():
    # max x + y st x <= 2, y <= 3
    sol = solve(
        c=[1, 1],
        rows=[[1, 0], [0, 1]],
        senses=["<=", "<="],
        rhs=[2, 3],
        maximize=True,
    )
    assert sol.status == "optimal"
    assert sol.objective == 5
    assert sol.x == (2, 3)


def test_basic_min_with_ge():
    # min x + 2y st x + y >= 4, x <= 3
    sol = solve(
        c=[1, 2],
        rows=[[1, 1], [1, 0]],
        senses=[">=", "<="],
        rhs=[4, 3],
    )
    assert sol.status == "optimal"
    assert sol.objective == 5
    assert sol.x == (3, 1)


def test_equality_constraint():
    sol = solve(
        c=[1, 1],
        rows=[[1, -1], [1, 1]],
        senses=["==", "<="],
        rhs=[0, 10],
        maximize=True,
    )
    assert sol.status == "optimal"
    assert sol.objective == 10
    assert sol.x == (5, 5)


def test_infeasible():
    sol = solve(
        c=[1],
        rows=[[1], [1]],
        senses=["<=", ">="],
        rhs=[1, 2],
    )
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve(c=[1], rows=[[-1]], senses=["<="], rhs=[0], maximize=True)
    assert sol.status == "unbounded"


def test_free_variables():
    # min x st x >= -5 with free x
    sol = solve(c=[1], rows=[[-1]], senses=["<="], rhs=[5], free=True)
    assert sol.status == "optimal"
    assert sol.objective == -5


def test_exact_fractions():
    sol = solve(
        c=[F(1, 3), F(1, 7)],
        rows=[[1, 1]],
        senses=["<="],
        rhs=[F(22, 21)],
        maximize=True,
    )
    assert sol.status == "optimal"
    assert sol.objective == F(22, 63)


def test_duals_satisfy_complementary_slackness():
    sol = solve(
        c=[3, 5],
        rows=[[1, 0], [0, 2], [3, 2]],
        senses=["<=", "<=", "<="],
        rhs=[4, 12, 18],
        maximize=True,
    )
    assert sol.status == "optimal"
    assert sol.objective == 36
    # strong duality: y^T b == objective
    assert sum(y * b for y, b in zip(sol.duals, [4, 12, 18])) == 36


def test_dimension_mismatch_raises():
    with pytest.raises(LPError):
        solve(c=[1, 2], rows=[[1]], senses=["<="], rhs=[1])


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(frac, min_size=n, max_size=n),
            st.lists(
                st.lists(frac, min_size=n, max_size=n), min_size=1, max_size=3
            ),
            st.just(n),
        )
    ),
    st.booleans(),
)
def test_matches_vertex_enumeration(prog, maximize):
    c, rows, n = prog
    rhs = [F(i + 1) for i in range(len(rows))]
    sol = solve(c=c, rows=rows, senses=["<="] * len(rows), rhs=rhs, maximize=maximize)
    want = oracle_best_vertex(c, rows, rhs, maximize)
    if sol.status == "optimal":
        assert want is not None
        assert sol.objective == want
    elif sol.status == "unbounded":
        # oracle only sees vertices; unboundedness means some ray improves,
        # which the vertex scan cannot certify. just require feasibility.
        assert want is not None
    else:
        assert want is None


@given(
    st.lists(frac, min_size=2, max_size=2),
    st.lists(st.lists(frac, min_size=2, max_size=2), min_size=1, max_size=3),
)
def test_optimal_solutions_are_feasible(c, rows):
    rhs = [F(1)] * len(rows)
    sol = solve(c=c, rows=rows, senses=["<="] * len(rows), rhs=rhs, maximize=True)
    if sol.status == "optimal":
        assert all(x >= 0 for x in sol.x)
        for r, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(r, sol.x)) <= b


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any),
            min_size=1,
            max_size=4,
        )
    )
)
def test_covering_duals_are_an_optimal_packing(rows):
    # min 1.x, Ax >= 1 over a 0/1 matrix whose every row holds a 1: the duals
    # are the packing max 1.y, A^T y <= 1, y >= 0, solved here by the oracle
    m, n = len(rows), len(rows[0])
    sol = solve(c=[1] * n, rows=rows, senses=[">="] * m, rhs=[1] * m)
    assert sol.status == "optimal"
    y = sol.duals
    assert all(v >= 0 for v in y)
    for j in range(n):
        assert sum(y[i] * rows[i][j] for i in range(m)) <= 1
    columns = [[rows[i][j] for i in range(m)] for j in range(n)]
    packing = oracle_best_vertex([1] * m, columns, [1] * n, maximize=True)
    assert sum(y) == packing == sol.objective


def test_verify_rejects_tampered_solution():
    # _verify checks the internal minimization; this program is already one
    from dataclasses import replace

    from quanthelly.lp import _verify

    c, rows, senses, rhs = [1, 2], [[1, 1], [1, 0]], [">=", "<="], [4, 3]
    sol = solve(c=c, rows=rows, senses=senses, rhs=rhs)
    _verify(c, rows, senses, rhs, sol)
    tampered = replace(sol, x=(sol.x[0] + 1,) + sol.x[1:])
    with pytest.raises(LPError):
        _verify(c, rows, senses, rhs, tampered)
