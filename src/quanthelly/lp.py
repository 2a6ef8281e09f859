"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense Fraction tableau with Bland's rule,
so termination is guaranteed and every returned solution carries an
exact optimality certificate (primal feasibility, dual feasibility and
complementary slackness are checked before returning; a failed check is
raised as LPError, also under python -O).

Problems are stated as

    min / max  c . x',   rows_i . x'  sense_i  rhs_i,

with x' >= 0 by default, or unrestricted when free=True.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class LPError(ValueError):
    pass


@dataclass(frozen=True)
class LPSolution:
    """Outcome of an exact solve.

    duals follow the natural sign convention for the original problem:
    for a minimization, >= rows have duals >= 0 and <= rows have duals
    <= 0; for a maximization the signs flip.  objective and x are None
    unless status == "optimal".
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None
    x: tuple[Fraction, ...] | None
    duals: tuple[Fraction, ...] | None
    basis: tuple[int, ...] | None


def solve(c, rows, senses, rhs, *, maximize=False, free=False) -> LPSolution:
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(v) for v in rhs]
    senses = list(senses)
    if not all(s in ("<=", ">=", "==") for s in senses):
        raise LPError(f"bad senses {senses!r}")
    if not (len(rows) == len(senses) == len(rhs)):
        raise LPError("row/sense/rhs length mismatch")
    if any(len(r) != len(c) for r in rows):
        raise LPError("row width mismatch")

    n_orig = len(c)
    if maximize:
        c = [-v for v in c]

    # unrestricted variables are split x = u - v
    if free:
        c = c + [-v for v in c]
        rows = [r + [-v for v in r] for r in rows]
    n_split = len(c)

    sol = _simplex_min(c, rows, senses, rhs)
    if sol.status != "optimal":
        return sol

    x = list(sol.x)
    if free:
        x = [x[i] - x[i + n_orig] for i in range(n_orig)]
    obj = sol.objective
    duals = sol.duals
    if maximize:
        obj = -obj
        duals = tuple(-y for y in duals)
    out = LPSolution("optimal", obj, tuple(x), duals, sol.basis)
    _verify(c, rows, senses, rhs, sol)
    return out


def _simplex_min(c, rows, senses, rhs):
    """min c.x, x >= 0.  Returns internal-variable solution."""
    m = len(rows)
    n = len(c)

    # normalize each row to rhs >= 0, remembering the flip for dual signs
    flip = []
    nrows, nsenses, nrhs = [], [], []
    for row, s, b in zip(rows, senses, rhs):
        if b < 0:
            row = [-v for v in row]
            b = -b
            s = {"<=": ">=", ">=": "<=", "==": "=="}[s]
            flip.append(-1)
        else:
            flip.append(1)
        nrows.append(row)
        nsenses.append(s)
        nrhs.append(b)

    # columns: structurals | slacks/surplus | artificials, one unit
    # column per row (slack for <=, artificial for >= and ==)
    slack_of = {}
    art_of = {}
    extra = []
    for i, s in enumerate(nsenses):
        if s == "<=":
            slack_of[i] = n + len(extra)
            extra.append(("slack", i, ONE))
        elif s == ">=":
            slack_of[i] = n + len(extra)
            extra.append(("surplus", i, -ONE))
    n_slack = len(extra)
    for i, s in enumerate(nsenses):
        if s in (">=", "=="):
            art_of[i] = n + n_slack + len(art_of)
    n_art = len(art_of)
    width = n + n_slack + n_art

    tab = []
    for i, row in enumerate(nrows):
        line = row + [ZERO] * (n_slack + n_art)
        if i in slack_of:
            kind, _, coef = extra[slack_of[i] - n]
            line[slack_of[i]] = coef
        if i in art_of:
            line[art_of[i]] = ONE
        line.append(nrhs[i])
        tab.append(line)

    basis = []
    for i, s in enumerate(nsenses):
        basis.append(slack_of[i] if s == "<=" else art_of[i])

    art_cols = set(art_of.values())

    if n_art:
        cost1 = [ZERO] * width
        for j in art_cols:
            cost1[j] = ONE
        status = _run(tab, basis, cost1, banned=set())
        if status != "optimal":
            raise LPError("phase 1 cannot be unbounded")
        val = _objective(tab, basis, cost1)
        if val > 0:
            return LPSolution("infeasible", None, None, None, None)
        # drive any basic artificials out where possible; stuck ones sit
        # at zero in redundant rows and are harmless
        for i in range(m):
            if basis[i] in art_cols and tab[i][-1] == 0:
                for j in range(width):
                    if j not in art_cols and tab[i][j] != 0:
                        _pivot(tab, basis, i, j)
                        break

    cost2 = list(c) + [ZERO] * (n_slack + n_art)
    status = _run(tab, basis, cost2, banned=art_cols)
    if status == "unbounded":
        return LPSolution("unbounded", None, None, None, None)

    x = [ZERO] * width
    for i, bj in enumerate(basis):
        x[bj] = tab[i][-1]
    obj = sum((cost2[j] * x[j] for j in range(width)), ZERO)

    # duals off the final tableau: for the unit column of row i,
    # z_j = y_i, so y_i = (c_B B^-1)_j = c_j - reduced_j with c_j its
    # phase-2 cost (0 for slack and artificial columns)
    red = _reduced_costs(tab, basis, cost2)
    duals = []
    for i, s in enumerate(nsenses):
        if s == "<=":
            y = -red[slack_of[i]]
        elif s == "==":
            y = -red[art_of[i]]
        else:  # ">=": the surplus column is -unit, the artificial is +unit
            y = -red[art_of[i]]
        duals.append(y * flip[i])
    return LPSolution("optimal", obj, tuple(x[:n]), tuple(duals), tuple(basis))


def _reduced_costs(tab, basis, cost):
    width = len(tab[0]) - 1
    red = list(cost)
    for i, bj in enumerate(basis):
        cb = cost[bj]
        if cb != 0:
            row = tab[i]
            for j in range(width):
                if row[j] != 0:
                    red[j] -= cb * row[j]
    return red


def _objective(tab, basis, cost):
    return sum((cost[bj] * tab[i][-1] for i, bj in enumerate(basis)), ZERO)


def _run(tab, basis, cost, banned):
    width = len(tab[0]) - 1
    while True:
        red = _reduced_costs(tab, basis, cost)
        enter = -1
        for j in range(width):  # Bland: lowest eligible index
            if j not in banned and red[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(len(tab)):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter)


def _pivot(tab, basis, i, j):
    piv = tab[i][j]
    tab[i] = [v / piv for v in tab[i]]
    for k in range(len(tab)):
        if k != i and tab[k][j] != 0:
            f = tab[k][j]
            tab[k] = [a - f * b for a, b in zip(tab[k], tab[i])]
    basis[i] = j


def _verify(c, rows, senses, rhs, sol):
    """Exact optimality certificate for the internal minimization."""
    x = sol.x
    y = sol.duals
    n = len(c)
    if len(x) != n:
        raise LPError("solution length")
    # primal feasibility
    for row, s, b in zip(rows, senses, rhs):
        lhs = sum((a * v for a, v in zip(row, x)), ZERO)
        if s == "<=":
            feasible = lhs <= b
        elif s == ">=":
            feasible = lhs >= b
        else:
            feasible = lhs == b
        if not feasible:
            raise LPError("primal infeasible")
    # dual feasibility: sign constraints and A^T y <= c on x >= 0
    for yi, s in zip(y, senses):
        if (s == "<=" and yi > 0) or (s == ">=" and yi < 0):
            raise LPError("dual sign")
    for j in range(n):
        col = sum((y[i] * rows[i][j] for i in range(len(rows))), ZERO)
        slack = c[j] - col
        if slack < 0:
            raise LPError("dual infeasible")
        # complementary slackness on variables
        if slack != 0 and x[j] != 0:
            raise LPError("complementary slackness (variable)")
    # complementary slackness on rows
    for i, (row, s, b) in enumerate(zip(rows, senses, rhs)):
        lhs = sum((a * v for a, v in zip(row, x)), ZERO)
        if lhs != b and y[i] != 0:
            raise LPError("complementary slackness (row)")
    # strong duality
    if sum((c[j] * x[j] for j in range(n)), ZERO) != sum(
        (y[i] * rhs[i] for i in range(len(rows))), ZERO
    ):
        raise LPError("objective gap")
