"""Exact rational linear feasibility via a revised phase-1 simplex.

Solves: does z >= 0 with A z = b exist?  Returns either a rational
solution or a Farkas certificate y with y.A <= 0 (componentwise) and
y.b > 0, proving infeasibility.  Both answers are verified exactly
before being returned, so callers can rely on them regardless of any
pivoting subtleties.

The system is made integer without growing its own integers.  Row i of
A is multiplied by den_i, the lcm of the denominators of that row's
coefficients, so the 0/1 rows of the locality and decomposition LPs stay
0/1.  All of b is multiplied by one common denominator D, so the solver
finds z' = D * z and reads z back with one more division.  Phase 1 adds
one artificial column per row (the starting basis) and minimizes
sum_i c_i * a_i with the integer cost c_i = lcm(den_i, den(b_i)) // den_i.
That is D times the sum of the artificials of the system whose row i is
scaled by lcm(den_i, den(b_i)) (see `_integerize`, which shows that both
systems make the same pivots), so the solution and the Farkas vector are
the same rationals.  Only the integers are smaller: a basis determinant is
a minor of the rows' own integers, not of rows scaled by rhs denominators.

The pivoting rule.  The entering column is the original column with the
most negative reduced cost (Dantzig's rule), the lowest index on ties.
Only when no original column prices negative does an artificial column
enter: the first one, in index order, whose reduced cost is negative.
The leaving row wins the lexicographic ratio test (Dantzig, Orden & Wolfe,
Pacific J. Math. 5, 1955): among the rows with a positive entry a_i in the
entering column, the least row of [B^-1 b | B^-1] / a_i in lexicographic
order, the rhs first and then the columns of B^-1 in order.  The first
basis is the identity and b >= 0, so every row of [B^-1 b | B^-1] starts
lexicographically positive.  The test keeps them so, and then the
objective row [-w | u] (phase-1 objective w first, then the artificial
reduced costs u) grows lexicographically at every pivot.  That row is
fixed by the basis, so no basis repeats: the simplex terminates whatever
column enters, and needs no anti-cycling fallback.  Rows of B^-1 are
linearly independent, so the leaving row is unique.  On the 0/1 locality
LPs this rule takes a fraction of the pivots of Bland's rule (Math. Oper.
Res. 2, 1977), which lets the first negative column enter: 162 pivots
instead of 893 on a 4-party box of 256 strategies.

The simplex is revised: it never builds the m x n tableau.  It keeps one
(m+1) x (m+1) integer matrix: the scaled basis inverse with the rhs
beside it, and the objective row restricted to the artificial columns
(u) with the scaled objective value beside it.  Every entry is an
integer equal to d times the true rational value, where d > 0 is the
previous pivot element (integer pivoting).  A pivot performs the
two-term update (a*p - c*r) / d on that matrix alone; the division is
exact (the entries are minors of the original integer system), so no gcd
normalization or fraction arithmetic appears in the hot loop.  The
lexicographic test needs no more state: row i of the matrix is d times
row i of [B^-1 | B^-1 b], so row i beats row j in column k when
T[i][k] * a_j < T[j][k] * a_i, the common d cancelling.

Each original column is kept as the sparse list of its nonzero integer
entries.  Its scaled reduced cost is sum_i (u_i - c_i * d) * a_ij and its
scaled tableau column is the scaled basis inverse times a_j; an
artificial column's reduced cost is u_i itself.  These are exactly the
entries the full integer tableau would hold, since both are d times the
same rationals.  So the pivots, the solution and the Farkas vector are
those of the full-tableau form, which the tests keep as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import VerificationFailed


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: Optional[list[Fraction]] = None
    farkas: Optional[list[Fraction]] = None


def _integerize(A: Sequence[Sequence], b: Sequence):
    """Scale [A | b] to integers with rhs >= 0, keeping each row's own integers.

    Row i of A is multiplied by den_i, the lcm of the denominators of its
    coefficients alone, so a 0/1 row stays 0/1.  All of b is multiplied by
    one common D, the lcm of b's denominators, so the integer system is
    solved for z' = D * z.  Row i is negated where b_i < 0.

    The phase-1 cost of artificial i is c_i = lcm(den_i, den(b_i)) // den_i.
    Scaling row i of [A | b] by s_i = lcm(den_i, den(b_i)) = c_i * den_i
    instead, with every artificial costing 1, gives the reference system
    (the tests' full tableau).  Its rows are these rows times c_i, with b
    divided by D; its variables are z = z' / D and, for artificial i,
    c_i / D times this one.  The cost sum_i c_i * a'_i is therefore D
    times the reference objective.  For one set of basic columns, with
    C = diag(c):

    - the duals are pi' = pi * C, so an original column's reduced cost
      -pi' . a'_j = -pi . (C a'_j) is the same rational in both systems,
      and artificial i's is c_i times the reference's.  The most negative
      original column and the first negative artificial are the same.
    - the reference's [B^-1 b | B^-1] is this one's with row i times a
      positive factor (1 for an original basic column, c_k for basic
      artificial k), the rhs column divided by D and column k of B^-1
      divided by c_k.  Its entering column has the same row factors
      (an entering artificial k is also divided by c_k).  Row factors
      cancel in every ratio, and a column factor is common to all rows
      of one comparison, so every comparison of the lexicographic ratio
      test comes out the same.

    So both systems make the same pivots, and the solution and the Farkas
    vector are the same rationals.

    Returns (columns, rhs, D, scales, costs).  Column j is a pair of
    tuples: the rows of its nonzero entries and those integer entries.
    scales[i] is den_i, negated where row i was, and costs[i] is c_i."""
    n = len(A[0]) if A else 0
    beta = [Fraction(v) for v in b]
    D = lcm(*(v.denominator for v in beta))
    rows = [[] for _ in range(n)]
    entries = [[] for _ in range(n)]
    rhs = []
    scales = []
    costs = []
    for i, row in enumerate(A):
        sign = -1 if beta[i] < 0 else 1
        den = 1
        nonzero = []
        for j, v in enumerate(row):
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            if v:
                nonzero.append((j, v))
                den = lcm(den, v.denominator)
        for j, v in nonzero:
            rows[j].append(i)
            entries[j].append(sign * v.numerator * (den // v.denominator))
        rhs.append(sign * den * beta[i].numerator * (D // beta[i].denominator))
        scales.append(sign * den)
        costs.append(lcm(den, beta[i].denominator) // den)
    columns = [(tuple(idx), tuple(vals)) for idx, vals in zip(rows, entries)]
    return columns, rhs, D, scales, costs


def _dot(vector, column) -> int:
    """vector . a_j for a column in the form `_integerize` returns."""
    idx, vals = column
    return sum(map(mul, map(vector.__getitem__, idx), vals))


def solve_equality_feasibility(A: Sequence[Sequence], b: Sequence) -> FeasibilityResult:
    """Decide {z >= 0 : A z = b}; every answer is re-verified exactly."""
    m = len(A)
    n = len(A[0]) if m else 0
    columns, int_rhs, D, scales, costs = _integerize(A, b)

    # T[i] = [d * (B^-1)_i | d * (B^-1 b)_i] for i < m; T[m] = [u | -d * w],
    # u_i being the scaled reduced cost of artificial i and w the phase-1
    # objective.  Start: the artificial basis, d = 1, u = 0, w = sum(c * b).
    T = [[0] * m + [r] for r in int_rhs]
    for i in range(m):
        T[i][i] = 1
    T.append([0] * m + [-sum(map(mul, costs, int_rhs))])
    basis = [n + i for i in range(m)]
    d = 1  # current integer-pivoting scale

    while True:
        u = T[m]
        # Dantzig: the original column with the most negative reduced cost
        # enters, the lowest index on ties; cost_j = sum_i (u_i - c_i * d) * a_ij.
        # Only when none prices negative does an artificial enter, the first
        # with u_k < 0.
        shifted = [v - c * d for v, c in zip(u, costs)]
        prices = [_dot(shifted, col) for col in columns]
        cost = min(prices, default=0)
        if cost < 0:
            enter = prices.index(cost)
            entering = [_dot(row, columns[enter]) for row in T[:m]]
        else:
            enter = next((k for k in range(m) if u[k] < 0), -1)
            if enter < 0:
                break
            cost = u[enter]
            entering = [row[enter] for row in T[:m]]
            enter += n
        # lexicographic ratio test on the rows of [B^-1 b | B^-1]: T[i][k] / a_i
        # for k = m (the rhs), then k = 0..m-1.  Rows of B^-1 are independent,
        # so two candidates always differ somewhere and the leaving row is unique.
        best_i = -1
        best_den = 0
        for i, a in enumerate(entering):
            if a > 0:
                if best_i < 0:
                    best_i, best_den = i, a
                    continue
                row, best = T[i], T[best_i]
                lhs = row[m] * best_den
                rhs = best[m] * a
                k = 0
                while lhs == rhs:
                    lhs = row[k] * best_den
                    rhs = best[k] * a
                    k += 1
                if lhs < rhs:
                    best_i, best_den = i, a
        if best_i < 0:
            # the phase-1 objective is bounded below by 0, so this cannot happen
            raise VerificationFailed("phase-1 objective unbounded")
        # integer pivot at (best_i, enter) on the (m+1) x (m+1) matrix.  Where
        # the pivot row is 0 the update is x * p // d: the identity when p == d,
        # as in most pivots of the 0/1 locality LPs.
        entering.append(cost)
        p = best_den
        prow = T[best_i]
        support = [(k, y) for k, y in enumerate(prow) if y]
        for i, f in enumerate(entering):
            if i == best_i or (not f and p == d):
                continue
            row = T[i]
            new = row[:] if p == d else [x * p // d for x in row]
            if f:
                for k, y in support:
                    new[k] = (row[k] * p - f * y) // d
            T[i] = new
        d = p
        basis[best_i] = enter

    w_star = Fraction(-T[m][m], d)

    if w_star == 0:
        solution = [Fraction(0)] * n
        for i, col in enumerate(basis):
            if col < n:
                solution[col] = Fraction(T[i][m], d * D)
        # every other entry is 0, so A z = b is checked on the support alone
        nonzero = [(j, v) for j, v in enumerate(solution) if v]
        for i in range(m):
            total = sum(Fraction(A[i][j]) * v for j, v in nonzero)
            if total != Fraction(b[i]):
                raise VerificationFailed("feasibility solution failed verification")
        if any(v < 0 for _, v in nonzero):
            raise VerificationFailed("feasibility solution has a negative entry")
        return FeasibilityResult(True, solution=solution)

    # Farkas: y_i = c_i - reduced cost of artificial i, mapped back to the
    # original rows (undo the integer row scaling and any sign flip)
    y = [s * (c - Fraction(t, d)) for s, c, t in zip(scales, costs, T[m])]
    for j in range(n):
        total = sum(y[i] * Fraction(A[i][j]) for i in range(m) if y[i])
        if total > 0:
            raise VerificationFailed("Farkas certificate failed y.A <= 0")
    ydotb = sum(y[i] * Fraction(b[i]) for i in range(m) if y[i])
    if not ydotb > 0:
        raise VerificationFailed("Farkas certificate failed y.b > 0")
    return FeasibilityResult(False, farkas=y)


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals (fraction-free elimination with exact division)."""
    types = set()
    for row in rows:
        types.update(map(type, row))
    if types <= {int}:
        # all plain ints (the callers' usual case): no per-entry coercion
        mat = [list(row) for row in rows]
    else:
        mat = [[int(v) if isinstance(v, int) else Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    if any(not issubclass(t, int) for t in types):
        scaled = []
        for row in mat:
            den = 1
            for v in row:
                f = Fraction(v)
                den = den * f.denominator // gcd(den, f.denominator)
            scaled.append([int(Fraction(v) * den) for v in row])
        mat = scaled
    m = len(mat)
    n = len(mat[0])
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for i in range(rank, m):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        p = mat[rank][col]
        for i in range(rank + 1, m):
            f = mat[i][col]
            if f == 0 and p == prev:
                continue
            row = mat[i]
            prow = mat[rank]
            for j in range(col, n):
                row[j] = (row[j] * p - f * prow[j]) // prev
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def solve_linear_system(A: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A z = b (no sign constraint), or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    mat = [[Fraction(v) for v in A[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    rank = 0
    for col in range(n):
        pivot_row = None
        for i in range(rank, m):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for i in range(m):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [mat[i][j] - f * mat[rank][j] for j in range(n + 1)]
        pivots.append(col)
        rank += 1
    for i in range(rank, m):
        if mat[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        solution[col] = mat[r][n]
    return solution
