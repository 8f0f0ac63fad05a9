"""Exact rational linear feasibility via a phase-1 simplex.

Solves: does z >= 0 with A z = b exist?  Returns either a rational
solution or a Farkas certificate y with y.A <= 0 (componentwise) and
y.b > 0, proving infeasibility.  Both answers are verified exactly
before being returned, so callers can rely on them regardless of any
pivoting subtleties.

The tableau uses integer pivoting: all entries are integers equal to d
times the true rational value, where d is the previous pivot element.
Each pivot performs the two-term update (a*p - c*r) / d, whose division
is exact (the entries are minors of the original integer system), so no
gcd normalization or fraction arithmetic appears in the hot loop.
Bland's rule guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import VerificationFailed


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: Optional[list[Fraction]] = None
    farkas: Optional[list[Fraction]] = None


def _integerize(A: Sequence[Sequence], b: Sequence):
    """Scale each row of [A | b] to integers; returns (rows, rhs, scales)."""
    rows = []
    rhs = []
    scales = []
    for i, row in enumerate(A):
        fracs = [Fraction(v) for v in row] + [Fraction(b[i])]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        rows.append(nums[:-1])
        rhs.append(nums[-1])
        scales.append(den)
    return rows, rhs, scales


def solve_equality_feasibility(A: Sequence[Sequence], b: Sequence) -> FeasibilityResult:
    """Decide {z >= 0 : A z = b}; every answer is re-verified exactly."""
    m = len(A)
    n = len(A[0]) if m else 0
    int_rows, int_rhs, scales = _integerize(A, b)

    flipped = []
    for i in range(m):
        if int_rhs[i] < 0:
            int_rows[i] = [-v for v in int_rows[i]]
            int_rhs[i] = -int_rhs[i]
            flipped.append(True)
        else:
            flipped.append(False)

    # columns: n original | m artificial | rhs ; plus objective row below
    width = n + m + 1
    M = []
    for i in range(m):
        row = int_rows[i] + [0] * m + [int_rhs[i]]
        row[n + i] = 1
        M.append(row)
    # phase-1 reduced costs (minimize sum of artificials, basis = artificials):
    # cost row = c - sum of basic rows; rhs slot tracks -w
    obj = [0] * width
    for j in range(width):
        total = 0
        for i in range(m):
            total += M[i][j]
        obj[j] = -total
    for j in range(n, n + m):
        obj[j] += 1
    M.append(obj)
    OBJ = m
    basis = [n + i for i in range(m)]
    d = 1  # current integer-pivoting scale

    while True:
        obj_row = M[OBJ]
        enter = -1
        for j in range(n + m):
            if obj_row[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        best_i = -1
        best_num = 0
        best_den = 0
        for i in range(m):
            a = M[i][enter]
            if a > 0:
                num = M[i][width - 1]
                if best_i < 0:
                    best_i, best_num, best_den = i, num, a
                else:
                    lhs = num * best_den
                    rhs = best_num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best_i]):
                        best_i, best_num, best_den = i, num, a
        if best_i < 0:
            raise ArithmeticError("phase-1 objective unbounded; input is inconsistent")
        # integer pivot at (best_i, enter)
        p = M[best_i][enter]
        prow = M[best_i]
        for i in range(m + 1):
            if i == best_i:
                continue
            row = M[i]
            f = row[enter]
            if f == 0:
                if p != d:
                    for j in range(width):
                        row[j] = row[j] * p // d
            else:
                for j in range(width):
                    row[j] = (row[j] * p - f * prow[j]) // d
        d = p
        basis[best_i] = enter

    w_star = Fraction(-M[OBJ][width - 1], d)

    if w_star == 0:
        solution = [Fraction(0)] * n
        for i, col in enumerate(basis):
            if col < n:
                solution[col] = Fraction(M[i][width - 1], d)
        for i in range(m):
            total = sum(Fraction(A[i][j]) * solution[j] for j in range(n) if solution[j])
            if total != Fraction(b[i]):
                raise VerificationFailed("feasibility solution failed verification")
        if any(v < 0 for v in solution):
            raise VerificationFailed("feasibility solution has a negative entry")
        return FeasibilityResult(True, solution=solution)

    # Farkas: y_i = 1 - reduced cost of artificial i, mapped back to the
    # original rows (undo the integer row scaling and any sign flip)
    y = []
    for i in range(m):
        red_cost = Fraction(M[OBJ][n + i], d)
        yi = (Fraction(1) - red_cost) * scales[i]
        y.append(-yi if flipped[i] else yi)
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
    mat = [[int(v) if isinstance(v, int) else Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    if any(isinstance(v, Fraction) for row in mat for v in row):
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
            for j in range(n):
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
