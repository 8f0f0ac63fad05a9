import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from scipy.optimize import linprog

import boxworld as bw
from boxworld import locality, polytope
from boxworld.boxes import marginal_coordinates, marginal_point
from boxworld.cluster import cluster_box
from boxworld.exactlp import (
    FeasibilityResult,
    _gf2_echelon,
    _gf3_rank,
    _integerize,
    _mod3_masks,
    _odd_mask,
    exact_rank,
    solve_equality_feasibility,
)
from boxworld.locality import _gf2_solve


def _full_tableau_feasibility(A, b) -> tuple[FeasibilityResult, int]:
    """Reference: phase 1 on the full (m+1) x (n+m+1) integer tableau.

    Row i is scaled by the lcm of all its denominators, rhs included, and
    every artificial costs 1.  The entering column is the original one with
    the most negative reduced cost (lowest index on ties), else the first
    artificial that prices negative; the leaving row wins the lexicographic
    ratio test on [rhs | artificial columns].  The package's revised solver
    must return an equal FeasibilityResult.  Returns (result, pivots)."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = []
    scales = []
    flipped = []
    for i, row in enumerate(A):
        fracs = [Fraction(v) for v in row] + [Fraction(b[i])]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        flipped.append(nums[-1] < 0)
        if nums[-1] < 0:
            nums = [-v for v in nums]
        artificial = [0] * m
        artificial[i] = 1
        M.append(nums[:-1] + artificial + nums[-1:])
        scales.append(den)
    width = n + m + 1
    # phase-1 reduced costs with the artificial basis; the rhs slot tracks -w
    obj = [-sum(M[i][j] for i in range(m)) for j in range(width)]
    for j in range(n, n + m):
        obj[j] += 1
    M.append(obj)
    basis = [n + i for i in range(m)]
    d = 1
    pivots = 0
    while True:
        cost = min(M[m][:n], default=0)
        if cost < 0:
            enter = M[m].index(cost)
        else:
            enter = next((j for j in range(n, n + m) if M[m][j] < 0), -1)
            if enter < 0:
                break
        rows = [i for i in range(m) if M[i][enter] > 0]
        for k in [width - 1, *range(n, n + m)]:
            ratios = {i: Fraction(M[i][k], M[i][enter]) for i in rows}
            least = min(ratios.values())
            rows = [i for i in rows if ratios[i] == least]
        (best_i,) = rows
        p = M[best_i][enter]
        prow = M[best_i]
        for i in range(m + 1):
            if i != best_i:
                f = M[i][enter]
                M[i] = [(M[i][j] * p - f * prow[j]) // d for j in range(width)]
        d = p
        basis[best_i] = enter
        pivots += 1
    if M[m][width - 1] == 0:
        solution = [Fraction(0)] * n
        for i, col in enumerate(basis):
            if col < n:
                solution[col] = Fraction(M[i][width - 1], d)
        return FeasibilityResult(True, solution=solution), pivots
    y = [(1 - Fraction(M[m][n + i], d)) * scales[i] for i in range(m)]
    return FeasibilityResult(False, farkas=[-v if f else v for v, f in zip(y, flipped)]), pivots


def test_feasible_simple():
    # x + y = 1, x - y = 0 -> x = y = 1/2
    res = solve_equality_feasibility([[1, 1], [1, -1]], [1, 0])
    assert res.feasible
    assert res.solution == [Fraction(1, 2), Fraction(1, 2)]


def test_infeasible_sign():
    # x + y = -1 with x, y >= 0
    res = solve_equality_feasibility([[1, 1]], [-1])
    assert not res.feasible
    assert res.farkas is not None


def test_infeasible_inconsistent():
    res = solve_equality_feasibility([[1, 1], [1, 1]], [1, 2])
    assert not res.feasible


def test_rational_coefficients():
    res = solve_equality_feasibility(
        [[Fraction(1, 3), Fraction(2, 3)], [1, 0]], [Fraction(1, 2), Fraction(1, 4)]
    )
    assert res.feasible
    x, y = res.solution
    assert Fraction(1, 3) * x + Fraction(2, 3) * y == Fraction(1, 2)
    assert x == Fraction(1, 4)


def test_redundant_rows():
    res = solve_equality_feasibility([[1, 1], [2, 2]], [1, 2])
    assert res.feasible
    assert sum(res.solution) == 1


def test_fuzz_against_scipy():
    rng = random.Random(123)
    agree = 0
    for trial in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        res = solve_equality_feasibility(A, b)
        ref = linprog(
            c=[0.0] * n,
            A_eq=np.array(A, dtype=float),
            b_eq=np.array(b, dtype=float),
            bounds=(0, None),
            method="highs",
        )
        # scipy status 0 = optimal (feasible), 2 = infeasible
        assert ref.status in (0, 2)
        assert res.feasible == (ref.status == 0), (A, b)
        agree += 1
    assert agree == 60


def test_exact_rank_matches_numpy():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert exact_rank(M) == np.linalg.matrix_rank(np.array(M, dtype=float))


def test_exact_rank_mixed_entry_types_match_numpy():
    # int rows take the no-coercion path; bools and Fractions are coerced,
    # and a row of each kind is dropped into otherwise-int matrices
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        mixed = []
        for row in M:
            kind = rng.choice(("int", "bool", "fraction", "scaled"))
            if kind == "bool":
                row = [bool(v % 2) for v in row]
            elif kind == "fraction":
                row = [Fraction(v) for v in row]
            elif kind == "scaled":
                row = [Fraction(v, 3) if j % 2 else v for j, v in enumerate(row)]
            mixed.append(row)
        dense = np.array([[float(v) for v in row] for row in mixed])
        assert exact_rank(mixed) == np.linalg.matrix_rank(dense), mixed
        ints = [[int(v * 3) for v in row] for row in mixed]
        assert exact_rank(ints) == exact_rank([[Fraction(v) for v in row] for row in ints])


def test_exact_rank_fractions():
    assert exact_rank([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]) == 1


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1], [1, 2]], "row 1 has length 2, row 0 has length 1"),  # was rank 1
        ([[1, 2], [3]], "row 1 has length 1, row 0 has length 2"),  # was an IndexError
        ([[0.1, 1]], "not float"),  # was read as 3602879701896397/36028797018963968
    ],
    ids=["longer-row-after", "shorter-row-after", "float-entry"],
)
def test_exact_rank_refuses_malformed_matrices(rows, message):
    with pytest.raises(bw.DimensionMismatch, match=message):
        exact_rank(rows)


def _rank_by_gauss_jordan(rows) -> int:
    """Reference: Gauss-Jordan elimination over Fraction, counting pivots."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = [v / mat[rank][col] for v in mat[rank]]
        mat[rank] = prow
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                mat[i] = [a - row[col] * b for a, b in zip(row, prow)]
        rank += 1
    return rank


def _rank_mod_by_definition(rows, p: int) -> int:
    """Reference: Gauss-Jordan elimination over GF(p) on integer rows."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inverse = pow(mat[rank][col], -1, p)
        prow = [v * inverse % p for v in mat[rank]]
        mat[rank] = prow
        for i, row in enumerate(mat):
            if i != rank and row[col]:
                mat[i] = [(a - row[col] * b) % p for a, b in zip(row, prow)]
        rank += 1
    return rank


def _rank_mod3(rows, full) -> int:
    """The GF(3) pass of exact_rank: `_gf3_rank` over the integer rows'
    `_mod3_masks`, counted up to `full`."""
    return _gf3_rank(map(_mod3_masks, rows), full)


def _rank_mod2(rows, full=None) -> int:
    """The GF(2) pass of exact_rank: `_gf2_echelon`'s pivots over the
    integer rows' `_odd_mask`s, counted up to `full`."""
    return len(_gf2_echelon([(_odd_mask(row), 0) for row in rows], full))


def _integer_rows(rows):
    """Each row times the lcm of its denominators, as exact_rank scales it."""
    return [[int(v * lcm(*(Fraction(u).denominator for u in row))) for v in row] for row in rows]


@pytest.mark.parametrize(
    "rows, rank",
    [([[3]], 1), ([[1, 1], [1, -2]], 2), ([[3, 0], [0, 1]], 2), ([[Fraction(1, 3), 0], [0, 3]], 2)],
)
def test_exact_rank_of_matrices_singular_mod_three(rows, rank):
    # a minor divisible by 3 vanishes mod 3 but not over Q: the GF(3) pass
    # cannot certify these; the GF(2) pass or the exact elimination decides
    assert exact_rank(rows) == rank == _rank_by_gauss_jordan(rows)
    assert _rank_mod3(_integer_rows(rows), rank) < rank


def test_exact_rank_certified_mod_two():
    # det 3: singular mod 3, odd, so the GF(2) pass certifies full rank
    rows = [[3, 0], [0, 1]]
    assert _rank_mod3(rows, 2) == 1
    assert _rank_mod2(rows, 2) == 2
    assert exact_rank(rows) == 2


def test_exact_rank_singular_mod_two_and_three():
    # det -6: singular mod 2 and mod 3 but not over Q, so only the exact
    # elimination finds the full rank
    rows = [[2, 3], [4, 3]]
    assert _rank_mod3(rows, 2) == 1
    assert _rank_mod2(rows, 2) == 1
    assert exact_rank(rows) == 2 == _rank_by_gauss_jordan(rows)


def test_rank_mod_three_on_every_small_matrix():
    # every pair of residues meets in some column, so every case of the
    # masks' addition rule is taken
    for m in (2, 3):
        for rows in itertools.product(itertools.product((-1, 0, 1), repeat=2), repeat=m):
            assert _rank_mod3(rows, 2) == _rank_mod_by_definition(rows, 3), rows


def test_rank_mod_two_on_every_small_matrix():
    for m in (2, 3):
        for rows in itertools.product(itertools.product((0, 1, 2), repeat=2), repeat=m):
            assert _rank_mod2(rows, 2) == _rank_mod_by_definition(rows, 2), rows


def _check_gf2_system(rows, n: int):
    """`_gf2_echelon` and `_gf2_solve` on the GF(2) rows (mask, bit) over n
    variables, against brute force over all 2^n assignments."""
    solutions = [f for f in range(1 << n) if all((mask & f).bit_count() % 2 == bit for mask, bit in rows)]
    homogeneous = [(mask, 0) for mask, _ in rows]
    rank = _rank_mod_by_definition([[mask >> j & 1 for j in range(n)] for mask, _ in rows], 2)
    assert len(_gf2_echelon(homogeneous)) == rank, rows
    for full in range(1, rank + 1):
        assert len(_gf2_echelon(homogeneous, full)) == full, (rows, full)
    pivots = _gf2_echelon(rows)
    solved = _gf2_solve(rows, n)
    assert (pivots is None) == (solved is None) == (not solutions), rows
    if solved is None:
        return
    assert len(pivots) == rank, rows
    solution, kernel = solved
    assert solution in solutions, rows
    assert len(kernel) == n - rank, rows
    assert all((mask & k).bit_count() % 2 == 0 for k in kernel for mask, _ in rows), rows
    # independent: the 2^(n - rank) combinations are distinct, so they are
    # every solution of the homogeneous rows
    span = {0}
    for k in kernel:
        span |= {v ^ k for v in span}
    assert sorted(solution ^ v for v in span) == solutions, rows


def test_gf2_elimination_on_every_small_system():
    # every multiset of up to 4 rows on up to 4 variables
    for n in range(5):
        equations = [(mask, bit) for mask in range(1 << n) for bit in (0, 1)]
        for m in range(5):
            for rows in itertools.combinations_with_replacement(equations, m):
                _check_gf2_system(list(rows), n)


def test_gf2_elimination_on_random_systems():
    rng = random.Random(30)
    for _ in range(400):
        n = rng.randint(1, 8)
        rows = [(rng.getrandbits(n), rng.getrandbits(1)) for _ in range(rng.randint(0, 10))]
        _check_gf2_system(rows, n)


def test_big_degenerate_instance():
    # identity-like system with many redundant equalities
    n = 30
    A = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    A += [[1] * n]
    b = [Fraction(1, n)] * n + [1]
    res = solve_equality_feasibility(A, b)
    assert res.feasible
    assert sum(res.solution) == 1


def _random_lp(rng):
    """A small seeded system: integer or Fraction entries, negative rhs, and
    sometimes a zero row, a redundant row or an inconsistent row."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 9)

    def entry():
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 6)) if rng.random() < 0.3 else v

    A = [[entry() for _ in range(n)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    if rng.random() < 0.5:  # a feasible rhs by construction
        z = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0 for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, z)) for row in A]
    kind = rng.randrange(4)
    i = rng.randrange(m)
    if kind == 0:
        A.append([0] * n)
        b.append(rng.choice((0, 0, 1)))
    elif kind == 1:
        k = Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 2))
        A.append([k * v for v in A[i]])
        b.append(k * b[i])
    elif kind == 2:
        A.append(list(A[i]))
        b.append(b[i] + rng.choice((-1, 1)))
    order = list(range(len(A)))
    rng.shuffle(order)
    return [A[r] for r in order], [b[r] for r in order]


def test_revised_equals_full_tableau_on_random_lps():
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(2500):
        A, b = _random_lp(rng)
        result = solve_equality_feasibility(A, b)
        assert result == _full_tableau_feasibility(A, b)[0], (A, b)
        verdicts.append(result.feasible)
    assert 500 < sum(verdicts) < 2000  # both answers are well represented


def _recorded_lps(monkeypatch, module, run):
    """(A, b, result) of every LP `module` solves while `run()` runs."""
    seen = []

    def recording(A, b):
        result = solve_equality_feasibility(A, b)
        seen.append((A, b, result))
        return result

    monkeypatch.setattr(module, "solve_equality_feasibility", recording)
    run()
    return seen


def _census_ladder():
    """2- and 3-party boxes of the kinds the census benchmark's locality
    ladder holds: PR/noise mixtures on both sides of CHSH = 2, 3-party
    parity boxes, and parity boxes mixed with noise."""
    pr = bw.pr_box()
    noise2 = bw.uniform_box((2, 2), (2, 2))
    boxes = [bw.mix_boxes([(Fraction(k, 8), pr), (1 - Fraction(k, 8), noise2)]) for k in (2, 3, 4, 5, 6, 7, 8)]
    noise3 = bw.uniform_box((2, 2, 2), (2, 2, 2))
    for bits in ((0, 0, 0, 1, 0, 1, 1, 1), (0, 0, 0, 0, 0, 0, 0, 1), (0, 1, 1, 0, 1, 0, 0, 0)):
        parity = bw.full_correlation_box(3, 1, lambda x, bits=bits: bits[x[0] + 2 * x[1] + 4 * x[2]])
        boxes.append(parity)
        boxes += [bw.mix_boxes([(lam, parity), (1 - lam, noise3)]) for lam in (Fraction(1, 4), Fraction(3, 4))]
    return boxes


def test_revised_equals_full_tableau_on_is_local_lps(monkeypatch):
    boxes = _census_ladder()
    seen = _recorded_lps(monkeypatch, locality, lambda: [locality.is_local(box) for box in boxes])
    assert len(seen) == len(boxes)
    assert {result.feasible for _, _, result in seen} == {True, False}
    for A, b, result in seen:
        assert result == _full_tableau_feasibility(A, b)[0]
    # and on the unreduced marginal LPs of the same boxes
    for box in boxes:
        A, b = _marginal_lp(box)
        assert solve_equality_feasibility(A, b) == _full_tableau_feasibility(A, b)[0]


def _census_four_party_box():
    """The census benchmark's 4-party box: majority parity mixed 1/16 with noise."""
    bits = [int(bin(row).count("1") >= 2) for row in range(16)]
    majority = bw.full_correlation_box(4, 1, lambda x: bits[sum(v << i for i, v in enumerate(x))])
    return bw.mix_boxes([(Fraction(1, 16), majority), (Fraction(15, 16), bw.uniform_box((2,) * 4, (2,) * 4))])


def _marginal_lp(box):
    """(A, b) of the reference locality LP: one column per deterministic
    strategy, one row per marginal coordinate plus the normalization row,
    and no symmetry reduction."""
    coords = marginal_coordinates(box.input_sizes, box.output_sizes)
    columns = [
        [int(all(s[p][x] == a for p, x, a in zip(subset, x_s, a_s))) for subset, x_s, a_s in coords] + [1]
        for s in locality.deterministic_responses(box.input_sizes, box.output_sizes)
    ]
    return [list(row) for row in zip(*columns)], marginal_point(box, coords) + [1]


def test_is_local_verdicts_match_the_marginal_lp_reference():
    boxes = _census_ladder() + [_census_four_party_box()]
    verdicts = [locality.is_local(box).local for box in boxes]
    assert verdicts == [solve_equality_feasibility(*_marginal_lp(box)).feasible for box in boxes]
    assert set(verdicts) == {True, False}


def test_census_four_party_marginal_lp_takes_few_pivots():
    # the unreduced LP, 81 rows (80 marginal coordinates and the
    # normalization) x 256 strategies, is large and degenerate: Bland's
    # rule took 893 pivots on it, Dantzig's rule 162
    A, b = _marginal_lp(_census_four_party_box())
    assert (len(A), len(A[0])) == (81, 256)
    result = solve_equality_feasibility(A, b)
    reference, pivots = _full_tableau_feasibility(A, b)
    assert result.feasible
    assert result == reference
    assert pivots <= 200


def test_census_four_party_box_reduces_to_ten_orbits(monkeypatch):
    ((A, b, result),) = _recorded_lps(monkeypatch, locality, lambda: locality.is_local(_census_four_party_box()))
    assert result.feasible
    assert len(A) - 1 <= 10  # cell orbits, then the normalization row
    assert len(A[0]) <= 10  # distinct strategy columns


def test_cluster_box_reduces_to_few_orbits(monkeypatch):
    ((A, b, result),) = _recorded_lps(monkeypatch, locality, lambda: locality.is_local(cluster_box()))
    assert not result.feasible
    assert len(A) - 1 <= 14
    assert len(A[0]) <= 8


def test_trivial_group_lp_has_one_row_per_spanning_cell(monkeypatch):
    # three outputs give the trivial group: of the 81 cells of a (3,3)
    # inputs, (3,3) outputs box, the (3 * 2 + 1)^2 = 49 spanning cells are
    # rows, as many as the unreduced LP's marginal coordinates and constant
    noise = bw.uniform_box((3, 3), (3, 3))
    deterministic = bw.deterministic_box((3, 3), (3, 3), ((0, 2, 1), (1, 1, 0)))
    box = bw.mix_boxes([(Fraction(1, 3), deterministic), (Fraction(2, 3), noise)])
    ((A, b, result),) = _recorded_lps(monkeypatch, locality, lambda: locality.is_local(box))
    assert result.feasible
    assert (len(A), len(A[0])) == (49 + 1, 729)
    assert len(_marginal_lp(box)[0]) == 49


def test_census_four_party_lp_takes_few_pivots(monkeypatch):
    # the LP `is_local` solves, on the box's symmetry orbits: at most 10
    # columns, so few pivots; the unreduced LP's pivot guard is
    # `test_census_four_party_marginal_lp_takes_few_pivots`
    box = _census_four_party_box()
    ((A, b, result),) = _recorded_lps(monkeypatch, locality, lambda: locality.is_local(box))
    reference, pivots = _full_tableau_feasibility(A, b)
    assert result.feasible
    assert result == reference
    assert pivots <= 200


def test_revised_equals_full_tableau_on_decompose_lps(monkeypatch):
    vertices = polytope.enumerate_vertices(polytope.build_h_rep((2, 2), (2, 2)))
    pr = bw.pr_box()
    deterministic = bw.deterministic_box((2, 2), (2, 2), ((0, 1), (1, 1)))
    mixtures = [
        bw.mix_boxes([(Fraction(1, 3), pr), (Fraction(2, 3), deterministic)]),
        bw.mix_boxes([(Fraction(3, 4), pr), (Fraction(1, 4), bw.uniform_box((2, 2), (2, 2)))]),
    ]
    seen = _recorded_lps(monkeypatch, polytope, lambda: [polytope.decompose(box, vertices) for box in mixtures])
    assert len(seen) == 2
    for A, b, result in seen:
        assert result.feasible
        assert result == _full_tableau_feasibility(A, b)[0]


def _degenerate_lp(rng):
    """A small seeded system with entries in {-1, 0, 1}, mostly 0, and a
    mostly zero rhs; repeated and negated rows make ties in the ratio test."""
    m = rng.randint(2, 7)
    n = rng.randint(2, 10)
    A = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:  # a feasible rhs by construction
        z = [rng.choice((0, 0, 0, 1)) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, z)) for row in A]
    else:
        b = [rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(m)
        k = rng.choice((1, -1))
        A.append([k * v for v in A[i]])
        b.append(k * b[i])
    return A, b


def test_degenerate_lps_terminate_and_verify():
    # the lexicographic ratio test guarantees termination whatever column
    # enters; every answer must still pass the exact checks
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(1500):
        A, b = _degenerate_lp(rng)
        result = solve_equality_feasibility(A, b)
        assert result == _full_tableau_feasibility(A, b)[0], (A, b)
        if result.feasible:
            z = result.solution
            assert all(v >= 0 for v in z)
            assert all(sum(a * v for a, v in zip(row, z)) == rhs for row, rhs in zip(A, b))
        else:
            y = result.farkas
            assert all(sum(y[i] * A[i][j] for i in range(len(A))) <= 0 for j in range(len(A[0])))
            assert sum(v * rhs for v, rhs in zip(y, b)) > 0
        verdicts.append(result.feasible)
    assert 300 < sum(verdicts) < 1200  # both answers are well represented


LARGE_PRIMES = (2**31 - 1, 10**9 + 7, 998244353)


def test_integerize_keeps_row_integers_and_moves_rhs_scales_into_costs():
    rng = random.Random(17)
    for _ in range(300):
        A, b = _random_lp(rng)
        if rng.random() < 0.5:
            A.append([rng.randint(0, 1) for _ in A[0]])
            b.append(rng.choice((1, -1)) * Fraction(rng.randint(0, 9), rng.choice(LARGE_PRIMES)))
        b = [Fraction(v, rng.choice((1, 2, 3) + LARGE_PRIMES)) for v in b]
        columns, rhs, D, scales, costs = _integerize(A, b)
        assert D == lcm(*(Fraction(v).denominator for v in b))
        dense = [[0] * len(columns) for _ in A]
        for j, (idx, vals) in enumerate(columns):
            for i, v in zip(idx, vals):
                dense[i][j] = v
        for i, row in enumerate(A):
            den = lcm(*(Fraction(v).denominator for v in row))
            sign = -1 if b[i] < 0 else 1
            assert scales[i] == sign * den
            assert dense[i] == [sign * den * v for v in row]
            assert rhs[i] == sign * den * D * b[i] >= 0
            assert costs[i] * den == lcm(den, Fraction(b[i]).denominator)
            if set(row) <= {0, 1}:
                assert dense[i] == [sign * v for v in row]  # a 0/1 row keeps its integers


def test_revised_equals_full_tableau_with_large_coprime_rhs_denominators():
    # each row's rhs over its own large prime: the costs c_i differ from 1
    # and from row to row
    rng = random.Random(31)
    verdicts = []
    for _ in range(600):
        A, b = _random_lp(rng)
        b = [Fraction(v, rng.choice(LARGE_PRIMES)) * rng.randint(1, 5) for v in b]
        result = solve_equality_feasibility(A, b)
        assert result == _full_tableau_feasibility(A, b)[0], (A, b)
        verdicts.append(result.feasible)
    assert 100 < sum(verdicts) < 500


def test_revised_equals_full_tableau_on_is_local_lps_with_large_denominators(monkeypatch):
    pr = bw.pr_box()
    noise2 = bw.uniform_box((2, 2), (2, 2))
    deterministic = bw.deterministic_box((2, 2), (2, 2), ((0, 1), (1, 1)))
    p, q = 2**31 - 1, 10**9 + 7
    boxes = [
        bw.mix_boxes([(Fraction(1, p), pr), (1 - Fraction(1, p), noise2)]),
        bw.mix_boxes([(1 - Fraction(1, p), pr), (Fraction(1, p), noise2)]),
        bw.mix_boxes([(Fraction(1, p), pr), (Fraction(1, q), deterministic), (1 - Fraction(1, p) - Fraction(1, q), noise2)]),
    ]
    noise3 = bw.uniform_box((2, 2, 2), (2, 2, 2))
    bits = (0, 0, 0, 1, 0, 1, 1, 1)
    parity = bw.full_correlation_box(3, 1, lambda x: bits[x[0] + 2 * x[1] + 4 * x[2]])
    boxes += [bw.mix_boxes([(lam, parity), (1 - lam, noise3)]) for lam in (Fraction(7, q), 1 - Fraction(7, q))]
    seen = _recorded_lps(monkeypatch, locality, lambda: [locality.is_local(box) for box in boxes])
    assert len(seen) == len(boxes)
    assert [result.feasible for _, _, result in seen] == [True, False, True, True, False]
    for A, b, result in seen:
        assert result == _full_tableau_feasibility(A, b)[0]
    for box in boxes:
        A, b = _marginal_lp(box)
        assert solve_equality_feasibility(A, b) == _full_tableau_feasibility(A, b)[0]


def _beale(objective_value):
    """Beale's cycling example in equality form: the slacks x1..x3 are
    columns, and the objective is pinned to `objective_value` by a row."""
    A = [
        [1, 0, 0, Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [0, 1, 0, Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, Fraction(-3, 4), 150, Fraction(-1, 50), 6],
    ]
    return A, [0, 0, 1, objective_value]


def test_beale_cycling_example_terminates():
    # the minimum of Beale's objective is -1/20, at x4 = 1/25, x6 = 1
    A, b = _beale(Fraction(-1, 20))
    result = solve_equality_feasibility(A, b)
    assert result.feasible
    assert result.solution == [Fraction(3, 100), 0, 0, Fraction(1, 25), 0, 1, 0]
    assert result == _full_tableau_feasibility(A, b)[0]
    A, b = _beale(Fraction(-1, 10))  # below the minimum
    result = solve_equality_feasibility(A, b)
    assert not result.feasible
    assert result == _full_tableau_feasibility(A, b)[0]


def test_no_column_means_no_pivot():
    assert solve_equality_feasibility([], []) == FeasibilityResult(True, solution=[])
    assert solve_equality_feasibility([[], []], [0, 0]) == FeasibilityResult(True, solution=[])
    result = solve_equality_feasibility([[], []], [0, Fraction(-1, 2)])
    assert result == FeasibilityResult(False, farkas=[1, -2]) == _full_tableau_feasibility([[], []], [0, Fraction(-1, 2)])[0]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _ENTRIES = st.sampled_from((-1, 0, 1, 3)) | st.integers(-9, 9)

    @st.composite
    def _matrices(draw):
        """Int or Fraction matrices with entries biased to {-1, 0, 1, 3}:
        empty, zero, wide and tall ones, and rows that are combinations of
        fewer rows, with coefficients that are often multiples of 3."""
        m = draw(st.integers(0, 7))
        n = draw(st.integers(0, 7))
        if draw(st.booleans()):
            k = draw(st.integers(0, max(m - 1, 0)))
            base = [[draw(_ENTRIES) for _ in range(n)] for _ in range(k)]
            rows = []
            for _ in range(m):
                coefs = [draw(_ENTRIES) for _ in base]
                rows.append([sum(c * row[j] for c, row in zip(coefs, base)) for j in range(n)])
        else:
            rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(m)]
        if draw(st.booleans()):
            dens = st.sampled_from((1, 2, 3, 6, 9))
            rows = [[Fraction(v, draw(dens)) for v in row] for row in rows]
        return rows

    @given(_matrices())
    @settings(max_examples=400, deadline=None)
    def test_exact_rank_matches_gauss_jordan(rows):
        rank = _rank_by_gauss_jordan(rows)
        assert exact_rank(rows) == rank
        full = min(len(rows), len(rows[0])) if rows else 0
        ints = _integer_rows(rows)
        assert _rank_mod3(ints, full) == min(full, _rank_mod_by_definition(ints, 3))
        assert _rank_mod2(ints, full) == min(full, _rank_mod_by_definition(ints, 2))

except ImportError:  # pragma: no cover
    pass
