import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

import boxworld as bw
from boxworld.errors import (
    DimensionMismatch,
    Infeasible,
    NegativeProbability,
    NotAVertex,
    NotNormalized,
    ShapeMismatch,
    TooLarge,
    VerificationFailed,
)
from boxworld.exactlp import _fraction_free_rank, _mod3_masks, _modular_full_rank, _odd_mask, exact_rank
from boxworld.locality import all_deterministic_boxes
from boxworld.polytope import (
    _gcd_reduce,
    _impossible_output,
    _inequality_rows,
    _initial_cone,
    _verified_vertex,
    build_h_rep,
    classify_vertex,
    decompose,
    enumerate_vertices,
    is_vertex,
    parity_form_of,
)
from boxworld.wiring import (
    STOP,
    BoxBank,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    induced_box,
    pr_instance,
)


def solve_linear_system(A, b):
    """One exact solution of A z = b (no sign constraint), or None, by
    Fraction Gauss-Jordan elimination."""
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


def test_solve_linear_system():
    sol = solve_linear_system([[2, 0], [0, 4]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_linear_system([[1, 1], [1, 1]], [0, 1]) is None


def greedy_initial_basis(rows, dim):
    """Reference for `_initial_cone`: the first dim independent rows, each
    kept when it raises the exact rank, and their inverse's columns, solved
    one by one, as primitive integer rays.  Returns (indices, rays)."""
    chosen = []
    mat = []
    for idx, row in enumerate(rows):
        candidate = mat + [row]
        if exact_rank(candidate) == len(candidate):
            mat = candidate
            chosen.append(idx)
            if len(chosen) == dim:
                break
    assert len(chosen) == dim, "inequality system is rank-deficient"
    rays = []
    for col in range(dim):
        sol = solve_linear_system(mat, [int(r == col) for r in range(dim)])
        den = lcm(*(v.denominator for v in sol))
        rays.append(_gcd_reduce([int(v * den) for v in sol]))
    return chosen, rays


def brute_force_vertices(h_rep):
    """Independent oracle: solve every maximal tight subset of the
    nonnegativity constraints in parametrized coordinates."""
    dim = h_rep.dimension
    rows = []
    consts = []
    for const, terms in h_rep.cell_exprs:
        row = [0] * dim
        for idx, coef in terms:
            row[idx] = coef
        rows.append(row)
        consts.append(const)
    points = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        A = [rows[i] for i in subset]
        b = [-consts[i] for i in subset]
        if exact_rank(A) < dim:
            continue
        sol = solve_linear_system(A, b)
        if sol is None:
            continue
        ok = True
        for row, const in zip(rows, consts):
            value = Fraction(const) + sum(c * t for c, t in zip(row, sol))
            if value < 0:
                ok = False
                break
        if ok:
            points.add(tuple(sol))
    return {h_rep.box_from_point(list(p)) for p in points}


def reference_double_description(h_rep):
    """Reference for `enumerate_vertices`' adjacency test: the same double
    description, but each candidate pair scans every other ray for one
    tight on the pair's whole common set.  Returns the vertices in order."""
    rows = _inequality_rows(h_rep)
    dim = h_rep.dimension + 1
    order, initial_rays = _initial_cone(h_rep)
    basis = sum(1 << row_idx for row_idx in order)
    rays = [(ray, basis & ~(1 << row_idx)) for row_idx, ray in zip(order, initial_rays)]
    for row_idx, row in enumerate(rows):
        if basis >> row_idx & 1:
            continue
        vals = [sum(r * v for r, v in zip(row, ray)) for ray, _ in rays]
        if all(v >= 0 for v in vals):
            rays = [(ray, mask | (1 << row_idx) if v == 0 else mask) for (ray, mask), v in zip(rays, vals)]
            continue
        kept = [rays[i] for i, v in enumerate(vals) if v > 0]
        kept += [(rays[i][0], rays[i][1] | (1 << row_idx)) for i, v in enumerate(vals) if v == 0]
        seen = {ray for ray, _ in kept}
        for i, vp in enumerate(vals):
            if vp <= 0:
                continue
            for j, vn in enumerate(vals):
                if vn >= 0:
                    continue
                common = rays[i][1] & rays[j][1]
                if common.bit_count() < dim - 2:
                    continue
                if any(common & ~mask_k == 0 for k, (_, mask_k) in enumerate(rays) if k not in (i, j)):
                    continue
                new = _gcd_reduce([vp * b - vn * a for a, b in zip(rays[i][0], rays[j][0])])
                if new not in seen:
                    seen.add(new)
                    kept.append((new, common | (1 << row_idx)))
        rays = kept
    return [h_rep.box_from_point([Fraction(v, ray[0]) for v in ray[1:]]) for ray, _ in rays]


def reference_equalities(input_sizes, output_sizes):
    """Independent reference for the parametrization: the table cells and
    the normalization and no-signaling equalities over them, written out
    directly.  Returns (cells, rows, rhs)."""
    n = len(input_sizes)
    inputs = list(itertools.product(*(range(m) for m in input_sizes)))
    outputs = list(itertools.product(*(range(d) for d in output_sizes)))
    cells = [(x, a) for x in inputs for a in outputs]
    index = {c: i for i, c in enumerate(cells)}
    rows, rhs = [], []
    for x in inputs:
        row = [0] * len(cells)
        for a in outputs:
            row[index[(x, a)]] = 1
        rows.append(row)
        rhs.append(1)
    for i in range(n):  # the other parties' marginal ignores party i's input
        for x in inputs:
            if x[i] == input_sizes[i] - 1:
                continue
            x_next = x[:i] + (x[i] + 1,) + x[i + 1:]
            for a_rest in itertools.product(*(range(output_sizes[p]) for p in range(n) if p != i)):
                row = [0] * len(cells)
                for a_i in range(output_sizes[i]):
                    a = a_rest[:i] + (a_i,) + a_rest[i:]
                    row[index[(x, a)]] += 1
                    row[index[(x_next, a)]] -= 1
                rows.append(row)
                rhs.append(0)
    return cells, rows, rhs


PARAMETRIZED_SHAPES = [
    ((3,), (2,)),
    ((2,), (3,)),
    ((2, 2), (2, 2)),
    ((2, 1), (2, 3)),
    ((1, 1), (3, 3)),
    ((3, 2), (2, 3)),
    ((1, 1, 1), (2, 2, 2)),
    ((2, 1, 1), (2, 2, 2)),
    ((2, 2, 2), (2, 2, 2)),
    ((2, 1, 2), (2, 3, 2)),
]


def mod_three_pr_box():
    table = {
        ((x, y), (a, (a + x * y) % 3)): Fraction(1, 3) for x, y in itertools.product((0, 1), repeat=2) for a in range(3)
    }
    return bw.make_box(2, (2, 2), (3, 3), table, sparse=True)


@pytest.mark.parametrize(
    "input_sizes, output_sizes",
    PARAMETRIZED_SHAPES,
    ids=[f"{ins}-{outs}".replace(" ", "") for ins, outs in PARAMETRIZED_SHAPES],
)
class TestMarginalParametrization:
    def test_cell_expressions_satisfy_the_equalities(self, input_sizes, output_sizes):
        h = build_h_rep(input_sizes, output_sizes, dimension_cap=100)
        cells, rows, rhs = reference_equalities(input_sizes, output_sizes)
        assert list(h.cells) == cells
        for row, value in zip(rows, rhs):
            const = 0
            linear = [0] * h.dimension
            for coef, (c, terms) in zip(row, h.cell_exprs):
                const += coef * c
                for idx, t in terms:
                    linear[idx] += coef * t
            assert (const, linear) == (value, [0] * h.dimension)
        closed_form = 1
        for m, d in zip(input_sizes, output_sizes):
            closed_form *= m * (d - 1) + 1
        assert len(cells) - exact_rank(rows) == h.dimension == closed_form - 1

    def test_deterministic_boxes_round_trip(self, input_sizes, output_sizes):
        h = build_h_rep(input_sizes, output_sizes, dimension_cap=100)
        for box in all_deterministic_boxes(input_sizes, output_sizes):
            assert h.box_from_point(h.point_from_box(box)) == box


class TestHRepresentation:
    def test_dimension_2222(self):
        h = build_h_rep((2, 2), (2, 2))
        assert len(h.cells) == 16
        assert h.dimension == 8

    def test_dimension_single_input(self):
        h = build_h_rep((1, 1), (2, 2))
        assert h.dimension == 3

    def test_zero_output_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_h_rep((2, 2), (0, 2))

    def test_dimension_cap(self):
        with pytest.raises(TooLarge):
            build_h_rep((4, 4), (2, 2), dimension_cap=15)

    def test_point_round_trip(self):
        h = build_h_rep((2, 2), (2, 2))
        pr = bw.pr_box()
        t = h.point_from_box(pr)
        assert h.box_from_point(t) == pr

    def test_three_party_polytope(self):
        h = build_h_rep((1, 1, 1), (2, 2, 2))
        vertices = enumerate_vertices(h)
        assert len(vertices) == 8
        assert set(vertices) == brute_force_vertices(h)
        assert all(classify_vertex(v, h).classification == "local-deterministic" for v in vertices)
        # one input for all but one party: every vertex is deterministic
        h = build_h_rep((2, 1, 1), (2, 2, 2))
        assert set(enumerate_vertices(h)) == set(all_deterministic_boxes((2, 1, 1), (2, 2, 2)))
        with pytest.raises(TooLarge):
            build_h_rep((2, 2, 2), (2, 2, 2))
        with pytest.raises(DimensionMismatch):
            build_h_rep((2, 2), (2,))


class TestEnumeration:
    def test_2222_vertex_census(self):
        h = build_h_rep((2, 2), (2, 2))
        vertices = enumerate_vertices(h)
        assert len(vertices) == 24
        classes = {}
        for v in vertices:
            rep = classify_vertex(v, h, check=False)
            classes[rep.classification] = classes.get(rep.classification, 0) + 1
        assert classes == {"local-deterministic": 16, "pr-equivalent": 8}

    def test_2222_matches_brute_force_oracle(self):
        h = build_h_rep((2, 2), (2, 2))
        assert set(enumerate_vertices(h)) == brute_force_vertices(h)

    def test_single_input_product_vertices(self):
        h = build_h_rep((1, 1), (2, 2))
        vertices = enumerate_vertices(h)
        assert len(vertices) == 4
        assert all(
            classify_vertex(v, h, check=False).classification == "local-deterministic"
            for v in vertices
        )
        oracle = brute_force_vertices(h)
        assert set(vertices) == oracle

    def test_asymmetric_scenario_oracle(self):
        h = build_h_rep((2, 1), (2, 2))
        assert set(enumerate_vertices(h)) == brute_force_vertices(h)

    def test_wider_output_scenario_oracle(self):
        h = build_h_rep((2, 1), (2, 3))
        vertices = enumerate_vertices(h)
        assert set(vertices) == brute_force_vertices(h)
        assert len(vertices) == 12

    def test_trivial_inputs_three_outputs(self):
        h = build_h_rep((1, 1), (3, 3))
        vertices = enumerate_vertices(h)
        # product of two 3-outcome simplices: the 9 deterministic points
        assert len(vertices) == 9
        assert set(vertices) == brute_force_vertices(h)

    def test_every_vertex_nonsignaling_and_extremal(self):
        h = build_h_rep((2, 2), (2, 2))
        for v in enumerate_vertices(h):
            assert bw.check_no_signaling(v).ok
            assert is_vertex(v, h)


REFERENCE_DD_SHAPES = [
    ((1,), (2,)),
    ((2,), (2,)),
    ((3,), (3,)),
    ((1, 1), (2, 2)),
    ((2, 2), (1, 2)),
    ((2, 2), (2, 2)),
    ((3, 3), (2, 2)),
    ((2, 3), (2, 2)),
    ((2, 2), (2, 3)),
    ((1, 1, 1), (2, 2, 2)),
    ((2, 1, 1), (2, 2, 2)),
]


@pytest.mark.parametrize(
    "input_sizes, output_sizes",
    REFERENCE_DD_SHAPES,
    ids=[f"{ins}-{outs}".replace(" ", "") for ins, outs in REFERENCE_DD_SHAPES],
)
def test_bitset_adjacency_matches_the_all_rays_scan(input_sizes, output_sizes):
    # (1,)/(2,) is 1-dimensional: its only pair has an empty common set
    h = build_h_rep(input_sizes, output_sizes)
    assert enumerate_vertices(h) == reference_double_description(h)


def test_enumeration_verifies_the_h_representation():
    # the double description runs on whatever cell expressions it is given;
    # a wrong one must raise, not return boxes
    h = build_h_rep((2, 2), (2, 2))

    def enumerate_with(changed):
        exprs = dict(enumerate(h.cell_exprs)) | changed
        return enumerate_vertices(dataclasses.replace(h, cell_exprs=tuple(exprs.values())))

    def shifted(c):
        const, terms = h.cell_exprs[c]
        return {c: (const + 1, terms)}

    def swapped(c, d):
        return {c: h.cell_exprs[d], d: h.cell_exprs[c]}

    # a spanning cell's row is wrong: the initial cone's certificate refuses
    # it before the double description starts
    assert h.cells[1] == ((0, 0), (0, 1))
    for changed in (shifted(1), swapped(0, 1)):
        with pytest.raises(VerificationFailed, match="do not invert the spanning cells"):
            enumerate_with(changed)
    # a non-spanning cell's row is wrong: each per-vertex check still fires
    assert h.cells[7] == ((0, 1), (1, 1))
    with pytest.raises(NotNormalized):
        enumerate_with(shifted(7))
    # two cells of one input swapped: still normalized, but it signals
    assert [h.cells[13], h.cells[14]] == [((1, 1), (0, 1)), ((1, 1), (1, 0))]
    with pytest.raises(VerificationFailed, match="signals"):
        enumerate_with(swapped(13, 14))


def test_a_wrong_initial_ray_is_refused(monkeypatch):
    h = build_h_rep((2, 2), (2, 2))
    order, rays = _initial_cone(h)
    for wrong in ((0,) + rays[0][1:], rays[0][:-1] + (1 - rays[0][-1],), tuple(2 * v for v in rays[0])):
        monkeypatch.setattr(bw.polytope, "_initial_cone", lambda h_rep, wrong=wrong: (order, [wrong] + rays[1:]))
        with pytest.raises(VerificationFailed, match="do not invert the spanning cells"):
            enumerate_vertices(h)
    # one ray too few
    monkeypatch.setattr(bw.polytope, "_initial_cone", lambda h_rep: (order[:-1], rays[:-1]))
    with pytest.raises(VerificationFailed, match="do not invert the spanning cells"):
        enumerate_vertices(h)


CLOSED_FORM_SHAPES = [
    (input_sizes, output_sizes)
    for n in (1, 2)
    for input_sizes in itertools.product((1, 2, 3), repeat=n)
    for output_sizes in itertools.product((1, 2, 3), repeat=n)
    if (input_sizes, output_sizes) != ((3, 3), (3, 3))  # 48 dimensions
] + [((1, 1, 1), (2, 2, 2)), ((2, 1, 1), (2, 2, 2)), ((2, 2, 2), (2, 2, 2))]


def test_the_initial_cone_is_the_greedy_basis_and_its_inverse():
    # the spanning cells are the first independent rows, and their 0/1
    # inverse is the primitive integer form of the solved one, in the same
    # order: the double description starts from the same rays
    assert len(CLOSED_FORM_SHAPES) == 92
    for input_sizes, output_sizes in CLOSED_FORM_SHAPES:
        h = build_h_rep(input_sizes, output_sizes, dimension_cap=40)
        order, rays = _initial_cone(h)
        assert (order, rays) == greedy_initial_basis(_inequality_rows(h), h.dimension + 1), (input_sizes, output_sizes)


def integer_ray(h_rep, box):
    """The box's integer ray (s, *s*t): t its point, s the common
    denominator of t."""
    t = h_rep.point_from_box(box)
    s = lcm(*(v.denominator for v in t))
    return (s, *(int(v * s) for v in t))


@pytest.mark.parametrize("input_sizes", [(2, 2), (2, 3), (3, 3)])
def test_integer_checks_build_the_make_box_box(input_sizes):
    # make_box and check_no_signaling stay the reference for the checks
    # that the enumeration now runs on the integers
    h = build_h_rep(input_sizes, (2, 2))
    sum_groups = h._sum_groups()
    for vertex in enumerate_vertices(h):
        s, *t = integer_ray(h, vertex)
        values = h._cell_values(s, t)
        box = h._box_on_ray(s, values, sum_groups)
        table = {cell: Fraction(v, s) for cell, v in zip(h.cells, values) if v}
        reference = bw.make_box(2, input_sizes, (2, 2), table, sparse=True)
        assert box == reference == vertex
        assert box.table == reference.table
        assert bw.check_no_signaling(box).ok


class TestIntegerChecks:
    """Each corrupted value vector on the PR box's ray raises its own error."""

    h = build_h_rep((2, 2), (2, 2))
    s, *t = integer_ray(h, bw.pr_box())  # s = 2
    values = h._cell_values(s, t)  # cell 1, ((0, 0), (0, 1)), is at 0

    def box_on(self, values):
        return self.h._box_on_ray(self.s, values, self.h._sum_groups())

    def test_the_uncorrupted_ray_is_the_pr_box(self):
        assert self.s == 2
        assert self.box_on(self.values) == bw.pr_box()

    @pytest.mark.parametrize("value", [-1, 3])
    def test_cell_out_of_range(self, value):
        values = list(self.values)
        values[5] = value
        with pytest.raises(NegativeProbability) as err:
            self.box_on(values)
        assert err.value.key == self.h.cells[5]
        assert err.value.value == Fraction(value, 2)

    def test_row_not_summing_to_s(self):
        values = list(self.values)
        values[1] = 1
        with pytest.raises(NotNormalized) as err:
            self.box_on(values)
        assert (err.value.x, err.value.total) == ((0, 0), Fraction(3, 2))

    def test_normalized_but_signaling(self):
        values = list(self.values)
        values[0], values[1] = values[1], values[0]
        with pytest.raises(VerificationFailed, match="signals"):
            self.box_on(values)

    def test_box_from_point_checks_no_signaling(self):
        exprs = list(self.h.cell_exprs)
        exprs[0], exprs[1] = exprs[1], exprs[0]
        swapped = dataclasses.replace(self.h, cell_exprs=tuple(exprs))
        with pytest.raises(VerificationFailed, match="signals"):
            swapped.box_from_point(self.h.point_from_box(bw.pr_box()))


def verify_on_ray(h, box, corrupt_ray=lambda ray: ray, corrupt_mask=lambda mask: mask):
    """`_verified_vertex` on the box's integer ray and zero-cell mask, each
    corrupted as given, with the tables `enumerate_vertices` builds."""
    linear = [row[1:] for row in _inequality_rows(h)[:-1]]
    mod3 = [_mod3_masks(row) for row in linear]
    odd = [_odd_mask(row) for row in linear]
    ray = integer_ray(h, box)
    values = h._cell_values(ray[0], ray[1:])
    mask = sum(1 << c for c, v in enumerate(values) if v == 0)
    return _verified_vertex(h, corrupt_ray(ray), corrupt_mask(mask), linear, mod3, odd, h._sum_groups())


def test_each_vertex_check_raises_on_its_own_corruption():
    h = build_h_rep((2, 2), (2, 2))
    assert verify_on_ray(h, bw.pr_box()) == bw.pr_box()
    with pytest.raises(VerificationFailed, match="unbounded"):
        verify_on_ray(h, bw.pr_box(), corrupt_ray=lambda ray: (0,) + ray[1:])
    with pytest.raises(VerificationFailed, match="nonnegativity"):
        verify_on_ray(h, bw.pr_box(), corrupt_ray=lambda ray: ray[:1] + (ray[1] + 5,) + ray[2:])
    with pytest.raises(VerificationFailed, match="carried tight set"):
        verify_on_ray(h, bw.pr_box(), corrupt_mask=lambda mask: mask ^ 1)
    with pytest.raises(VerificationFailed, match="not extremal"):
        verify_on_ray(h, bw.uniform_box((2, 2), (2, 2)))


@pytest.mark.parametrize("modular", [True, False], ids=["masks", "fraction-free"])
def test_a_rank_deficient_zero_cell_set_is_not_extremal(monkeypatch, modular):
    # the midpoint of two vertices is at 0 on their common zero cells only,
    # whose rank falls short of the dimension.  The masks refuse it, and so
    # does the fraction-free elimination, which also accepts the vertices
    # when the modular passes are made to fall short.
    eliminations = []

    def eliminated(rows):
        eliminations.append(len(rows))
        return _fraction_free_rank(rows)

    monkeypatch.setattr(bw.polytope, "_fraction_free_rank", eliminated)
    if not modular:
        monkeypatch.setattr(bw.polytope, "_modular_full_rank", lambda *args: False)
    for input_sizes, output_sizes in (((2, 2), (2, 2)), ((2, 2), (3, 3))):
        h = build_h_rep(input_sizes, output_sizes, dimension_cap=30)
        vertices = enumerate_vertices(h)
        first, second = vertices[0], vertices[-1]
        assert verify_on_ray(h, first) == first and verify_on_ray(h, second) == second
        midpoint = bw.mix_boxes([(Fraction(1, 2), first), (Fraction(1, 2), second)])
        rows = _inequality_rows(h)
        zero = [c for c, cell in enumerate(h.cells) if midpoint.prob(*cell) == 0]
        assert zero and exact_rank([rows[c][1:] for c in zero]) < h.dimension
        with pytest.raises(VerificationFailed, match="not extremal"):
            verify_on_ray(h, midpoint)
        # the masks decide every vertex, so only the midpoint is eliminated;
        # without them every vertex is, and the first and last once more
        assert len(eliminations) == (1 if modular else len(vertices) + 3), (input_sizes, output_sizes)
        eliminations.clear()


def test_enumeration_builds_no_box_through_make_box_or_check_no_signaling(monkeypatch):
    h = build_h_rep((2, 3), (2, 2))
    expected = enumerate_vertices(h)

    def refuse(*args, **kwargs):
        raise AssertionError("called during enumeration")

    monkeypatch.setattr(bw.boxes, "make_box", refuse)
    monkeypatch.setattr(bw.boxes, "check_no_signaling", refuse)
    monkeypatch.setattr(bw.polytope, "check_no_signaling", refuse)
    assert enumerate_vertices(h) == expected


class TestShapeMismatch:
    def test_is_vertex(self):
        with pytest.raises(ShapeMismatch):
            is_vertex(bw.pr_box(), build_h_rep((3, 3), (2, 2)))
        with pytest.raises(ShapeMismatch):
            is_vertex(bw.pr_box(), build_h_rep((2, 2), (2, 3)))

    def test_classify_vertex(self):
        h33 = build_h_rep((3, 3), (2, 2))
        for check in (True, False):
            with pytest.raises(ShapeMismatch):
                classify_vertex(bw.pr_box(), h33, check=check)

    def test_decompose(self):
        vertices = enumerate_vertices(build_h_rep((2, 3), (2, 2)))
        with pytest.raises(ShapeMismatch, match="vertex 0 "):
            decompose(bw.pr_box(), vertices)
        h = build_h_rep((2, 2), (2, 2))
        with pytest.raises(ShapeMismatch, match="vertex 24 "):
            decompose(bw.pr_box(), enumerate_vertices(h) + vertices[:1])


class TestClassification:
    def test_pr_is_pr_equivalent_with_relabeling_witness(self):
        h = build_h_rep((2, 2), (2, 2))
        rep = classify_vertex(bw.pr_box(), h)
        assert rep.classification == "pr-equivalent"
        assert bw.relabel(bw.pr_box(), rep.relabeling) == bw.pr_box()
        assert dict(((x, y), v) for x, y, v in rep.f_table) == {
            (x, y): x & y for x in (0, 1) for y in (0, 1)
        }

    def test_deterministic_box(self):
        box = bw.deterministic_box((2, 2), (2, 2), ((0, 0), (0, 0)))
        rep = classify_vertex(box)
        assert rep.classification == "local-deterministic"

    def test_all_nonlocal_2222_vertices_pr_equivalent(self):
        # the witness read off the parity table is the one the boxes give:
        # the first relabeling, in `all_relabelings` order, whose relabeled
        # box equals the PR box
        h = build_h_rep((2, 2), (2, 2))
        target = bw.pr_box()
        reports = [classify_vertex(v, h, check=False) for v in enumerate_vertices(h)]
        reports = [rep for rep in reports if rep.classification == "pr-equivalent"]
        assert len(reports) == 8
        for rep in reports:
            assert bw.relabel(rep.box, rep.relabeling) == target
            first = next(rel for rel in bw.all_relabelings((2, 2), (2, 2)) if bw.relabel(rep.box, rel) == target)
            assert rep.relabeling == first

    def test_every_2222_vertex_is_induced_with_at_most_one_pr_box(self):
        # local vertices need no box; a PR-equivalent vertex is the identity
        # PR wiring composed with the inverse of its relabeling witness
        h = build_h_rep((2, 2), (2, 2))
        kinds = []
        for vertex in enumerate_vertices(h):
            rep = classify_vertex(vertex, h)
            kinds.append(rep.classification)
            moves = [{}, {}]
            outputs = [{}, {}]
            if rep.classification == "local-deterministic":
                bank = BoxBank(())
                for x in vertex.inputs():
                    (a,) = (a for a in vertex.outputs() if vertex.prob(x, a) == 1)
                    for party in (0, 1):
                        moves[party][(0, x[party], ())] = STOP
                        outputs[party][(0, x[party], ())] = a[party]
            else:
                assert rep.classification == "pr-equivalent"
                rel = rep.relabeling
                # party j holds the PR slot i with party_perm[i] == j
                bank = BoxBank((pr_instance(rel.party_perm),))
                for party in (0, 1):
                    for x in (0, 1):
                        moves[party][(0, x, ())] = ("use", 0, rel.input_perms[party][x])
                        for alpha in (0, 1):
                            moves[party][(0, x, (alpha,))] = STOP
                            outputs[party][(0, x, (alpha,))] = rel.output_perms[party][x].index(alpha)
            protocol = WiringProtocol(
                n_parties=2,
                randomness=SharedRandomness.singleton(0),
                bank=bank,
                strategies=tuple(TableStrategy(p, moves[p], outputs[p]) for p in (0, 1)),
                input_sizes=(2, 2),
                output_sizes=(2, 2),
            )
            assert induced_box(protocol) == vertex
        assert sorted(kinds) == ["local-deterministic"] * 16 + ["pr-equivalent"] * 8

    def test_mod_three_pr_box_is_an_other_vertex(self):
        # 1/3 on each (a, b) with b - a = xy (mod 3): extremal, but neither
        # deterministic, reducible nor of two-output parity form
        box = mod_three_pr_box()
        assert bw.check_no_signaling(box).ok
        assert is_vertex(box)
        assert classify_vertex(box).classification == "other"

    def test_interior_point_is_not_a_vertex(self):
        with pytest.raises(NotAVertex):
            classify_vertex(bw.uniform_box((2, 2), (2, 2)))

    def test_classification_rejects_signaling(self):
        table = {}
        for x1, x2 in itertools.product((0, 1), repeat=2):
            table[((x1, x2), (x2, 0))] = Fraction(1)
        box = bw.make_box(2, (2, 2), (2, 2), table, sparse=True)
        with pytest.raises(NotAVertex):
            classify_vertex(box)


class TestParityFormMultipartite:
    def test_three_party_parity_box_recognized(self):
        f = lambda b: (b[0] & b[1]) ^ b[2]
        box = bw.full_correlation_box(3, 1, f)
        g = bw.parity_form_of(box)
        assert g is not None
        for x, value in g.items():
            assert value == f(x)

    def test_cluster_box_is_not_of_parity_form(self):
        # nontrivial subset correlations rule the form out
        assert bw.parity_form_of(bw.cluster_box()) is None

    def test_deterministic_box_is_not_of_parity_form(self):
        box = bw.deterministic_box((2, 2), (2, 2), ((0, 1), (0, 1)))
        assert bw.parity_form_of(box) is None


class TestDecompose:
    def test_uniform_noise_interior(self):
        h = build_h_rep((2, 2), (2, 2))
        vertices = enumerate_vertices(h)
        box = bw.uniform_box((2, 2), (2, 2))
        weights = decompose(box, vertices)
        assert sum(weights) == 1
        assert all(w >= 0 for w in weights)

    def test_vertex_decomposes_to_itself(self):
        h = build_h_rep((2, 2), (2, 2))
        vertices = enumerate_vertices(h)
        weights = decompose(bw.pr_box(), vertices)
        support = [(v, w) for v, w in zip(vertices, weights) if w != 0]
        assert len(support) == 1
        assert support[0][0] == bw.pr_box()
        assert support[0][1] == 1

    def test_isotropic_mixture_recovered_exactly(self):
        h = build_h_rep((2, 2), (2, 2))
        vertices = enumerate_vertices(h)
        box = bw.mix_boxes(
            [
                (Fraction(3, 4), bw.pr_box()),
                (Fraction(1, 4), bw.uniform_box((2, 2), (2, 2))),
            ]
        )
        weights = decompose(box, vertices)  # re-expansion asserted inside
        assert sum(weights) == 1

    def test_signaling_box_infeasible(self):
        h = build_h_rep((2, 2), (2, 2))
        vertices = enumerate_vertices(h)
        table = {}
        for x1, x2 in itertools.product((0, 1), repeat=2):
            table[((x1, x2), (x2, 0))] = Fraction(1)
        box = bw.make_box(2, (2, 2), (2, 2), table, sparse=True)
        with pytest.raises(Infeasible) as err:
            decompose(box, vertices)
        assert err.value.certificate is not None



def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _report_key(report):
    reduction = None if report.reduction is None else sorted(report.reduction.items())
    return (report.classification, report.f_table, report.relabeling, reduction)


# (inputs, outputs, dimension cap, vertex count, SHA-256 of the vertices'
# tables in order, SHA-256 of their classification reports in order)
CENSUS_PINS = [
    ((2, 2), (2, 2), 15, 24,
     "57da48f541d9dd0eecbde9a5448456057898f1564c3737f5421da56e6a9ee995",
     "40a975d8ec0383ff7d3b8e355cb2a8abfea6628f997b92c677c4d9fe7dd83c9a"),
    ((3, 3), (2, 2), 15, 1408,
     "b6eb933c8add55153dcda72d6f6278a199e0122e9259011d9157bd96b5f655c0",
     "a2bf5dbd0cef96838fc71a179aecbd02b1a75cd13ccf23d427b0b4c0810cac63"),
    ((2, 2), (3, 3), 30, 1161,
     "24a2bfc7c06224b2a3b7abb611c49fa475842a6d9473aad5ea916a2717030f35",
     "2096915ccd604c6fccb3d2b6b386481cbfb27d9b91d80a4a50dc5b337f38bcca"),
]


# (inputs, outputs, dimension cap, vertex count) of each pinned census
CENSUS_SHAPES = [pin[:4] for pin in CENSUS_PINS]
CENSUS_IDS = [f"{pin[0]}-{pin[1]}".replace(" ", "") for pin in CENSUS_PINS]


@pytest.mark.parametrize(
    "input_sizes, output_sizes, cap, count, vertices_digest, reports_digest",
    CENSUS_PINS,
    ids=CENSUS_IDS,
)
def test_census_and_its_classification_are_pinned(input_sizes, output_sizes, cap, count, vertices_digest, reports_digest):
    h = build_h_rep(input_sizes, output_sizes, dimension_cap=cap)
    vertices = enumerate_vertices(h)
    assert len(vertices) == count
    assert _digest([tuple(v.table.items()) for v in vertices]) == vertices_digest
    assert _digest([_report_key(classify_vertex(v, h, check=False)) for v in vertices]) == reports_digest


@pytest.mark.parametrize("input_sizes, output_sizes, cap, count", CENSUS_SHAPES, ids=CENSUS_IDS)
def test_enumeration_takes_one_modular_certificate_per_vertex(monkeypatch, input_sizes, output_sizes, cap, count):
    # every census vertex is certified extremal mod 3 or mod 2 on the masks
    # sliced once per enumeration: no fraction-free elimination runs, and
    # no exact_rank slices a row again
    certificates = []
    eliminations = []
    ranks = []

    def certified(*args):
        certificates.append(_modular_full_rank(*args))
        return certificates[-1]

    def eliminated(rows):
        eliminations.append(len(rows))
        return _fraction_free_rank(rows)

    def ranked(rows):
        ranks.append(len(rows))
        return exact_rank(rows)

    h = build_h_rep(input_sizes, output_sizes, dimension_cap=cap)
    monkeypatch.setattr(bw.polytope, "_modular_full_rank", certified)
    monkeypatch.setattr(bw.polytope, "_fraction_free_rank", eliminated)
    monkeypatch.setattr(bw.polytope, "exact_rank", ranked)
    vertices = enumerate_vertices(h)
    assert len(certificates) == len(vertices) == count
    assert all(certificates)
    assert eliminations == ranks == []


@pytest.mark.parametrize("input_sizes, output_sizes, cap, count", CENSUS_SHAPES, ids=CENSUS_IDS)
def test_masked_certificate_is_the_exact_rank_on_every_zero_cell_set(input_sizes, output_sizes, cap, count):
    # each vertex's zero cells, and the same cells less the first: rank-
    # deficient unless the vertex is degenerate.  The masks reach the
    # dimension exactly where the exact rank does.
    h = build_h_rep(input_sizes, output_sizes, dimension_cap=cap)
    linear = [row[1:] for row in _inequality_rows(h)[:-1]]
    mod3 = [_mod3_masks(row) for row in linear]
    odd = [_odd_mask(row) for row in linear]
    vertices = enumerate_vertices(h)
    assert len(vertices) == count
    outcomes = {True: 0, False: 0}
    for vertex in vertices:
        zero = [c for c, cell in enumerate(h.cells) if vertex.prob(*cell) == 0]
        for cells in (zero, zero[1:]):
            full = exact_rank([linear[c] for c in cells]) == h.dimension
            masked = _modular_full_rank([mod3[c] for c in cells], [odd[c] for c in cells], h.dimension)
            assert masked == full, (vertex, cells)
            outcomes[full] += 1
    assert outcomes[True] > count and outcomes[False] > 0


PARITY_BOX_PINS = {
    (3, "and"): "7f327975f4ee22ce784a33c70a4c6942fc3b68de985e3ccb651b5ef6d75e0605",
    (3, "majority"): "a2f7612399d176ab50ab55d2fd626a8f1df7715f0c2ca3c4ed59f98f6089d9b4",
    (4, "and"): "aaff823119653ae9d67a681d146a8e78defb79143ce236ce41c20cc565c68fcf",
    (4, "majority"): "81f732eedb262e5ad552c5a76849d40a274b671adde0ceb9605a3deeced8ec36",
    (5, "and"): "b4b7ded8a63cecbd365a73c4cb95560a9b3f0d6b53911a070e84974a8c5e623c",
    (5, "majority"): "de82f306ded26e1fffe06652a4ac739737f45af3c6d4beab29e37c073c366bf1",
}
PARITY_FUNCTIONS = {"and": lambda x: int(all(x)), "majority": lambda x: int(2 * sum(x) > len(x))}


@pytest.mark.parametrize("n, name", list(PARITY_BOX_PINS), ids=[f"{n}-{name}" for n, name in PARITY_BOX_PINS])
def test_parity_box_classification_is_pinned(n, name):
    # checked as a vertex first, on the polytope classify_vertex builds
    report = classify_vertex(bw.parity_box((2,) * n, PARITY_FUNCTIONS[name]))
    assert report.classification == "full-correlation"
    assert _digest(_report_key(report)) == PARITY_BOX_PINS[(n, name)]


def _impossible_output_by_definition(box):
    """Reference: the first (party, input, output), in that order, that has
    probability 0 with the other parties at input 0."""
    n = box.n_parties
    for p in range(n):
        for x_p in range(box.input_sizes[p]):
            x = tuple(x_p if q == p else 0 for q in range(n))
            for a_p in range(box.output_sizes[p]):
                if all(box.prob(x, a) == 0 for a in box.outputs() if a[p] == a_p):
                    return (p, x_p, a_p)
    return None


def _parity_form_by_definition(box):
    """Reference: {x: parity} when every input's row is 1/2^(n-1) on the
    output tuples of one parity and 0 on the others, in input order."""
    n = box.n_parties
    if box.output_sizes != (2,) * n:
        return None
    weight = Fraction(1, 2 ** (n - 1))
    g = {}
    for x in box.inputs():
        for parity in (0, 1):
            if all(box.prob(x, a) == (weight if sum(a) % 2 == parity else 0) for a in box.outputs()):
                g[x] = parity
                break
        else:
            return None
    return g


def _seeded_boxes(seed):
    """Boxes of 1-4 parties, signaling or not: random rows with zeros,
    parity rows, and parity rows with one entry of the other parity, all
    with binary outputs or with some of size 3; plus parity and
    deterministic boxes, their mixtures, parity boxes with their table in
    reverse order, and unnormalized parity tables."""
    rng = random.Random(seed)
    boxes = []
    for _ in range(300):
        n = rng.randint(1, 4)
        input_sizes = tuple(rng.randint(1, 3) for _ in range(n))
        output_sizes = (2,) * n if rng.random() < 0.7 else tuple(rng.randint(1, 3) for _ in range(n))
        outputs = list(itertools.product(*(range(d) for d in output_sizes)))
        table = {}
        for x in itertools.product(*(range(m) for m in input_sizes)):
            kind = rng.choice(("random", "parity", "parity", "mixed parity"))
            if kind == "random" or output_sizes != (2,) * n:
                weights = [rng.choice((0, 0, 0, 1, 2)) for _ in outputs]
                weights[rng.randrange(len(outputs))] += 1
            else:
                parity = rng.randrange(2)
                weights = [int(sum(a) % 2 == parity) for a in outputs]
                if kind == "mixed parity" and n > 1:
                    # as many entries, but one of them of the other parity
                    i = weights.index(1)
                    j = next(k for k, a in enumerate(outputs) if weights[k] == 0 and a[0] != outputs[i][0])
                    weights[i], weights[j] = 0, 1
            total = sum(weights)
            table.update({(x, a): Fraction(w, total) for a, w in zip(outputs, weights) if w})
        boxes.append(bw.make_box(n, input_sizes, output_sizes, table, sparse=True))
    for _ in range(40):
        n = rng.randint(2, 3)
        sizes = tuple(rng.randint(1, 3) for _ in range(n))
        bits = {x: rng.randrange(2) for x in itertools.product(*(range(m) for m in sizes))}
        parity = bw.parity_box(sizes, bits.__getitem__)
        responses = [[rng.randrange(2) for _ in range(m)] for m in sizes]
        deterministic = bw.deterministic_box(sizes, (2,) * n, responses)
        w = Fraction(rng.randint(1, 3), 4)
        boxes += [parity, deterministic, bw.mix_boxes([(w, parity), (1 - w, deterministic)])]
        entries = list(parity.table.items())
        boxes.append(bw.make_box(n, sizes, (2,) * n, dict(entries[::-1]), sparse=True))
        # a Box built directly need not be normalized: one parity entry
        # short, one input without entries, one entry three times too large
        first_x = entries[0][0][0]
        tripled = dict(entries)
        tripled[entries[0][0]] *= 3
        for table in (dict(entries[1:]), {k: p for k, p in entries if k[0] != first_x}, tripled):
            boxes.append(bw.Box(n, sizes, (2,) * n, table))
    return boxes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_table_reads_match_their_definitions(seed):
    boxes = _seeded_boxes(seed)
    parity_forms = 0
    for box in boxes:
        assert _impossible_output(box) == _impossible_output_by_definition(box), box
        g = parity_form_of(box)
        reference = _parity_form_by_definition(box)
        assert g == reference, box
        if g is not None:
            assert list(g.items()) == list(reference.items())
            parity_forms += 1
    # both answers occur often enough to mean something
    assert 40 <= parity_forms <= len(boxes) - 40
    assert sum(_impossible_output(box) is None for box in boxes) >= 40
    h = build_h_rep((3, 3), (2, 2))
    for vertex in enumerate_vertices(h)[::7]:
        assert _impossible_output(vertex) == _impossible_output_by_definition(vertex)
        assert parity_form_of(vertex) == _parity_form_by_definition(vertex)


@pytest.mark.slow
class TestThreeInputScenario:
    def test_genuine_nonlocal_vertices_have_parity_form(self):
        h = build_h_rep((3, 3), (2, 2))
        vertices = enumerate_vertices(h)
        assert len(vertices) == 1408
        census = {}
        for v in vertices:
            rep = classify_vertex(v, h, check=False)
            census[rep.classification] = census.get(rep.classification, 0) + 1
            if rep.classification == "reducible":
                assert rep.reduction is not None
        # independent combinatorial cross-check of the census:
        #   local deterministic: (2^3)^2 response functions
        #   genuine parity vertices: g on the full 3x3 grid that is not of
        #     the separable form u(x) XOR v(y): 2^9 - 2^3*2^3/2
        #   reducible: a genuine parity core on an input subgrid (at least
        #     one side proper, both sides >= 2 inputs) extended by a fixed
        #     output on each removed input:
        #     sum over (sA,sB) in {(2,2),(2,3),(3,2)} of
        #       C(3,sA)*C(3,sB) * (2^(sA*sB) - 2^sA*2^sB/2) * 2^(3-sA) * 2^(3-sB)
        assert census["local-deterministic"] == 64
        assert census["full-correlation"] == 2 ** 9 - 2 ** 3 * 2 ** 3 // 2 == 480
        reducible_expected = (
            3 * 3 * (2 ** 4 - 8) * 2 * 2 + 3 * 1 * (2 ** 6 - 16) * 2 + 1 * 3 * (2 ** 6 - 16) * 2
        )
        assert census["reducible"] == reducible_expected == 864
        assert census.get("other", 0) == 0
        # every genuine nonlocal vertex is of parity-correlated form
        assert set(census) == {"local-deterministic", "full-correlation", "reducible"}
