import dataclasses
import itertools
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
from boxworld.exactlp import exact_rank, solve_linear_system
from boxworld.locality import all_deterministic_boxes
from boxworld.polytope import (
    _gcd_reduce,
    _inequality_rows,
    _initial_basis,
    _verified_vertex,
    build_h_rep,
    classify_vertex,
    decompose,
    enumerate_vertices,
    is_vertex,
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
    order, initial_rays = _initial_basis(rows, dim)
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
    exprs = list(h.cell_exprs)
    const, terms = exprs[1]
    exprs[1] = (const + 1, terms)
    with pytest.raises(NotNormalized):
        enumerate_vertices(dataclasses.replace(h, cell_exprs=tuple(exprs)))
    # two cells of one input swapped: still normalized, but it signals
    exprs = list(h.cell_exprs)
    exprs[0], exprs[1] = exprs[1], exprs[0]
    with pytest.raises(VerificationFailed, match="signals"):
        enumerate_vertices(dataclasses.replace(h, cell_exprs=tuple(exprs)))


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


def test_each_vertex_check_raises_on_its_own_corruption():
    h = build_h_rep((2, 2), (2, 2))
    linear = [row[1:] for row in _inequality_rows(h)[:-1]]

    def verify(box, corrupt_ray=lambda ray: ray, corrupt_mask=lambda mask: mask):
        ray = integer_ray(h, box)
        values = h._cell_values(ray[0], ray[1:])
        mask = sum(1 << c for c, v in enumerate(values) if v == 0)
        return _verified_vertex(h, corrupt_ray(ray), corrupt_mask(mask), linear, h._sum_groups())

    assert verify(bw.pr_box()) == bw.pr_box()
    with pytest.raises(VerificationFailed, match="unbounded"):
        verify(bw.pr_box(), corrupt_ray=lambda ray: (0,) + ray[1:])
    with pytest.raises(VerificationFailed, match="nonnegativity"):
        verify(bw.pr_box(), corrupt_ray=lambda ray: ray[:1] + (ray[1] + 5,) + ray[2:])
    with pytest.raises(VerificationFailed, match="carried tight set"):
        verify(bw.pr_box(), corrupt_mask=lambda mask: mask ^ 1)
    with pytest.raises(VerificationFailed, match="not extremal"):
        verify(bw.uniform_box((2, 2), (2, 2)))


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
        h = build_h_rep((2, 2), (2, 2))
        target = bw.pr_box()
        for v in enumerate_vertices(h):
            rep = classify_vertex(v, h, check=False)
            if rep.classification == "pr-equivalent":
                assert bw.relabel(v, rep.relabeling) == target

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
