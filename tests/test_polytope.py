import itertools
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld.errors import DimensionMismatch, Infeasible, NotAVertex, TooLarge
from boxworld.exactlp import exact_rank, solve_linear_system
from boxworld.locality import all_deterministic_boxes
from boxworld.polytope import (
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
