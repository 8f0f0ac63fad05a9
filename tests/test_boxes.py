import dataclasses
import itertools
import json
import pickle
import random
import types
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld import boxes
from boxworld.boxes import BOX_CELL_CAP
from boxworld.errors import (
    DimensionMismatch,
    NegativeProbability,
    NotNormalized,
    ShapeMismatch,
    SignalingAmbiguity,
    TooLarge,
    WrongShape,
)
from boxworld.rational import format_rational, parse_rational

HALF = Fraction(1, 2)


def test_make_box_uniform_coin():
    box = bw.make_box(1, (1,), (2,), {((0,), (0,)): HALF, ((0,), (1,)): HALF})
    assert box.prob((0,), (0,)) == HALF


def test_make_box_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        bw.make_box(1, (1,), (2,), {((0,), (0,)): Fraction(1, 4), ((0,), (1,)): HALF})


def test_make_box_rejects_negative_and_above_one():
    with pytest.raises(NegativeProbability):
        bw.make_box(1, (1,), (2,), {((0,), (0,)): Fraction(-1, 4), ((0,), (1,)): Fraction(5, 4)})


def test_make_box_requires_dense_unless_sparse():
    table = {((0,), (0,)): Fraction(1)}
    with pytest.raises(DimensionMismatch):
        bw.make_box(1, (1,), (2,), table)
    box = bw.make_box(1, (1,), (2,), table, sparse=True)
    assert box.prob((0,), (1,)) == 0


def test_make_box_rejects_bad_arity():
    with pytest.raises(DimensionMismatch):
        bw.make_box(2, (2, 2), (2, 2), {((0,), (0, 0)): Fraction(1)}, sparse=True)


def test_make_box_caps_the_table_size(monkeypatch):
    # the shape is refused before any row over the outputs is built
    with pytest.raises(TooLarge) as err:
        bw.make_box(2, (1, 1), (10 ** 9, 1), {}, sparse=True)
    assert (err.value.count, err.value.cap) == (10 ** 9, BOX_CELL_CAP)
    with pytest.raises(TooLarge):
        bw.Box.from_json_dict({"parties": 2, "inputs": [1, 1], "outputs": [10 ** 9, 1], "table": []})
    # the cap counts (x, a) pairs and admits a shape of exactly that many
    monkeypatch.setattr(boxes, "BOX_CELL_CAP", 8)
    table = {((x0, x1), (0, 0)): 1 for x0 in (0, 1) for x1 in (0, 1)}
    assert bw.make_box(2, (2, 2), (2, 1), table, sparse=True).n_parties == 2
    with pytest.raises(TooLarge):
        bw.make_box(2, (1, 1), (3, 3), {((0, 0), (0, 0)): 1}, sparse=True)


def test_parity_box_refuses_an_oversized_shape_before_evaluating():
    def parity_of(x):
        raise AssertionError("parity_of called on a shape over the cap")

    with pytest.raises(TooLarge) as err:
        bw.parity_box((2 ** 12, 2 ** 12), parity_of)
    assert (err.value.count, err.value.cap) == (2 ** 26, BOX_CELL_CAP)


class TestPRBox:
    def test_supported_pairs(self):
        pr = bw.pr_box()
        assert pr.prob((1, 1), (0, 0)) == 0
        assert pr.prob((1, 1), (0, 1)) == HALF
        assert pr.prob((1, 1), (1, 0)) == HALF
        assert pr.prob((0, 0), (0, 1)) == 0
        for x1, x2 in itertools.product((0, 1), repeat=2):
            for a1, a2 in itertools.product((0, 1), repeat=2):
                expected = HALF if (a1 ^ a2) == (x1 & x2) else Fraction(0)
                assert pr.prob((x1, x2), (a1, a2)) == expected

    def test_no_signaling(self):
        assert bw.check_no_signaling(bw.pr_box()).ok

    def test_marginals_uniform(self):
        pr = bw.pr_box()
        for party in (0, 1):
            m = bw.marginal(pr, [party])
            for x in (0, 1):
                assert m.prob((x,), (0,)) == HALF
                assert m.prob((x,), (1,)) == HALF

    def test_chsh_is_four(self):
        assert bw.chsh_value(bw.pr_box()) == 4


def test_signaling_box_detected():
    # party 0 outputs party 1's input; varying x_1 shifts party 0's marginal
    table = {}
    for x1, x2 in itertools.product((0, 1), repeat=2):
        table[((x1, x2), (x2, 0))] = Fraction(1)
    box = bw.make_box(2, (2, 2), (2, 2), table, sparse=True)
    verdict = bw.check_no_signaling(box)
    assert not verdict.ok
    assert verdict.party == 1  # the party whose input choice signals


def reference_check_no_signaling(box):
    """Independent reference: every marginal summed by `prob` lookups over
    all outputs, per party, others' inputs and own input."""
    n = box.n_parties
    for i in range(n):
        others = [p for p in range(n) if p != i]
        for x_others in itertools.product(*(range(box.input_sizes[p]) for p in others)):
            reference = None
            for x_i in range(box.input_sizes[i]):
                x = [0] * n
                for p, v in zip(others, x_others):
                    x[p] = v
                x[i] = x_i
                x = tuple(x)
                marg = {}
                for a in box.outputs():
                    a_others = tuple(a[p] for p in others)
                    if box.prob(x, a) != 0:
                        marg[a_others] = marg.get(a_others, Fraction(0)) + box.prob(x, a)
                if reference is None:
                    reference = marg
                elif marg != reference:
                    diff = next(
                        k for k in set(marg) | set(reference) if marg.get(k, Fraction(0)) != reference.get(k, Fraction(0))
                    )
                    return bw.NoSignalingVerdict(
                        ok=False,
                        party=i,
                        inputs_pair=(0, x_i),
                        context={
                            "others_inputs": dict(zip(others, x_others)),
                            "others_outputs": diff,
                            "probabilities": (reference.get(diff, Fraction(0)), marg.get(diff, Fraction(0))),
                        },
                    )
    return bw.NoSignalingVerdict(ok=True)


def _signaling_boxes():
    """Seeded signaling boxes of several shapes: random tables, uniform
    boxes with one input row replaced, and a box that signals only from
    its last party."""
    rng = random.Random(14)
    shapes = [((2, 2), (2, 2)), ((3, 2), (2, 3)), ((2, 2, 2), (2, 2, 2)), ((1, 3), (3, 2)), ((2, 1, 2), (2, 2, 3))]
    for inputs, outputs in shapes:
        n = len(inputs)
        all_outputs = list(itertools.product(*(range(d) for d in outputs)))
        for _ in range(4):
            table = {}
            for x in itertools.product(*(range(m) for m in inputs)):
                weights = [rng.choice((0, 0, 1, 2, 3)) for _ in all_outputs]
                weights[rng.randrange(len(weights))] += 1
                for a, w in zip(all_outputs, weights):
                    if w:
                        table[(x, a)] = Fraction(w, sum(weights))
            yield bw.make_box(n, inputs, outputs, table, sparse=True)
        base = bw.uniform_box(inputs, outputs)
        x = tuple(rng.randrange(m) for m in inputs)
        table = {k: v for k, v in base.table.items() if k[0] != x}
        table[(x, all_outputs[rng.randrange(len(all_outputs))])] = Fraction(1)
        yield bw.make_box(n, inputs, outputs, table, sparse=True)
    # party 0 outputs the last party's input: only the last party signals
    table = {((x0, x1, x2), (x2, 0, 0)): Fraction(1) for x0 in (0, 1) for x1 in (0, 1) for x2 in (0, 1)}
    yield bw.make_box(3, (2, 2, 2), (2, 2, 2), table, sparse=True)


def test_check_no_signaling_matches_the_reference_witness():
    rng = random.Random(7)
    signaling = 0
    for box in _signaling_boxes():
        items = list(box.table.items())
        rng.shuffle(items)
        shuffled = bw.Box(box.n_parties, box.input_sizes, box.output_sizes, dict(items))
        expected = reference_check_no_signaling(box)
        assert bw.check_no_signaling(box) == expected
        assert bw.check_no_signaling(shuffled) == expected
        signaling += not expected.ok
    assert signaling >= 20
    for box in (bw.pr_box(), bw.cluster_box(), bw.uniform_box((2, 3), (3, 2))):
        assert bw.check_no_signaling(box) == reference_check_no_signaling(box) == bw.NoSignalingVerdict(ok=True)


def test_check_no_signaling_witness_is_pinned():
    table = {((x0, x1, x2), (x2, 0, 0)): Fraction(1) for x0 in (0, 1) for x1 in (0, 1) for x2 in (0, 1)}
    verdict = bw.check_no_signaling(bw.make_box(3, (2, 2, 2), (2, 2, 2), table, sparse=True))
    assert verdict == bw.NoSignalingVerdict(
        ok=False,
        party=2,
        inputs_pair=(0, 1),
        context={"others_inputs": {0: 0, 1: 0}, "others_outputs": (1, 0), "probabilities": (Fraction(0), Fraction(1))},
    )


def test_full_correlation_box_is_pr_for_and():
    box = bw.full_correlation_box(2, 1, lambda bits: bits[0] & bits[1])
    assert box == bw.pr_box()


def test_full_correlation_box_from_a_circuit():
    and_table = bw.TruthTable(2, (0, 0, 0, 1))
    circuit = bw.synthesize_nand(and_table, ["u", "v"])
    assert bw.full_correlation_box(2, 1, circuit) == bw.full_correlation_box(2, 1, and_table) == bw.pr_box()
    three_inputs = bw.synthesize_nand(bw.TruthTable(3, (0, 0, 0, 1, 0, 0, 0, 1)), ["u", "v", "w"])
    with pytest.raises(ShapeMismatch, match="3 inputs, expected 2"):
        bw.full_correlation_box(2, 1, three_inputs)


def test_full_correlation_three_party_constant_zero():
    box = bw.full_correlation_box(3, 1, lambda bits: 0)
    quarter = Fraction(1, 4)
    for x in box.inputs():
        for a in itertools.product((0, 1), repeat=3):
            expected = quarter if sum(a) % 2 == 0 else Fraction(0)
            assert box.prob(x, a) == expected


def test_full_correlation_two_bit_equality_against_definition():
    # brute-force oracle: build the table straight from the definition
    def f(bits):
        x1 = bits[0] | (bits[1] << 1)
        x2 = bits[2] | (bits[3] << 1)
        return 1 if x1 == x2 else 0

    box = bw.full_correlation_box(2, 2, f)
    for x1, x2 in itertools.product(range(4), repeat=2):
        bits = (x1 & 1, (x1 >> 1) & 1, x2 & 1, (x2 >> 1) & 1)
        target = f(bits)
        for a1, a2 in itertools.product((0, 1), repeat=2):
            expected = HALF if (a1 ^ a2) == target else Fraction(0)
            assert box.prob((x1, x2), (a1, a2)) == expected


def test_full_correlation_no_signaling_assorted():
    for n, m, f in [
        (2, 1, lambda b: b[0] ^ b[1]),
        (3, 1, lambda b: (b[0] & b[1]) ^ b[2]),
        (2, 2, lambda b: (b[0] & b[2]) ^ b[1] ^ b[3]),
    ]:
        assert bw.check_no_signaling(bw.full_correlation_box(n, m, f)).ok


def test_full_correlation_strict_subset_marginals_uniform():
    box = bw.full_correlation_box(3, 1, lambda b: (b[0] & b[1]) ^ b[2])
    m = bw.marginal(box, [0, 1])
    quarter = Fraction(1, 4)
    for x in itertools.product((0, 1), repeat=2):
        for a in itertools.product((0, 1), repeat=2):
            assert m.prob(x, a) == quarter


def test_marginal_of_local_deterministic_box_point_mass():
    box = bw.deterministic_box((2, 2), (2, 2), ((0, 1), (0, 1)))  # a_i = x_i
    m = bw.marginal(box, [1])
    assert m.prob((0,), (0,)) == 1
    assert m.prob((1,), (1,)) == 1


def test_marginal_requires_complement_inputs_for_signaling_cut():
    table = {}
    for x1, x2 in itertools.product((0, 1), repeat=2):
        table[((x1, x2), (x2, 0))] = Fraction(1)
    box = bw.make_box(2, (2, 2), (2, 2), table, sparse=True)
    with pytest.raises(SignalingAmbiguity):
        bw.marginal(box, [0])
    m = bw.marginal(box, [0], complement_inputs=[1])
    assert m.prob((0,), (1,)) == 1


def test_marginal_complement_inputs_out_of_range():
    for bad in ([5], [-1], [2]):
        with pytest.raises(DimensionMismatch, match="complement input"):
            bw.marginal(bw.pr_box(), [0], complement_inputs=bad)
    assert bw.marginal(bw.pr_box(), [0], complement_inputs=[1]).prob((0,), (0,)) == HALF


def test_chsh_values():
    assert bw.chsh_value(bw.uniform_box((2, 2), (2, 2))) == 0
    always_zero = bw.deterministic_box((2, 2), (2, 2), ((0, 0), (0, 0)))
    assert bw.chsh_value(always_zero) == 2


def test_chsh_wrong_shape():
    with pytest.raises(WrongShape):
        bw.chsh_value(bw.uniform_box((2,), (2,)))


def test_deterministic_chsh_bounded_by_two_exhaustively():
    values = set()
    for responses in itertools.product(itertools.product((0, 1), repeat=2), repeat=2):
        box = bw.deterministic_box((2, 2), (2, 2), responses)
        values.add(bw.chsh_value(box))
    assert max(abs(v) for v in values) == 2
    assert len(values) > 1


class TestRelabel:
    def test_identity(self):
        pr = bw.pr_box()
        rel = bw.Relabeling.identity(pr.input_sizes, pr.output_sizes)
        assert bw.relabel(pr, rel) == pr

    def test_party_swap_fixes_pr(self):
        pr = bw.pr_box()
        rel = bw.Relabeling(
            party_perm=(1, 0),
            input_perms=((0, 1), (0, 1)),
            output_perms=(((0, 1), (0, 1)), ((0, 1), (0, 1))),
        )
        assert bw.relabel(pr, rel) == pr

    def test_output_flip_on_one_input_stays_nonlocal(self):
        # flipping party 0's output on input 0 moves PR to another extremal
        # box: this CHSH expression evaluates to 0 on it, but the relabeling
        # orbit still reaches 4 and the box stays nonlocal
        pr = bw.pr_box()
        rel = bw.Relabeling(
            party_perm=(0, 1),
            input_perms=((0, 1), (0, 1)),
            output_perms=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        )
        flipped = bw.relabel(pr, rel)
        assert flipped != pr
        assert bw.chsh_value(flipped) == 0
        assert not bw.is_local(flipped).local
        orbit_max = max(
            abs(bw.chsh_value(bw.relabel(flipped, r)))
            for r in bw.all_relabelings((2, 2), (2, 2))
        )
        assert orbit_max == 4

    def test_relabel_preserves_no_signaling(self):
        pr = bw.pr_box()
        for rel in itertools.islice(bw.all_relabelings((2, 2), (2, 2)), 0, 64, 7):
            assert bw.check_no_signaling(bw.relabel(pr, rel)).ok

    def test_relabel_rejects_non_bijection(self):
        pr = bw.pr_box()
        rel = bw.Relabeling(
            party_perm=(0, 0),
            input_perms=((0, 1), (0, 1)),
            output_perms=(((0, 1), (0, 1)), ((0, 1), (0, 1))),
        )
        with pytest.raises(ShapeMismatch):
            bw.relabel(pr, rel)


def test_mixture_and_json_round_trip():
    pr = bw.pr_box()
    noise = bw.uniform_box((2, 2), (2, 2))
    iso = bw.mix_boxes([(Fraction(3, 4), pr), (Fraction(1, 4), noise)])
    data = iso.to_json_dict()
    back = bw.Box.from_json_dict(data)
    assert back == iso
    assert all(entry["p"].count("/") == 1 for entry in data["table"])


def test_make_box_keeps_only_the_nonzero_entries():
    dense = {
        ((x0, x1), (a0, a1)): HALF if a0 ^ a1 == x0 & x1 else Fraction(0)
        for x0, x1, a0, a1 in itertools.product((0, 1), repeat=4)
    }
    box = bw.make_box(2, (2, 2), (2, 2), dense)
    assert len(box.table) == 8 and 0 not in box.table.values()
    assert box == bw.pr_box() and hash(box) == hash(bw.pr_box())
    assert box.to_json_dict() == bw.pr_box().to_json_dict()


def _assorted_boxes():
    pr = bw.pr_box()
    swap = bw.Relabeling((1, 0), ((0, 1), (0, 1)), (((1, 0), (0, 1)), ((0, 1), (0, 1))))
    vertex = bw.enumerate_vertices(bw.build_h_rep((2, 2), (2, 2)))[0]
    return [
        pr,
        bw.mix_boxes([(HALF, pr), (HALF, bw.uniform_box((2, 2), (2, 2)))]),
        bw.relabel(pr, swap),
        bw.Box.from_json_dict(pr.to_json_dict()),
        vertex,
        dataclasses.replace(pr, table={key: p for key, p in pr.table.items()}),
        bw.pr_instance((0, 1)).template,
    ]


@pytest.mark.parametrize("index", range(7))
def test_box_table_is_read_only(index):
    box = _assorted_boxes()[index]
    before = dict(box.table)
    key = next(iter(box.table))
    with pytest.raises(TypeError):
        box.table[key] = Fraction(1)
    with pytest.raises(TypeError):
        del box.table[key]
    assert box.table == before


def test_box_copies_the_table_it_is_given():
    table = {((0,), (0,)): HALF, ((0,), (1,)): HALF}
    box = bw.Box(1, (1,), (2,), table)
    table[((0,), (0,))] = Fraction(1)
    assert box.prob((0,), (0,)) == HALF


def test_boxes_and_pr_banks_pickle():
    for box in (bw.pr_instance((0, 1)).template, bw.pr_box(), bw.cluster_box()):
        back = pickle.loads(pickle.dumps(box))
        assert back == box and hash(back) == hash(box)
        assert isinstance(back.table, types.MappingProxyType)
    bank = bw.BoxBank((bw.pr_instance((0, 1)), bw.pr_instance((1, 0))))
    assert pickle.loads(pickle.dumps(bank)) == bank


def test_normalization_exact_everywhere():
    box = bw.full_correlation_box(3, 1, lambda b: b[0] ^ (b[1] & b[2]))
    for x in box.inputs():
        assert sum(box.prob(x, a) for a in box.outputs()) == 1


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=25, deadline=None)
    def test_random_parity_boxes_nonsignaling_with_uniform_marginals(mask):
        f = bw.TruthTable.from_int(3, mask)
        box = bw.full_correlation_box(3, 1, f)
        assert bw.check_no_signaling(box).ok
        for subset in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            m = bw.marginal(box, subset)
            w = Fraction(1, 2 ** len(subset))
            for x in itertools.product((0, 1), repeat=len(subset)):
                for a in itertools.product((0, 1), repeat=len(subset)):
                    assert m.prob(x, a) == w

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_box_json_round_trip(data):
        # random shapes and random exact rows, signaling or not
        n = data.draw(st.integers(1, 3))
        input_sizes = tuple(data.draw(st.integers(1, 2)) for _ in range(n))
        output_sizes = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
        outputs = list(itertools.product(*(range(s) for s in output_sizes)))
        table = {}
        for x in itertools.product(*(range(s) for s in input_sizes)):
            weights = data.draw(st.lists(st.integers(0, 3), min_size=len(outputs), max_size=len(outputs)))
            weights[data.draw(st.integers(0, len(outputs) - 1))] += 1
            table.update({(x, a): Fraction(w, sum(weights)) for a, w in zip(outputs, weights)})
        box = bw.make_box(n, input_sizes, output_sizes, table)
        document = json.loads(json.dumps(box.to_json_dict()))
        back = bw.Box.from_json_dict(document)
        assert back == box
        assert back.to_json_dict() == document
        assert all(back.prob(x, a) == p for (x, a), p in table.items())

    @given(st.integers(-(2 ** 70), 2 ** 70), st.integers(1, 2 ** 70))
    @settings(max_examples=200, deadline=None)
    def test_every_formatted_rational_parses(num, den):
        q = Fraction(num, den)
        assert parse_rational(format_rational(q)) == q

except ImportError:  # pragma: no cover
    pass
