import itertools
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld import locality
from boxworld.boxes import marginal_point
from boxworld.cluster import cluster_box
from boxworld.errors import TooLarge
from boxworld.locality import all_deterministic_boxes, expand_weights, is_local


def test_uniform_noise_local_with_exact_reexpansion():
    box = bw.uniform_box((2, 2), (2, 2))
    verdict = is_local(box)
    assert verdict.local
    assert expand_weights(box, verdict.weights) == box


def test_every_deterministic_box_local():
    for box in all_deterministic_boxes((2, 2), (2, 2)):
        verdict = is_local(box)
        assert verdict.local
        assert expand_weights(box, verdict.weights) == box


def test_pr_nonlocal_with_verified_witness():
    verdict = is_local(bw.pr_box())
    assert not verdict.local
    w = verdict.witness
    assert w["kind"] == "linear"
    assert w["box_value"] > w["local_max"]


def test_isotropic_mixture_threshold():
    pr = bw.pr_box()
    noise = bw.uniform_box((2, 2), (2, 2))
    local = bw.mix_boxes([(Fraction(1, 2), pr), (Fraction(1, 2), noise)])
    nonlocal_ = bw.mix_boxes([(Fraction(3, 4), pr), (Fraction(1, 4), noise)])
    assert is_local(local).local
    assert not is_local(nonlocal_).local


def test_three_party_parity_box_nonlocal():
    box = bw.full_correlation_box(3, 1, lambda b: (b[0] & b[1]) ^ b[2])
    verdict = is_local(box)
    assert not verdict.local


def test_three_party_affine_parity_box_local():
    # total parity equal to an XOR of inputs is achievable locally
    box = bw.full_correlation_box(3, 1, lambda b: b[0] ^ b[1] ^ b[2])
    verdict = is_local(box)
    assert verdict.local
    assert expand_weights(box, verdict.weights) == box


def test_signaling_box_nonlocal_with_signaling_witness():
    table = {}
    for x1, x2 in itertools.product((0, 1), repeat=2):
        table[((x1, x2), (x2, 0))] = Fraction(1)
    box = bw.make_box(2, (2, 2), (2, 2), table, sparse=True)
    verdict = is_local(box)
    assert not verdict.local
    assert verdict.witness["kind"] == "signaling"


def test_strategy_cap():
    box = bw.uniform_box((2, 2), (2, 2))
    with pytest.raises(TooLarge):
        is_local(box, cap=3)


def _census_four_party_box():
    majority = bw.full_correlation_box(4, 1, lambda b: int(sum(b) >= 2))
    return bw.mix_boxes([(Fraction(1, 16), majority), (Fraction(15, 16), bw.uniform_box((2,) * 4, (2,) * 4))])


def test_four_party_majority_parity_box_with_noise_local():
    # the largest box the census decides: 256 strategies and 256 cells,
    # 10 strategy orbits and 10 cell orbits under its symmetry group
    box = _census_four_party_box()
    verdict = is_local(box)
    assert verdict.local
    assert expand_weights(box, verdict.weights) == box


def _cell_action(box, rel):
    """A relabeling as a permutation of the box's cells in `Box.inputs` x
    `Box.outputs` order, read off the definition that `relabel` applies."""
    cells = [(x, a) for x in box.inputs() for a in box.outputs()]
    index = {cell: i for i, cell in enumerate(cells)}
    n = box.n_parties
    action = []
    for x, a in cells:
        new_x = tuple(rel.input_perms[rel.party_perm[i]][x[rel.party_perm[i]]] for i in range(n))
        new_a = tuple(
            rel.output_perms[rel.party_perm[i]][x[rel.party_perm[i]]][a[rel.party_perm[i]]] for i in range(n)
        )
        action.append(index[(new_x, new_a)])
    return tuple(action)


def _group(actions):
    """Every product of the given cell permutations."""
    group = {tuple(range(len(actions[0])))}
    frontier = list(group)
    while frontier:
        new = []
        for h in frontier:
            for g in actions:
                product = tuple(g[i] for i in h)
                if product not in group:
                    group.add(product)
                    new.append(product)
        frontier = new
    return group


@pytest.mark.parametrize(
    "box",
    [
        bw.mix_boxes([(Fraction(3, 4), bw.pr_box()), (Fraction(1, 4), bw.uniform_box((2, 2), (2, 2)))]),
        bw.full_correlation_box(3, 1, lambda b: (b[0] & b[1]) ^ b[2]),
        bw.deterministic_box((2, 2), (2, 2), ((0, 1), (1, 1))),
        _census_four_party_box(),
        bw.uniform_box((2, 3), (2, 2)),
    ],
)
def test_every_generator_fixes_the_box(box):
    generators = locality._symmetries(box)
    assert generators
    for rel, _ in generators:
        assert bw.relabel(box, rel) == box


def test_pr_box_group_is_its_whole_stabilizer():
    # 16 of the 128 local relabelings of the 2-input binary scenario fix it
    pr = bw.pr_box()
    stabilizer = {
        _cell_action(pr, rel) for rel in bw.all_relabelings((2, 2), (2, 2)) if bw.relabel(pr, rel) == pr
    }
    assert len(stabilizer) == 16
    assert _group([_cell_action(pr, rel) for rel, _ in locality._symmetries(pr)]) == stabilizer


def test_cluster_box_group():
    box = cluster_box()
    generators = locality._symmetries(box)
    for rel, _ in generators:
        assert bw.relabel(box, rel) == box
    # the ring's rotations and reflections with 32 output-flip patterns
    assert len(_group([_cell_action(box, rel) for rel, _ in generators])) >= 320


def test_witness_is_scaled_to_value_one_and_checked_on_every_strategy():
    box = bw.full_correlation_box(3, 1, lambda b: (b[0] & b[1]) ^ b[2])
    w = is_local(box).witness
    assert w["kind"] == "linear" and w["box_value"] == 1
    coords = w["coordinates"]

    def value(b):
        return sum(c * v for c, v in zip(w["coefficients"], marginal_point(b, coords))) + w["constant"]

    assert value(box) == 1
    assert max(value(d) for d in all_deterministic_boxes((2, 2, 2), (2, 2, 2))) == w["local_max"] <= 0


def test_boxes_with_more_than_two_outputs_get_the_trivial_group():
    box = bw.uniform_box((2, 2), (3, 2))
    assert locality._symmetries(box) == []
    verdict = is_local(box)
    assert verdict.local
    assert expand_weights(box, verdict.weights) == box
