import itertools
from fractions import Fraction

import pytest

import boxworld as bw
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


def test_four_party_majority_parity_box_with_noise_local():
    # 81 marginal rows x 256 strategies: the largest LP the census solves
    majority = bw.full_correlation_box(4, 1, lambda b: int(sum(b) >= 2))
    box = bw.mix_boxes([(Fraction(1, 16), majority), (Fraction(15, 16), bw.uniform_box((2,) * 4, (2,) * 4))])
    verdict = is_local(box)
    assert verdict.local
    assert expand_weights(box, verdict.weights) == box
