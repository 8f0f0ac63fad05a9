import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld.cluster import (
    ConstraintSet,
    ParityConstraint,
    _one_box_option,
    _parse_pauli,
    _stabilizer_group,
    box_source,
    cluster_box,
    cluster_constraints,
    ghz_local_search,
    graph_state,
    inverted_cluster_constraints,
    protocol_source,
    satisfies,
    simulation_search,
    stabilizer_box,
)
from boxworld.errors import BoxworldError, DimensionMismatch, TooLarge
from boxworld.wiring import (
    DEFAULT_STRATEGY_CAP,
    STOP,
    BoxBank,
    OutcomeDistribution,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    _party_trees,
    count_strategies,
    enumerate_strategies,
    pr_instance,
)

# An owner's behaviour at one setting over one PR box: (uses the box, its
# input, (output on box output 0, on box output 1)); an owner that does not
# use the box repeats its constant output.
OWNER_OPTIONS = [(False, 0, (o, o)) for o in (0, 1)] + [
    (True, y, (h0, h1)) for y in (0, 1) for h0 in (0, 1) for h1 in (0, 1)
]


def _one_box_protocol(pair, owner_options, outputs, n=5):
    """A protocol over one PR box on `pair`: owner p plays owner_options[p][x]
    at setting x, every other party k outputs outputs[k][x]."""
    strategies = []
    for party in range(n):
        moves = {}
        table = {}
        for x in (0, 1):
            if party in pair:
                use, y, h = owner_options[party][x]
            else:
                use, y, h = False, 0, (outputs[party][x],) * 2
            if use:
                moves[(0, x, ())] = ("use", 0, y)
                for alpha in (0, 1):
                    moves[(0, x, (alpha,))] = STOP
                    table[(0, x, (alpha,))] = h[alpha]
            else:
                moves[(0, x, ())] = STOP
                table[(0, x, ())] = h[0]
        strategies.append(TableStrategy(party, moves, table))
    return WiringProtocol(
        n_parties=n,
        randomness=SharedRandomness.singleton(0),
        bank=BoxBank((pr_instance(pair),)),
        strategies=tuple(strategies),
        input_sizes=(2,) * n,
        output_sizes=(2,) * n,
    )


def _branches(opt_p, opt_q):
    """Joint (out_p, out_q) branches of two owners' options on one PR box,
    whose outputs are a uniform bit a and a xor y_p y_q."""
    use_p, y_p, h_p = opt_p
    use_q, y_q, h_q = opt_q
    if use_p and use_q:
        return [(h_p[a], h_q[a ^ (y_p & y_q)]) for a in (0, 1)]
    return [(h_p[a], h_q[a]) for a in (0, 1)]


def _chsh(p, q):
    """The PR box's parity conditions between parties p and q."""
    return [ParityConstraint(((p, x), (q, y)), x & y) for x in (0, 1) for y in (0, 1)]


def _first_by_enumeration(cs, assignment):
    """Reference search: the first protocol of `enumerate_strategies` that
    meets every constraint, checked by the generic executor, or None."""
    n = cs.n_parties
    bank = BoxBank(tuple(pr_instance(pair) for pair in assignment))
    for protocol in enumerate_strategies(n, bank, (2,) * n, (2,) * n):
        if all(satisfies(protocol_source(protocol), c, n) for c in cs.constraints):
            return protocol
    return None


class TestConstraints:
    def test_six_constraints(self):
        cs = cluster_constraints()
        assert len(cs.constraints) == 6
        assert cs.n_parties == 5

    def test_first_constraint_structure(self):
        c = cluster_constraints().constraints[0]
        assert c.terms == ((0, 0), (1, 1), (2, 0))
        assert c.target == 0

    def test_last_constraint_all_parties_setting_one(self):
        c = cluster_constraints().constraints[-1]
        assert c.terms == tuple((p, 1) for p in range(5))
        assert c.target == 1

    def test_cyclic_invariance(self):
        cs = cluster_constraints()
        for shift in range(1, 5):
            assert cs.cyclically_shifted(shift).canonical_key() == cs.canonical_key()

    def test_duplicate_terms_rejected(self):
        with pytest.raises(Exception):
            ParityConstraint(terms=((0, 0), (0, 1)), target=0)

    @pytest.mark.parametrize(
        "terms, target, n",
        [
            (((0, 2), (1, 0)), 1, 2),  # setting 2 would alias party 1's setting 0
            (((0, 0), (5, 1)), 0, 2),  # no party 5 among 2
            (((-1, 0), (1, 0)), 0, 2),
            (((0, 0), (1, 1)), 2, 2),  # a parity target is a bit
        ],
        ids=["setting-2", "party-5", "party-minus-1", "target-2"],
    )
    def test_out_of_range_terms_rejected(self, terms, target, n):
        with pytest.raises(DimensionMismatch):
            ConstraintSet((ParityConstraint(terms, target),), n)

    def test_built_in_sets_construct(self):
        cs = cluster_constraints()
        built = [cs, inverted_cluster_constraints()] + [cs.cyclically_shifted(k) for k in range(1, 5)]
        assert all(len(b.constraints) == 6 and b.n_parties == 5 for b in built)


class TestSatisfies:
    def test_all_zeros_satisfies_target_zero_only(self):
        cs = cluster_constraints()
        proto = next(enumerate_strategies(5, BoxBank(()), (2,) * 5, (2,) * 5))
        assert all(s.outputs == {(0, 0, ()): 0, (0, 1, ()): 0} for s in proto.strategies)
        src = protocol_source(proto)
        results = [satisfies(src, c) for c in cs.constraints]
        assert results[:5] == [True] * 5
        assert results[5] is False

    def test_uniform_independent_bits_satisfy_nothing(self):
        from boxworld.wiring import (
            STOP,
            SharedRandomness,
            TableStrategy,
            WiringProtocol,
        )

        # party 0 outputs a uniform shared bit nobody else sees: use private
        # randomness via a PR box side it shares with party 1 who ignores it
        bank = BoxBank(tuple(pr_instance((p, (p + 1) % 5)) for p in range(5)))
        strategies = []
        for p in range(5):
            moves = {}
            outputs = {}
            for x in (0, 1):
                moves[(0, x, ())] = ("use", p, 0)
                for alpha in (0, 1):
                    moves[(0, x, (alpha,))] = STOP
                    outputs[(0, x, (alpha,))] = alpha
            strategies.append(TableStrategy(p, moves, outputs))
        proto = WiringProtocol(
            n_parties=5,
            randomness=SharedRandomness.singleton(0),
            bank=bank,
            strategies=tuple(strategies),
            input_sizes=(2,) * 5,
            output_sizes=(2,) * 5,
        )
        src = protocol_source(proto)
        assert all(not satisfies(src, c) for c in cluster_constraints().constraints)

    def test_every_local_assignment_violates_some_constraint(self):
        cs = cluster_constraints()
        for code in range(1024):
            outputs = {
                p: ((code >> (2 * p)) & 1, (code >> (2 * p + 1)) & 1) for p in range(5)
            }
            ok = True
            for c in cs.constraints:
                parity = 0
                for p, s in c.terms:
                    parity ^= outputs[p][s]
                if parity != c.target:
                    ok = False
                    break
            assert not ok

    def test_cluster_box_satisfies_all(self):
        src = box_source(cluster_box())
        assert all(satisfies(src, c) for c in cluster_constraints().constraints)

    def test_box_source_matches_per_output_reads(self):
        # box_source groups the table once; the definition reads box.prob
        # for every joint output of every input
        pr_side = (OWNER_OPTIONS[3], OWNER_OPTIONS[7])  # output the box bit, box input x
        owners = {0: pr_side, 1: pr_side}
        outputs = {k: (k & 1, 1) for k in range(2, 5)}
        wired = bw.induced_box(_one_box_protocol((0, 1), owners, outputs))
        for box in (cluster_box(), wired):
            src = box_source(box)
            for x in box.inputs():
                expected = {a: box.prob(x, a) for a in box.outputs() if box.prob(x, a) != 0}
                assert src(x) == OutcomeDistribution(x=x, outcomes=expected)


class TestGhz:
    def test_no_satisfying_assignment(self):
        report = ghz_local_search()
        assert report.satisfying_assignments == 0
        assert report.space == 1024

    def test_max_simultaneous_cross_checked(self):
        report = ghz_local_search()
        # independent enumeration over explicit tuples instead of bit codes
        cs = cluster_constraints()
        best = 0
        for bits in itertools.product((0, 1), repeat=10):
            count = 0
            for c in cs.constraints:
                parity = 0
                for p, s in c.terms:
                    parity ^= bits[2 * p + s]
                if parity == c.target:
                    count += 1
            best = max(best, count)
        assert report.max_simultaneous == best == 5

    def test_inverted_constraints_are_satisfiable(self):
        report = ghz_local_search(inverted_cluster_constraints())
        assert report.satisfying_assignments > 0

    def test_space_is_capped(self):
        # 12 parties span 2^24 assignments, past the cap; 11 span 2^22
        refused = ConstraintSet((ParityConstraint(((0, 0), (11, 1)), 1),), 12)
        start = time.monotonic()
        with pytest.raises(TooLarge):
            ghz_local_search(refused)
        assert time.monotonic() - start < 1
        assert 2 ** 22 <= DEFAULT_STRATEGY_CAP < 2 ** 24
        report = ghz_local_search(ConstraintSet((ParityConstraint(((0, 0), (10, 1)), 1),), 11))
        assert report.space == 2 ** 22
        assert report.satisfying_assignments == 2 ** 21


class TestClusterBox:
    def test_nonsignaling(self):
        assert bw.check_no_signaling(cluster_box()).ok

    def test_nonlocal(self):
        # the box meets all six constraints with probability 1 (value 6),
        # a local assignment at most 5 of them, so no mixture reaches 6
        src = box_source(cluster_box())
        value = sum(satisfies(src, c) for c in cluster_constraints().constraints)
        assert value == 6 > ghz_local_search().max_simultaneous
        # the locality LP decides it too, on the box's symmetry orbits
        verdict = bw.is_local(cluster_box())
        assert not verdict.local
        assert verdict.witness["kind"] == "linear"
        assert verdict.witness["box_value"] == 1 > 0 >= verdict.witness["local_max"]

    def test_normalized(self):
        box = cluster_box()
        for x in box.inputs():
            assert sum(box.prob(x, a) for a in box.outputs()) == 1

    def test_json_is_pinned(self):
        text = json.dumps(cluster_box().to_json_dict(), indent=2)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "5b691a9489da51ddc1b0d0e0e79d6f62de1c3ec4b277dea0dffec6d1afe419c4"


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestStabilizerBox:
    def test_ghz_box_is_nonsignaling_and_nonlocal(self):
        # Mermin: XXX = +1 and XYY = YXY = YYX = -1 on the GHZ state
        box = stabilizer_box(["XXX", "ZZI", "IZZ"], ["XY"] * 3)
        assert bw.check_no_signaling(box).ok
        assert not bw.is_local(box).local
        src = box_source(box)
        for x, target in [((0, 0, 0), 0), ((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)]:
            terms = tuple(enumerate(x))
            assert satisfies(src, ParityConstraint(terms, target), 3)

    def test_box_source_refuses_an_input_the_box_does_not_have(self):
        # read at satisfies' default of five parties, the 3-party GHZ box
        # used to give an empty distribution, so "not satisfied"
        src = box_source(stabilizer_box(["XXX", "ZZI", "IZZ"], ["XY"] * 3))
        constraint = ParityConstraint(((0, 0), (1, 0), (2, 0)), 0)
        with pytest.raises(DimensionMismatch):
            satisfies(src, constraint)
        for x in ((0, 2, 0), (0, -1, 0), (0, 0)):
            with pytest.raises(DimensionMismatch):
                src(x)
        assert satisfies(src, constraint, 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ring_boxes_are_nonsignaling(self, n):
        box = stabilizer_box(graph_state(n, _ring(n)), ["ZX"] * n)
        assert bw.check_no_signaling(box).ok
        for x in box.inputs():
            assert sum(box.prob(x, a) for a in box.outputs()) == 1

    def test_graph_state_generators(self):
        assert graph_state(5, _ring(5)) == ("XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX")
        assert graph_state(3, [(0, 1)]) == ("XZI", "ZXI", "IIX")

    @pytest.mark.parametrize("edges", [[(0, 0)], [(0, 3)], [(0, 1), (1, 0)], [(0,)]])
    def test_graph_state_refuses_bad_edges(self, edges):
        with pytest.raises(DimensionMismatch):
            graph_state(3, edges)

    @pytest.mark.parametrize(
        "generators, settings",
        [
            (["XI", "ZI"], ["ZX"] * 2),  # X and Z on party 0 anticommute
            (["XX", "XX"], ["ZX"] * 2),  # product is I
            (["ZZ", "-ZZ"], ["ZX"] * 2),  # product is -I
            (["XZ", "ZXI"], ["ZX"] * 2),  # wrong length
            (["XZ", "ZQ"], ["ZX"] * 2),  # bad letter
            (["XZ", "ZX"], ["ZX"] * 3),  # settings for three parties
            (["XZ", "ZX"], ["ZX", "ZI"]),  # I is not a measurement
            (["XZ", "ZX"], ["ZX", ""]),  # a party with no setting
        ],
        ids=["anticommute", "dependent-I", "dependent-minus-I", "length", "letter",
             "settings-length", "settings-I", "settings-empty"],
    )
    def test_bad_generator_sets_refused(self, generators, settings):
        with pytest.raises(DimensionMismatch):
            stabilizer_box(generators, settings)

    def test_published_constraints_are_group_elements(self):
        group = set(_stabilizer_group(graph_state(5, _ring(5))))
        assert len(group) == 32
        for c in cluster_constraints().constraints:
            letters = ["I"] * 5
            for p, s in c.terms:
                letters[p] = "ZX"[s]
            assert _parse_pauli("+-"[c.target] + "".join(letters), 5) in group


class TestSearch:
    def test_zero_boxes_matches_ghz(self):
        report = simulation_search(0)
        ghz = ghz_local_search()
        assert not report.success
        assert report.strategies_tested == ghz.space

    def test_zero_boxes_inverted_finds_counterexample(self):
        report = simulation_search(0, constraints=inverted_cluster_constraints())
        assert report.success
        assert report.counterexample is not None

    def test_one_box_single_pair_fails(self):
        report = simulation_search(1, pair_assignments=[((0, 1),)])
        assert not report.success
        assert report.strategies_tested == 100 * 100 * 4 ** 3

    def test_one_box_space_matches_generic_count(self):
        bank = BoxBank((pr_instance((0, 1)),))
        assert count_strategies(5, bank, (2,) * 5, (2,) * 5) == 100 * 100 * 4 ** 3

    def test_one_box_inverted_finds_verified_counterexample(self):
        report = simulation_search(
            1, pair_assignments=[((0, 1),)], constraints=inverted_cluster_constraints()
        )
        assert report.success
        assert report.counterexample["protocol"]["parties"] == 5

    def test_inverted_search_counts_only_the_assignments_searched(self):
        # the first pair already holds a counterexample, so the search stops there
        report = simulation_search(1, constraints=inverted_cluster_constraints())
        assert report.success
        assert report.counterexample["assignment"] == (0, 1)
        assert report.assignments_tested == 1
        assert report.strategies_tested == 100 * 100 * 4 ** 3

    def test_factorized_search_agrees_with_generic_on_random_profiles(self):
        # draw random one-box strategy profiles; the factorized evaluation's
        # verdict must match the generic executor's constraint check
        rng = random.Random(21)
        cs = cluster_constraints()
        pair = (1, 3)
        for _ in range(150):
            s_p = (rng.choice(OWNER_OPTIONS), rng.choice(OWNER_OPTIONS))
            s_q = (rng.choice(OWNER_OPTIONS), rng.choice(OWNER_OPTIONS))
            outputs = {
                k: (rng.randint(0, 1), rng.randint(0, 1))
                for k in range(5)
                if k not in pair
            }
            proto = _one_box_protocol(pair, {pair[0]: s_p, pair[1]: s_q}, outputs)
            generic = all(satisfies(protocol_source(proto), c) for c in cs.constraints)
            # factorized evaluation of the same profile
            factorized = True
            for c in cs.constraints:
                pinned = dict(c.terms)
                free_owners = [p for p in pair if p not in pinned]
                for completion in itertools.product((0, 1), repeat=len(free_owners)):
                    settings = dict(pinned)
                    settings.update(dict(zip(free_owners, completion)))
                    branch_list = _branches(s_p[settings[pair[0]]], s_q[settings[pair[1]]])
                    needed = set()
                    for out_p, out_q in branch_list:
                        parity = 0
                        if pair[0] in pinned:
                            parity ^= out_p
                        if pair[1] in pinned:
                            parity ^= out_q
                        for k, s in c.terms:
                            if k not in pair:
                                parity ^= outputs[k][s]
                        needed.add(parity)
                    if needed != {c.target}:
                        factorized = False
                        break
                if not factorized:
                    break
            assert factorized == generic

    def test_bystander_marginals_independent_of_owner_strategies(self):
        # parties sharing no box keep identical joint marginals no matter
        # what the box owners do: the no-signaling echo of the search model
        rng = random.Random(5)
        pair = (0, 1)
        bystanders = (2, 3, 4)
        outputs = {k: (rng.randint(0, 1), rng.randint(0, 1)) for k in bystanders}
        x = (1, 0, 1, 1, 0)
        reference = None
        for _ in range(25):
            s_p = (rng.choice(OWNER_OPTIONS), rng.choice(OWNER_OPTIONS))
            s_q = (rng.choice(OWNER_OPTIONS), rng.choice(OWNER_OPTIONS))
            proto = _one_box_protocol(pair, {pair[0]: s_p, pair[1]: s_q}, outputs)
            dist = bw.execute_exact(proto, x)
            marg = {}
            for a, p in dist.outcomes.items():
                key = tuple(a[k] for k in bystanders)
                marg[key] = marg.get(key, Fraction(0)) + p
            if reference is None:
                reference = marg
            else:
                assert marg == reference

    @pytest.mark.slow
    def test_one_box_all_pairs_fail(self):
        report = simulation_search(1)
        assert not report.success
        assert report.assignments_tested == 10
        assert report.strategies_tested == 10 * 640000

    def test_two_boxes_refused_at_small_cap(self):
        with pytest.raises(TooLarge):
            simulation_search(2, pair_assignments=[((0, 1), (2, 3))], cap=10 ** 4)

    def test_two_boxes_refused_with_the_space_of_all_55_assignments(self):
        pairs = list(itertools.combinations(range(5), 2))
        assignments = list(itertools.combinations_with_replacement(pairs, 2))
        assert len(assignments) == 55
        total = sum(
            count_strategies(5, BoxBank(tuple(pr_instance(p) for p in a)), (2,) * 5, (2,) * 5)
            for a in assignments
        )
        with pytest.raises(TooLarge) as err:
            simulation_search(2)
        assert err.value.count == total

    @pytest.mark.parametrize("boxes, cap", [(0, 1023), (1, 6_399_999)])
    def test_cap_applies_at_every_box_count(self, boxes, cap):
        with pytest.raises(TooLarge) as err:
            simulation_search(boxes, cap=cap)
        assert err.value.count == cap + 1

    def test_negative_box_count_rejected(self):
        with pytest.raises(BoxworldError):
            simulation_search(-1)

    @pytest.mark.parametrize(
        "boxes, assignment",
        [(1, (0, 7)), (1, ((0, 1), (2, 3))), (2, ((0, 1),)), (2, ((0, 1), (2, 3, 4))), (1, (0, 1))],
    )
    def test_malformed_assignment_rejected(self, boxes, assignment):
        with pytest.raises(BoxworldError):
            simulation_search(boxes, pair_assignments=[assignment])

    @pytest.mark.parametrize(
        "boxes, assignment",
        [
            (2, (0, 1)),  # parties where pairs belong
            (1, ((0, 1.0),)),  # a float party
            (1, ((0, 0),)),  # one party on both sides
            (2, ((0, 1), (3, 3))),
            (1, 5),  # no sequence at all
        ],
    )
    def test_assignment_must_name_pairs_of_distinct_int_parties(self, boxes, assignment):
        with pytest.raises(bw.DimensionMismatch):
            simulation_search(boxes, pair_assignments=[assignment])

    def test_options_follow_the_tree_generator(self):
        # the search tries one-box trees in this order, so the counterexample
        # it reports is the first in OWNER_OPTIONS order
        bank = BoxBank((pr_instance((0, 1)),))
        for party in (0, 1):
            for s in (0, 1):
                trees = _party_trees(bank, party, frozenset({0}), 2, 0, s, ())
                assert [_one_box_option(t, s) for t in trees] == OWNER_OPTIONS

    @pytest.mark.parametrize(
        "cs, assignment",
        [
            (ConstraintSet(tuple(_chsh(0, 1)), 2), ()),
            (ConstraintSet(tuple(_chsh(0, 1)), 2), ((0, 1),)),
            (inverted_cluster_constraints(), ()),
            pytest.param(
                ConstraintSet(tuple(_chsh(0, 1)) + (ParityConstraint(((0, 1), (1, 1)), 0),), 2),
                ((0, 1),),
                marks=pytest.mark.slow,  # the reference runs all 10^4 profiles
            ),
        ],
        ids=["chsh-0", "chsh-1", "inverted-0", "contradiction-1"],
    )
    def test_search_agrees_with_enumeration_reference(self, cs, assignment):
        # every party of these banks owns a box or none does, so the search
        # and the generator try profiles in the same order
        reference = _first_by_enumeration(cs, assignment)
        report = simulation_search(len(assignment), pair_assignments=[assignment], constraints=cs)
        assert report.success == (reference is not None)
        if reference is not None:
            found = report.counterexample["protocol"]["strategies"]
            assert found == [s.to_json_dict() for s in reference.strategies]

    def test_two_box_counterexample_is_verified(self):
        # CHSH on the pair (2, 3) and a parity on (0, 1) that constant
        # outputs meet: the box on (2, 3) must be used, the one on (0, 1) not
        cs = ConstraintSet(tuple(_chsh(2, 3)) + (ParityConstraint(((0, 0), (1, 0)), 0),), 4)
        report = simulation_search(2, pair_assignments=[((0, 1), (2, 3))], constraints=cs, cap=10 ** 9)
        assert report.success
        cex = report.counterexample
        assert cex["assignment"] == ((0, 1), (2, 3))
        assert "owner_strategies" not in cex
        strategies = cex["protocol"]["strategies"]
        assert strategies[2]["moves"]["0,0,"] == ["use", 1, 0]
        assert strategies[3]["moves"]["0,1,"] == ["use", 1, 1]
