import itertools
import random
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld.cluster import (
    ConstraintSet,
    ParityConstraint,
    _one_box_option,
    box_source,
    cluster_box,
    cluster_constraints,
    ghz_local_search,
    inverted_cluster_constraints,
    protocol_source,
    satisfies,
    simulation_search,
)
from boxworld.errors import BoxworldError, TooLarge
from boxworld.wiring import (
    STOP,
    BoxBank,
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


class TestClusterBox:
    def test_nonsignaling(self):
        assert bw.check_no_signaling(cluster_box()).ok

    def test_nonlocal(self):
        cs = cluster_constraints()
        events = []
        for c in cs.constraints:
            x = [0] * 5
            for p, s in c.terms:
                x[p] = s
            events.append((tuple(x), c.parties(), c.target))
        verdict = bw.is_local(cluster_box(), event_witnesses=[events])
        assert not verdict.local

    def test_normalized(self):
        box = cluster_box()
        for x in box.inputs():
            assert sum(box.prob(x, a) for a in box.outputs()) == 1


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
        report = simulation_search(1, pair_assignments=[(0, 1)])
        assert not report.success
        assert report.strategies_tested == 100 * 100 * 4 ** 3

    def test_one_box_space_matches_generic_count(self):
        bank = BoxBank((pr_instance((0, 1)),))
        assert count_strategies(5, bank, (2,) * 5, (2,) * 5) == 100 * 100 * 4 ** 3

    def test_one_box_inverted_finds_verified_counterexample(self):
        report = simulation_search(
            1, pair_assignments=[(0, 1)], constraints=inverted_cluster_constraints()
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
        "boxes, assignment", [(1, (0, 7)), (1, ((0, 1), (2, 3))), (2, ((0, 1),)), (2, ((0, 1), (2, 3, 4)))]
    )
    def test_malformed_assignment_rejected(self, boxes, assignment):
        with pytest.raises(BoxworldError):
            simulation_search(boxes, pair_assignments=[assignment])

    def test_bare_and_nested_pairs_agree(self):
        inverted = inverted_cluster_constraints()
        bare = simulation_search(1, pair_assignments=[(2, 4)], constraints=inverted)
        nested = simulation_search(1, pair_assignments=[((2, 4),)], constraints=inverted)
        assert bare.counterexample == nested.counterexample
        assert bare.counterexample["assignment"] == (2, 4)

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


def test_closed_family_contains_published_constraints():
    from boxworld.cluster import _closed_constraint_family

    family = {(tuple(sorted(c.terms)), c.target) for c in _closed_constraint_family()}
    for c in cluster_constraints().constraints:
        assert (tuple(sorted(c.terms)), c.target) in family
