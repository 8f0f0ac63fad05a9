"""Five-party ring-cluster parity constraints, the GHZ-type paradox, and
the exhaustive no-go search over wiring protocols.

The correlations are six perfect parity constraints on five parties with
binary settings.  Writing a_i for party i's output at setting 0 and a'_i
at setting 1:

    a_i + a'_{i+1} + a_{i+2} = 0 (mod 2)   for i = 0..4 (indices mod 5),
    a'_0 + a'_1 + a'_2 + a'_3 + a'_4 = 1 (mod 2).

No fixed assignment of the ten bits can win: XOR all six equations and
each variable cancels against its second appearance, leaving 0 = 1.  The
module verifies that exhaustively (ghz_local_search) and then exhausts
the far larger space of deterministic adaptive wiring protocols over a
shared PR box (simulation_search), which fails too.  Restricting the
search to deterministic shared randomness loses nothing: a randomized
protocol satisfies a probability-1 event only if every point in its
support does.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .boxes import Box, make_box
from .errors import ShapeMismatch, TooLarge, VerificationFailed
from .wiring import (
    STOP,
    BoxBank,
    OutcomeDistribution,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    count_strategies,
    enumerate_strategies,
    execute_exact,
    pr_instance,
)

N_PARTIES = 5


@dataclass(frozen=True)
class ParityConstraint:
    """XOR of the named parties' outputs, each at a pinned setting, must
    equal `target` with probability 1."""

    terms: tuple[tuple[int, int], ...]  # (party, setting)
    target: int

    def __post_init__(self):
        parties = [p for p, _ in self.terms]
        if len(set(parties)) != len(parties):
            raise ShapeMismatch(f"duplicate party in constraint terms {self.terms}")

    def parties(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.terms)


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[ParityConstraint, ...]
    n_parties: int

    def cyclically_shifted(self, shift: int) -> "ConstraintSet":
        moved = []
        for c in self.constraints:
            terms = tuple(sorted(((p + shift) % self.n_parties, s) for p, s in c.terms))
            moved.append(ParityConstraint(terms, c.target))
        return ConstraintSet(tuple(moved), self.n_parties)

    def canonical_key(self):
        return frozenset(
            (tuple(sorted(c.terms)), c.target) for c in self.constraints
        )


def cluster_constraints() -> ConstraintSet:
    """The six ring-cluster constraints (parties 0..4, settings 0/1)."""
    constraints = []
    for i in range(5):
        constraints.append(
            ParityConstraint(
                terms=((i, 0), ((i + 1) % 5, 1), ((i + 2) % 5, 0)),
                target=0,
            )
        )
    constraints.append(
        ParityConstraint(terms=tuple((i, 1) for i in range(5)), target=1)
    )
    return ConstraintSet(tuple(constraints), N_PARTIES)


def inverted_cluster_constraints() -> ConstraintSet:
    """Sanity-check variant: the five-party constraint's target flipped to 0,
    which IS locally satisfiable (e.g. everyone outputs 0)."""
    base = cluster_constraints()
    flipped = base.constraints[:-1] + (
        ParityConstraint(base.constraints[-1].terms, 0),
    )
    return ConstraintSet(flipped, base.n_parties)


def box_source(box: Box) -> Callable[[tuple[int, ...]], OutcomeDistribution]:
    def source(x):
        x = tuple(x)
        outcomes = {}
        for a in box.outputs():
            p = box.prob(x, a)
            if p != 0:
                outcomes[a] = p
        return OutcomeDistribution(x=x, outcomes=outcomes)

    return source


def protocol_source(protocol: WiringProtocol) -> Callable[[tuple[int, ...]], OutcomeDistribution]:
    return lambda x: execute_exact(protocol, x)


def satisfies(
    source: Callable[[tuple[int, ...]], OutcomeDistribution],
    constraint: ParityConstraint,
    n_parties: int = N_PARTIES,
    input_sizes: Optional[Sequence[int]] = None,
) -> bool:
    """True iff the parity event holds with probability exactly 1 under
    every completion of the unconstrained parties' settings."""
    if input_sizes is None:
        input_sizes = (2,) * n_parties
    pinned = dict(constraint.terms)
    free = [p for p in range(n_parties) if p not in pinned]
    for completion in itertools.product(*(range(input_sizes[p]) for p in free)):
        x = [0] * n_parties
        for p, s in pinned.items():
            x[p] = s
        for p, v in zip(free, completion):
            x[p] = v
        dist = source(tuple(x))
        good = Fraction(0)
        total = Fraction(0)
        for a, prob in dist.outcomes.items():
            total += prob
            parity = 0
            for p, _ in constraint.terms:
                parity ^= a[p]
            if parity == constraint.target:
                good += prob
        if good != total or total != 1:
            return False
    return True


@dataclass(frozen=True)
class GhzReport:
    satisfying_assignments: int
    max_simultaneous: int
    space: int


def ghz_local_search(constraints: Optional[ConstraintSet] = None) -> GhzReport:
    """Exhaustively test all local deterministic assignments (a_i, a'_i).

    For the cluster constraints the count of assignments satisfying all six
    is zero; the report also carries the maximum simultaneously satisfiable.
    """
    cs = constraints or cluster_constraints()
    n = cs.n_parties
    space = 2 ** (2 * n)
    best = 0
    satisfying = 0
    for code in range(space):
        # party p outputs bit (code >> 2p) at setting 0 and (code >> 2p+1) at setting 1
        count = 0
        for c in cs.constraints:
            parity = 0
            for p, s in c.terms:
                parity ^= (code >> (2 * p + s)) & 1
            if parity == c.target:
                count += 1
        if count == len(cs.constraints):
            satisfying += 1
        if count > best:
            best = count
    return GhzReport(satisfying_assignments=satisfying, max_simultaneous=best, space=space)


def _closed_constraint_family() -> tuple[ParityConstraint, ...]:
    """Close the five ring constraints under signed parity products.

    Each base constraint is a parity observable assigning every involved
    party one of two anticommuting binary observables (setting 0 or 1).
    Products of base constraints where every shared party appears at the
    same setting (so its factors cancel) yield further perfect parity
    constraints; the sign flip from reordering anticommuting factors is
    tracked exactly and becomes the target bit.  Products leaving some
    party with both settings impose nothing on this measurement scenario
    and are skipped.  The six published constraints reappear inside the
    closed family (the five generators, and the all-parties product with a
    net sign flip), which is asserted.
    """
    n = N_PARTIES
    # generator i: setting-1 observable at party i+1, setting-0 at i and i+2
    gens = []
    for i in range(n):
        string = {p: (0, 0) for p in range(n)}
        string[(i + 1) % n] = (1, 0)
        string[i] = (0, 1)
        string[(i + 2) % n] = (0, 1)
        gens.append(string)

    family = {}
    for mask in range(1, 2 ** n):
        acc = {p: (0, 0) for p in range(n)}
        sign = 0
        for i in range(n):
            if not (mask >> i) & 1:
                continue
            for p in range(n):
                xa, za = acc[p]
                xn, zn = gens[i][p]
                sign ^= za & xn  # reordering anticommuting factors flips sign
                acc[p] = (xa ^ xn, za ^ zn)
        if any(x and z for x, z in acc.values()):
            continue  # mixed-setting party: not a constraint at these settings
        terms = []
        for p in range(n):
            x, z = acc[p]
            if x:
                terms.append((p, 1))
            elif z:
                terms.append((p, 0))
        if not terms:
            continue
        key = tuple(sorted(terms))
        target = sign
        if family.get(key, target) != target:
            raise VerificationFailed("inconsistent constraint product")
        family[key] = target
    constraints = tuple(
        ParityConstraint(terms, target) for terms, target in sorted(family.items())
    )
    base_keys = {
        (tuple(sorted(c.terms)), c.target) for c in cluster_constraints().constraints
    }
    derived_keys = {(tuple(sorted(c.terms)), c.target) for c in constraints}
    if not base_keys <= derived_keys:
        raise VerificationFailed("closure lost a base constraint")
    return constraints


def cluster_box() -> Box:
    """Five-party box: uniform over outcomes satisfying every constraint of
    the closed family whose settings match the measurement choices.

    Closing under products is what makes the completion nonsignaling: a
    product constraint not involving some party persists when that party's
    setting changes, so marginals cannot depend on remote settings.  The
    test suite verifies no-signaling exactly, checks all six published
    constraints hold with probability 1, and certifies nonlocality.
    """
    constraints = _closed_constraint_family()
    n = N_PARTIES
    table = {}
    for x in itertools.product((0, 1), repeat=n):
        active = [c for c in constraints if all(x[p] == s for p, s in c.terms)]
        support = []
        for a in itertools.product((0, 1), repeat=n):
            ok = True
            for c in active:
                parity = 0
                for p, _ in c.terms:
                    parity ^= a[p]
                if parity != c.target:
                    ok = False
                    break
            if ok:
                support.append(a)
        w = Fraction(1, len(support))
        for a in support:
            table[(x, a)] = w
    return make_box(n, (2,) * n, (2,) * n, table, sparse=True)


@dataclass(frozen=True)
class SearchReport:
    boxes: int
    assignments_tested: int
    strategies_tested: int
    success: bool
    counterexample: Optional[dict] = None
    runtime_s: float = 0.0
    note: str = ""


# Owner behaviour per setting: (uses_box, input, (output at alpha=0, output at alpha=1));
# non-use encodes its constant output in both slots.
_OWNER_OPTIONS = tuple(
    [(False, 0, (o, o)) for o in (0, 1)]
    + [(True, y, (h0, h1)) for y in (0, 1) for h0 in (0, 1) for h1 in (0, 1)]
)


def _branches(opt_p, opt_q):
    """Joint (out_p, out_q) branch list for one shared PR box."""
    use_p, y_p, h_p = opt_p
    use_q, y_q, h_q = opt_q
    if use_p and use_q:
        prod = y_p & y_q
        return [(h_p[b], h_q[b ^ prod]) for b in (0, 1)]
    if use_p:
        return [(h_p[b], h_q[0]) for b in (0, 1)]
    if use_q:
        return [(h_p[0], h_q[b]) for b in (0, 1)]
    return [(h_p[0], h_q[0])]


def simulation_search(
    n_pr_boxes: int,
    pair_assignments: Optional[Sequence] = None,
    constraints: Optional[ConstraintSet] = None,
    cap: int = 10 ** 7,
) -> SearchReport:
    """Exhaustive search for a deterministic wiring protocol reproducing
    every parity constraint exactly.

    Deterministic shared randomness is exhaustive for probability-1 events
    (a mixture succeeds iff every support point does), so this refutes all
    randomized protocols too.  For 0 boxes the search space is the local
    deterministic assignments; for 1 PR box it covers, for every pair
    assignment, each owner's full adaptive space (use or not per setting,
    any input, any output map) against all non-owner output tables.  Any
    counterexample found is re-verified through the generic executor before
    being reported.
    """
    cs = constraints or cluster_constraints()
    n = cs.n_parties
    start = time.monotonic()

    if n_pr_boxes == 0:
        report = ghz_local_search(cs)
        counterexample = None
        success = report.satisfying_assignments > 0
        if success:
            for code in range(report.space):
                if _assignment_satisfies_all(code, cs):
                    counterexample = _zero_box_counterexample(code, cs)
                    break
        return SearchReport(
            boxes=0,
            assignments_tested=1,
            strategies_tested=report.space,
            success=success,
            counterexample=counterexample,
            runtime_s=time.monotonic() - start,
            note="no shared boxes: search space is the local deterministic assignments",
        )

    if n_pr_boxes == 1:
        if pair_assignments is None:
            pair_assignments = list(itertools.combinations(range(n), 2))
        strategies_tested = 0
        for pair in pair_assignments:
            found = _search_one_box(pair, cs)
            strategies_tested += 100 * 100 * 4 ** (n - 2)
            if found is not None:
                return SearchReport(
                    boxes=1,
                    assignments_tested=len(pair_assignments),
                    strategies_tested=strategies_tested,
                    success=True,
                    counterexample=found,
                    runtime_s=time.monotonic() - start,
                )
        return SearchReport(
            boxes=1,
            assignments_tested=len(pair_assignments),
            strategies_tested=strategies_tested,
            success=False,
            runtime_s=time.monotonic() - start,
        )

    # general fallback: enumerate full adaptive strategy space (cap-guarded)
    if pair_assignments is None:
        pair_assignments = list(
            itertools.combinations_with_replacement(itertools.combinations(range(n), 2), n_pr_boxes)
        )
    strategies_tested = 0
    for assignment in pair_assignments:
        bank = BoxBank(tuple(pr_instance(pair) for pair in assignment))
        total = count_strategies(n, bank, (2,) * n, (2,) * n)
        if strategies_tested + total > cap:
            raise TooLarge(strategies_tested + total, cap)
        for protocol in enumerate_strategies(n, bank, (2,) * n, (2,) * n, cap=cap):
            strategies_tested += 1
            if all(satisfies(protocol_source(protocol), c, n) for c in cs.constraints):
                return SearchReport(
                    boxes=n_pr_boxes,
                    assignments_tested=len(pair_assignments),
                    strategies_tested=strategies_tested,
                    success=True,
                    counterexample={"assignment": assignment, "protocol": _protocol_json(protocol)},
                    runtime_s=time.monotonic() - start,
                )
    return SearchReport(
        boxes=n_pr_boxes,
        assignments_tested=len(pair_assignments),
        strategies_tested=strategies_tested,
        success=False,
        runtime_s=time.monotonic() - start,
    )


def _assignment_satisfies_all(code: int, cs: ConstraintSet) -> bool:
    for c in cs.constraints:
        parity = 0
        for p, s in c.terms:
            parity ^= (code >> (2 * p + s)) & 1
        if parity != c.target:
            return False
    return True


def _zero_box_counterexample(code: int, cs: ConstraintSet) -> dict:
    outputs = {
        p: ((code >> (2 * p)) & 1, (code >> (2 * p + 1)) & 1) for p in range(cs.n_parties)
    }
    protocol = _build_protocol(None, None, None, outputs, cs.n_parties)
    if not all(satisfies(protocol_source(protocol), c, cs.n_parties) for c in cs.constraints):
        raise VerificationFailed("zero-box counterexample violates a constraint")
    return {"assignment": None, "outputs": outputs, "protocol": _protocol_json(protocol)}


def _search_one_box(pair: tuple[int, int], cs: ConstraintSet) -> Optional[dict]:
    """Owner-factorized exhaustive search for one shared PR box.

    For fixed owner strategies, each constraint (under each completion of
    the owners' settings when unconstrained) either fails on some branch
    outright or pins an XOR of non-owner output bits; the remaining loop
    over non-owner output tables checks those pins.  Unconstrained
    non-owners neither use boxes nor appear in the parity, so their
    settings cannot influence the event - constrained parties' marginals
    are setting-independent by no-signaling, which the test suite verifies
    against the generic executor on samples.
    """
    n = cs.n_parties
    p_owner, q_owner = pair
    non_owners = [k for k in range(n) if k not in pair]
    var_index = {(k, s): i for i, (k, s) in enumerate((k, s) for k in non_owners for s in (0, 1))}
    n_vars = len(var_index)

    for opt_p0, opt_p1 in itertools.product(_OWNER_OPTIONS, repeat=2):
        s_p = (opt_p0, opt_p1)
        for opt_q0, opt_q1 in itertools.product(_OWNER_OPTIONS, repeat=2):
            s_q = (opt_q0, opt_q1)
            requirements = []
            dead = False
            for c in cs.constraints:
                pinned = dict(c.terms)
                owner_in = [p for p in pair if p in pinned]
                free_owners = [p for p in pair if p not in pinned]
                for completion in itertools.product((0, 1), repeat=len(free_owners)):
                    settings = dict(pinned)
                    settings.update(dict(zip(free_owners, completion)))
                    branches = _branches(s_p[settings[p_owner]], s_q[settings[q_owner]])
                    owner_parities = set()
                    for out_p, out_q in branches:
                        parity = 0
                        if p_owner in pinned:
                            parity ^= out_p
                        if q_owner in pinned:
                            parity ^= out_q
                        owner_parities.add(parity)
                    if len(owner_parities) > 1:
                        dead = True
                        break
                    owner_parity = owner_parities.pop()
                    mask = 0
                    for k, s in c.terms:
                        if k in non_owners:
                            mask |= 1 << var_index[(k, s)]
                    requirements.append((mask, c.target ^ owner_parity))
                if dead:
                    break
            if dead:
                continue
            for v in range(2 ** n_vars):
                ok = True
                for mask, bit in requirements:
                    if (v & mask).bit_count() & 1 != bit:
                        ok = False
                        break
                if ok:
                    outputs = {
                        k: (
                            (v >> var_index[(k, 0)]) & 1,
                            (v >> var_index[(k, 1)]) & 1,
                        )
                        for k in non_owners
                    }
                    protocol = _build_protocol(pair, s_p, s_q, outputs, n)
                    if all(satisfies(protocol_source(protocol), c, n) for c in cs.constraints):
                        return {
                            "assignment": pair,
                            "owner_strategies": {p_owner: s_p, q_owner: s_q},
                            "outputs": outputs,
                            "protocol": _protocol_json(protocol),
                        }
    return None


def _build_protocol(pair, s_p, s_q, non_owner_outputs, n: int) -> WiringProtocol:
    """Materialize a searched strategy profile as a generic wiring protocol."""
    instances = ()
    strategies = []
    if pair is not None:
        instances = (pr_instance(pair),)
    bank = BoxBank(instances)
    owner_strats = {}
    if pair is not None:
        owner_strats = {pair[0]: s_p, pair[1]: s_q}
    for party in range(n):
        moves = {}
        outputs = {}
        if party in owner_strats:
            for x in (0, 1):
                use, y, h = owner_strats[party][x]
                if use:
                    moves[(0, x, ())] = ("use", 0, y)
                    for alpha in (0, 1):
                        moves[(0, x, (alpha,))] = STOP
                        outputs[(0, x, (alpha,))] = h[alpha]
                else:
                    moves[(0, x, ())] = STOP
                    outputs[(0, x, ())] = h[0]
        else:
            for x in (0, 1):
                moves[(0, x, ())] = STOP
                outputs[(0, x, ())] = non_owner_outputs[party][x]
        strategies.append(TableStrategy(party, moves, outputs))
    return WiringProtocol(
        n_parties=n,
        randomness=SharedRandomness.singleton(0),
        bank=bank,
        strategies=tuple(strategies),
        input_sizes=(2,) * n,
        output_sizes=(2,) * n,
    )


def _protocol_json(protocol: WiringProtocol) -> dict:
    return {
        "parties": protocol.n_parties,
        "bank": [
            {"template": "PR", "owners": list(inst.owners)}
            for inst in protocol.bank.instances
        ],
        "strategies": [
            s.to_json_dict() if isinstance(s, TableStrategy) else repr(s)
            for s in protocol.strategies
        ],
    }
