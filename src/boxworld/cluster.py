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
the deterministic adaptive wiring protocols over k shared PR boxes
(simulation_search), one search for every k: each assignment of the boxes
to party pairs is one bank, whose box owners range over all their decision
trees and whose other parties over all their output tables.  With k = 0
the bank is empty and the space is the 1024 local assignments; with k = 1
it is 640,000 profiles for each of the 10 pairs, and none succeeds.  With
k = 2 the 55 assignments hold about 1.75e13 profiles, past the default cap.
Restricting the search to deterministic shared randomness loses nothing:
a randomized protocol satisfies a probability-1 event only if every point
in its support does.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .boxes import Box, make_box
from .errors import DimensionMismatch, ShapeMismatch, TooLarge, VerificationFailed
from .wiring import (
    STOP,
    BoxBank,
    OutcomeDistribution,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    _party_trees,
    _walk,
    count_strategies,
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


def simulation_search(
    n_pr_boxes: int,
    pair_assignments: Optional[Sequence] = None,
    constraints: Optional[ConstraintSet] = None,
    cap: int = 10 ** 7,
) -> SearchReport:
    """Exhaustive search for a deterministic wiring protocol with
    `n_pr_boxes` shared PR boxes that reproduces every parity constraint
    exactly.

    Deterministic shared randomness is exhaustive for probability-1 events
    (a mixture succeeds iff every support point does), so this refutes all
    randomized protocols too.  The assignments of boxes to party pairs are
    `pair_assignments` (default: every multiset of `n_pr_boxes` pairs; bare
    pairs are accepted for one box); zero boxes give one empty bank, whose
    space is the local deterministic assignments.  Each assignment's bank
    is searched by `_search_bank` in turn; `assignments_tested` counts
    the assignments searched, and `strategies_tested` adds up their
    banks' `count_strategies`.  TooLarge is raised before
    any search when the total over all assignments exceeds `cap`.  The
    first counterexample found is re-verified through the generic executor
    before it is reported.
    """
    if n_pr_boxes < 0:
        raise DimensionMismatch(f"the number of PR boxes must be at least 0, got {n_pr_boxes}")
    cs = constraints or cluster_constraints()
    n = cs.n_parties
    start = time.monotonic()
    if pair_assignments is None:
        pair_assignments = itertools.combinations_with_replacement(
            itertools.combinations(range(n), 2), n_pr_boxes
        )
    assignments = [
        (tuple(a),) if n_pr_boxes == 1 and isinstance(a[0], int) else tuple(a)
        for a in pair_assignments
    ]
    for a in assignments:
        if len(a) != n_pr_boxes or not all(len(pair) == 2 and set(pair) <= set(range(n)) for pair in a):
            raise DimensionMismatch(f"assignment {a} does not name {n_pr_boxes} pairs of parties 0..{n - 1}")
    banks = [BoxBank(tuple(pr_instance(pair) for pair in a)) for a in assignments]
    sizes = [count_strategies(n, bank, (2,) * n, (2,) * n) for bank in banks]
    if sum(sizes) > cap:
        raise TooLarge(sum(sizes), cap)
    strategies_tested = 0
    for searched, (assignment, bank, size) in enumerate(zip(assignments, banks, sizes), 1):
        found = _search_bank(bank, cs)
        strategies_tested += size
        if found is not None:
            # one box is reported as its pair, no box as null
            shown = assignment[0] if len(assignment) == 1 else (assignment or None)
            return SearchReport(
                boxes=n_pr_boxes,
                assignments_tested=searched,
                strategies_tested=strategies_tested,
                success=True,
                counterexample={"assignment": shown, **found},
                runtime_s=time.monotonic() - start,
            )
    return SearchReport(
        boxes=n_pr_boxes,
        assignments_tested=len(assignments),
        strategies_tested=strategies_tested,
        success=False,
        runtime_s=time.monotonic() - start,
    )


def _search_bank(bank: BoxBank, cs: ConstraintSet) -> Optional[dict]:
    """Owner-factorized exhaustive search over every strategy profile of
    one bank; the first counterexample found, or None.

    The owners are the parties holding a side of some box.  An owner's
    strategy is one decision tree per setting (`_party_trees`), tried in
    the generator's order.  For fixed owner trees, each constraint under
    each completion of the owners' free settings either fails on some
    branch outright or pins an XOR of non-owner output bits; the loop over
    non-owner output tables then checks those pins.  Only the support of
    the owners' joint outputs matters for a probability-1 event, and the
    generic walk yields it as its leaves of nonzero weight.  Non-owners use
    no box, so each one's output is a fixed bit per setting, and their
    settings cannot change the owners' outputs (no-signaling).  With no
    boxes every party is a non-owner.
    """
    n = cs.n_parties
    owners = sorted({p for inst in bank.instances for p in inst.owners})
    others = [k for k in range(n) if k not in owners]
    var_index = {(k, s): i for i, (k, s) in enumerate((k, s) for k in others for s in (0, 1))}
    # cell 2j + s: owner j's candidate trees at setting s
    cells = [
        list(_party_trees(bank, p, frozenset(bank.owned_by(p)), 2, 0, s, ()))
        for p in owners
        for s in (0, 1)
    ]
    # output tables of the non-owners as bit positions: table v gives
    # non-owner k at setting s the output bit var_index[k, s] of v
    n_tables = 1 << len(var_index)
    every_table = (1 << n_tables) - 1
    checks = []  # (cell of each owner, owners in the parity, tables by needed parity, target)
    for c in cs.constraints:
        pinned = dict(c.terms)
        free = [p for p in owners if p not in pinned]
        mask = 0
        for k, s in c.terms:
            if k not in owners:
                mask |= 1 << var_index[(k, s)]
        even = sum(1 << v for v in range(n_tables) if not (v & mask).bit_count() & 1)
        by_parity = (even, every_table ^ even)
        in_parity = [j for j, p in enumerate(owners) if p in pinned]
        for completion in itertools.product((0, 1), repeat=len(free)):
            settings = {**pinned, **dict(zip(free, completion))}
            used = tuple(2 * j + settings[p] for j, p in enumerate(owners))
            checks.append((used, in_parity, by_parity, c.target))

    supports: dict = {}  # (cells, tree indices) -> owners' joint outputs of nonzero weight
    parities: dict = {}  # (check index, tree indices) -> owners' parity, None if it varies
    for profile in itertools.product(*(range(len(trees)) for trees in cells)):
        tables = every_table  # the non-owner tables that pass every check so far
        for i, (used, in_parity, by_parity, target) in enumerate(checks):
            in_use = tuple(profile[cell] for cell in used)
            key = (i, in_use)
            if key not in parities:
                if (used, in_use) not in supports:
                    trees = [cells[cell][t] for cell, t in zip(used, in_use)]
                    supports[used, in_use] = _owner_support(bank, n, owners, used, trees)
                values = {
                    sum(outputs[j] for j in in_parity) & 1 for outputs in supports[used, in_use]
                }
                parities[key] = values.pop() if len(values) == 1 else None
            if parities[key] is None:
                break
            tables &= by_parity[target ^ parities[key]]
            if not tables:
                break
        else:
            v = (tables & -tables).bit_length() - 1  # the first passing table
            outputs = {k: (v >> var_index[k, 0] & 1, v >> var_index[k, 1] & 1) for k in others}
            trees = [cells[cell][t] for cell, t in enumerate(profile)]
            return _counterexample(bank, cs, owners, trees, outputs)
    return None


def _owner_support(bank: BoxBank, n: int, owners, used, trees) -> set:
    """Owners' joint outputs of nonzero weight when owner j plays trees[j]
    at setting used[j] % 2; the other parties stop at once."""
    strategies = [TableStrategy(k, {(0, 0, ()): STOP}, {(0, 0, ()): 0}) for k in range(n)]
    x = [0] * n
    for p, cell, (moves, outputs) in zip(owners, used, trees):
        strategies[p] = TableStrategy(p, moves, outputs)
        x[p] = cell % 2
    protocol = WiringProtocol(
        n, SharedRandomness.singleton(0), bank, tuple(strategies), (2,) * n, (2,) * n
    )
    support = set()

    def on_leaf(outputs, w):
        if w != 0:
            support.add(tuple(outputs[p] for p in owners))

    _walk(protocol, 0, tuple(x), on_leaf)
    return support


def _counterexample(bank: BoxBank, cs: ConstraintSet, owners, trees, outputs) -> dict:
    """Materialize a found profile as a table protocol, re-verify it with
    the generic executor, and describe it.  trees[2j + s] is owner j's tree
    at setting s; `outputs` holds each non-owner's output per setting."""
    n = cs.n_parties
    strategies = []
    for p in range(n):
        if p in outputs:
            moves = {(0, s, ()): STOP for s in (0, 1)}
            table = {(0, s, ()): outputs[p][s] for s in (0, 1)}
        else:
            j = owners.index(p)
            moves, table = {}, {}
            for m, o in trees[2 * j: 2 * j + 2]:
                moves.update(m)
                table.update(o)
        strategies.append(TableStrategy(p, moves, table))
    protocol = WiringProtocol(
        n, SharedRandomness.singleton(0), bank, tuple(strategies), (2,) * n, (2,) * n
    )
    if not all(satisfies(protocol_source(protocol), c, n) for c in cs.constraints):
        raise VerificationFailed("a counterexample of the factorized search violates a constraint")
    found = {}
    if len(bank.instances) == 1:
        found["owner_strategies"] = {
            p: tuple(_one_box_option(trees[2 * j + s], s) for s in (0, 1))
            for j, p in enumerate(owners)
        }
    found["outputs"] = outputs
    found["protocol"] = _protocol_json(protocol)
    return found


def _one_box_option(tree, s: int) -> tuple:
    """A one-box owner tree at setting s as (uses the box, its input,
    (output on box output 0, on 1)); without the box both are its constant."""
    moves, outputs = tree
    move = moves[(0, s, ())]
    if move == STOP:
        return (False, 0, (outputs[(0, s, ())],) * 2)
    return (True, move[2], (outputs[(0, s, (0,))], outputs[(0, s, (1,))]))


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
