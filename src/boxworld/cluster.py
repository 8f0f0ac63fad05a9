"""Five-party ring-cluster parity constraints, the GHZ-type paradox, and
the exhaustive no-go search over wiring protocols.

The correlations are six perfect parity constraints on five parties with
binary settings.  Writing a_i for party i's output at setting 0 and a'_i
at setting 1:

    a_i + a'_{i+1} + a_{i+2} = 0 (mod 2)   for i = 0..4 (indices mod 5),
    a'_0 + a'_1 + a'_2 + a'_3 + a'_4 = 1 (mod 2).

No fixed assignment of the ten bits can win: XOR all six equations and
each variable cancels against its second appearance, leaving 0 = 1.

Quantum mechanics meets all six.  They are elements of the stabilizer
group of the 5-ring graph state measured in Z (setting 0) or X (setting
1).  `stabilizer_box` builds the exact box of Pauli measurements on any
stabilizer state by the Gottesman-Knill rule, `graph_state` gives a
graph's generators, and `cluster_box` is the ring's box.  That box meets
all six constraints with probability 1 (`satisfies` reads each one off a
box's table), while no local assignment meets more than five
(`max_simultaneous`): the six events' probability sum is a nonlocality
certificate that needs no locality LP.

The module verifies the paradox exhaustively (ghz_local_search) and exhausts
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

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .boxes import BOX_CELL_CAP, Box, check_no_signaling, make_box
from .circuits import run_window
from .errors import DimensionMismatch, ShapeMismatch, TooLarge, VerificationFailed
from .wiring import (
    DEFAULT_STRATEGY_CAP,
    STOP,
    BoxBank,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    _party_trees,
    _walk,
    count_strategies,
    induced_box,
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


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[ParityConstraint, ...]
    n_parties: int

    def __post_init__(self):
        # the searches read party p's setting s as variable 2p + s
        for c in self.constraints:
            if c.target not in (0, 1) or not all(0 <= p < self.n_parties and s in (0, 1) for p, s in c.terms):
                raise DimensionMismatch(
                    f"constraint {c.terms} -> {c.target} is not over parties 0..{self.n_parties - 1}"
                    " with settings and target 0 or 1"
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


def satisfies(box: Box, constraint: ParityConstraint) -> bool:
    """True iff the parity event has probability exactly 1 at every input
    pinning the constraint's settings: summed over the box's nonzero entries
    there, it equals the number of those inputs.  A term naming a party or
    setting the box does not have raises DimensionMismatch."""
    pinned = dict(constraint.terms)
    if not all(0 <= p < box.n_parties and 0 <= s < box.input_sizes[p] for p, s in pinned.items()):
        raise DimensionMismatch(f"constraint {constraint.terms} is not over the box's inputs {box.input_sizes}")
    ranges = [(pinned[p],) if p in pinned else range(size) for p, size in enumerate(box.input_sizes)]
    inputs = set(itertools.product(*ranges))
    held = sum(
        prob
        for (x, a), prob in box.table.items()
        if x in inputs and functools.reduce(operator.xor, map(a.__getitem__, pinned), 0) == constraint.target
    )
    return held == len(inputs)


@dataclass(frozen=True)
class GhzReport:
    satisfying_assignments: int
    max_simultaneous: int
    space: int


def ghz_local_search(constraints: Optional[ConstraintSet] = None) -> GhzReport:
    """Exhaustively test all local deterministic assignments (a_i, a'_i).

    For the cluster constraints the count of assignments satisfying all six
    is zero; the report also carries the maximum simultaneously satisfiable.
    TooLarge is raised before the loop when the 2^(2n) assignments exceed
    DEFAULT_STRATEGY_CAP, the cap `simulation_search(0)` applies to them.
    """
    cs = constraints or cluster_constraints()
    n = cs.n_parties
    space = 2 ** (2 * n)
    if space > DEFAULT_STRATEGY_CAP:
        raise TooLarge(space, DEFAULT_STRATEGY_CAP)
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


def _parse_pauli(string: str, n: int) -> tuple[int, int, int]:
    """A signed Pauli string such as "+XZI", "-YY" or "ZZ" as (phase, x, z):
    the operator i^phase X^x Z^z, bit p of x and z acting on party p.  As
    Y = iXZ, each Y adds 1 to the phase."""
    sign, letters = (string[0], string[1:]) if string[:1] in ("+", "-") else ("+", string)
    if len(letters) != n or not set(letters) <= set("IXYZ"):
        raise DimensionMismatch(f"generator {string!r} is not a signed string of {n} letters I, X, Y, Z")
    phase, x, z = (2 if sign == "-" else 0), 0, 0
    for p, letter in enumerate(letters):
        xb, zb = int(letter in "XY"), int(letter in "YZ")
        phase += xb & zb
        x |= xb << p
        z |= zb << p
    return phase % 4, x, z


def _times(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product ab in (phase, x, z) form: moving b's X factors left past
    a's Z factors flips the sign once per party where both act."""
    return (a[0] + b[0] + 2 * (a[2] & b[1]).bit_count()) % 4, a[1] ^ b[1], a[2] ^ b[2]


def _stabilizer_group(generators: Sequence[str]) -> list[tuple[int, int, int]]:
    """The 2^n products of n signed Pauli strings on n parties, identity
    first, in (phase, x, z) form.  DimensionMismatch unless every string
    has n letters, the strings commute pairwise and they are independent
    (no product is the identity up to sign)."""
    n = len(generators)
    gens = [_parse_pauli(g, n) for g in generators]
    for (i, (_, xa, za)), (j, (_, xb, zb)) in itertools.combinations(enumerate(gens), 2):
        if ((xa & zb).bit_count() + (za & xb).bit_count()) & 1:
            raise DimensionMismatch(f"generators {generators[i]!r} and {generators[j]!r} anticommute")
    group = [(0, 0, 0)]
    for g in gens:
        group += [_times(e, g) for e in group]
    if any(x == z == 0 for _, x, z in group[1:]):
        raise DimensionMismatch(f"generators {tuple(generators)} are dependent: a product is +-I")
    return group


def graph_state(n: int, edges: Sequence[tuple[int, int]]) -> tuple[str, ...]:
    """The stabilizer generators K_i = X_i prod_{j~i} Z_j of the graph state
    on parties 0..n-1; `edges` must be distinct pairs of distinct parties,
    else DimensionMismatch."""
    pairs = {frozenset(e) for e in edges if _is_pair(e, n)}
    if len(pairs) != len(edges):
        raise DimensionMismatch(f"edges {edges} are not distinct pairs of distinct parties 0..{n - 1}")
    return tuple(
        "".join("X" if p == i else "Z" if frozenset((i, p)) in pairs else "I" for p in range(n)) for i in range(n)
    )


def stabilizer_box(generators: Sequence[str], settings: Sequence[str]) -> Box:
    """The exact box of Pauli measurements on the stabilizer state of n
    independent, commuting signed Pauli strings on n parties (Gottesman-Knill).

    Party p measures the Pauli settings[p][s] at setting s, and output bit
    b stands for eigenvalue (-1)^b.  A group element made only of the
    measured Paulis fixes the product of their eigenvalues to its sign, so
    the XOR of its parties' outputs is 1 exactly when the sign is -1.  No
    other element constrains the outcomes, and the box is uniform over the
    outcome strings that meet every such parity.  Bad generators or
    settings raise DimensionMismatch, a shape past BOX_CELL_CAP TooLarge;
    an element whose phase is not a sign, or a built box that signals,
    raises VerificationFailed.
    """
    n = len(generators)
    if len(settings) != n or not all(s and set(s) <= set("XYZ") for s in settings):
        raise DimensionMismatch(f"settings {settings} do not give each of {n} parties a string of X, Y, Z")
    cells = math.prod(len(s) for s in settings) << n
    if cells > BOX_CELL_CAP:
        raise TooLarge(cells, BOX_CELL_CAP)
    elements = []  # (x, z, parity target) of each element but the identity
    for phase, x, z in _stabilizer_group(generators)[1:]:
        sign = (phase - (x & z).bit_count()) % 4  # Y = iXZ
        if sign % 2:
            raise VerificationFailed(f"a stabilizer element has phase i^{sign}, not a sign")
        elements.append((x, z, sign // 2))
    table = {}
    for inputs in itertools.product(*(range(len(s)) for s in settings)):
        _, mx, mz = _parse_pauli("".join(settings[p][s] for p, s in enumerate(inputs)), n)
        active = [(x | z, t) for x, z, t in elements if ((x ^ mx) | (z ^ mz)) & (x | z) == 0]
        support = [a for a in range(1 << n) if all((a & m).bit_count() & 1 == t for m, t in active)]
        w = Fraction(1, len(support))
        for a in support:
            table[inputs, tuple(a >> p & 1 for p in range(n))] = w
    box = make_box(n, tuple(len(s) for s in settings), (2,) * n, table, sparse=True)
    if not check_no_signaling(box):
        raise VerificationFailed("the stabilizer box signals")
    return box


def cluster_box() -> Box:
    """The five-party ring-cluster box: Z at setting 0 and X at setting 1
    on the 5-ring graph state.  It meets the six published constraints
    with probability 1, which is checked before it is returned."""
    ring = [(i, (i + 1) % N_PARTIES) for i in range(N_PARTIES)]
    box = stabilizer_box(graph_state(N_PARTIES, ring), ["ZX"] * N_PARTIES)
    if not all(satisfies(box, c) for c in cluster_constraints().constraints):
        raise VerificationFailed("the ring graph state's box misses a published constraint")
    return box


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
    cap: int = DEFAULT_STRATEGY_CAP,
) -> SearchReport:
    """Exhaustive search for a deterministic wiring protocol with
    `n_pr_boxes` shared PR boxes that reproduces every parity constraint
    exactly.

    Deterministic shared randomness is exhaustive for probability-1 events
    (a mixture succeeds iff every support point does), so this refutes all
    randomized protocols too.  The assignments of boxes to party pairs are
    `pair_assignments`, each a sequence of `n_pr_boxes` pairs of distinct
    int parties, else DimensionMismatch (default: every multiset of
    `n_pr_boxes` pairs); zero boxes give one empty bank,
    whose space is the local deterministic assignments.  Each assignment's
    bank is searched by `_search_bank` in turn; `assignments_tested` counts
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
    assignments = list(pair_assignments)
    for a in assignments:
        if not (isinstance(a, (tuple, list)) and len(a) == n_pr_boxes and all(_is_pair(pair, n) for pair in a)):
            raise DimensionMismatch(
                f"assignment {a} does not name {n_pr_boxes} pairs of distinct parties 0..{n - 1}"
            )
    assignments = [tuple(a) for a in assignments]
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


def _is_pair(pair, n: int) -> bool:
    """Whether `pair` names two distinct parties, each an int in 0..n-1."""
    return (
        isinstance(pair, (tuple, list))
        and len(pair) == 2
        and all(isinstance(p, int) and 0 <= p < n for p in pair)
        and pair[0] != pair[1]
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
        # the tables of odd non-owner parity: the XOR of the pinned bits' columns
        odd = 0
        for k, s in c.terms:
            if k not in owners:
                odd ^= run_window(1 << var_index[(k, s)], 0, n_tables)
        by_parity = (every_table ^ odd, odd)
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
    outcomes: dict = {}
    _walk(protocol, 0, tuple(x), outcomes)
    return {tuple(outputs[p] for p in owners) for outputs in outcomes}


def _counterexample(bank: BoxBank, cs: ConstraintSet, owners, trees, outputs) -> dict:
    """Materialize a found profile as a table protocol, re-verify it on the
    box the generic executor induces (one validating walk per input, then
    the no-signaling post-check), and describe it.  trees[2j + s] is owner
    j's tree at setting s; `outputs` holds each non-owner's output per
    setting."""
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
    box = induced_box(protocol)
    if not all(satisfies(box, c) for c in cs.constraints):
        raise VerificationFailed("a counterexample of the factorized search violates a constraint")
    found = {}
    if len(bank.instances) == 1:
        found["owner_strategies"] = {
            p: tuple(_one_box_option(trees[2 * j + s], s) for s in (0, 1))
            for j, p in enumerate(owners)
        }
    found["outputs"] = outputs
    found["protocol"] = protocol.to_json_dict()
    return found


def _one_box_option(tree, s: int) -> tuple:
    """A one-box owner tree at setting s as (uses the box, its input,
    (output on box output 0, on 1)); without the box both are its constant."""
    moves, outputs = tree
    move = moves[(0, s, ())]
    if move == STOP:
        return (False, 0, (outputs[(0, s, ())],) * 2)
    return (True, move[2], (outputs[(0, s, (0,))], outputs[(0, s, (1,))]))

