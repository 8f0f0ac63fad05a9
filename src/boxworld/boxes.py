"""Multi-party boxes as exact conditional distributions P(a | x).

A box is an n-party input/output device: party i feeds in an input
x_i and receives an output a_i.  The box is fully described by the joint
conditional probabilities P(a_1...a_n | x_1...x_n), stored here as exact
rationals.  Inputs and outputs are integers 0..size-1; m-bit string inputs
are encoded little-endian (bit 0 is the least significant).

The module provides the two constructors the rest of the package is built
on (the PR box and the parity-correlated family generalizing it), the
no-signaling test, exact marginals, the marginal-coordinate
parametrization of no-signaling boxes shared by `locality` and
`polytope`, local relabelings, and the CHSH value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    DimensionMismatch,
    NegativeProbability,
    NotNormalized,
    ShapeMismatch,
    SignalingAmbiguity,
    TooLarge,
    WrongShape,
)
from .rational import format_rational, parse_int, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)
# (x, a) pairs a box may have: each one costs a row entry during
# validation.  The package's own boxes stay far below it (the cluster box
# has 1024, a census vertex 36).
BOX_CELL_CAP = 2 ** 20


@dataclass(frozen=True, eq=False)
class Box:
    """An n-party conditional distribution with exact rational entries.

    `table` maps (x_tuple, a_tuple) -> Fraction over exactly the nonzero
    entries; missing keys mean probability zero.  It is a read-only copy
    of the table the Box was built with, zeros dropped, made once in
    `__post_init__`, so boxes are immutable: every operation returns a new
    Box.
    """

    n_parties: int
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    table: Mapping[tuple[tuple[int, ...], tuple[int, ...]], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "table", MappingProxyType({key: p for key, p in self.table.items() if p}))

    def __reduce__(self):
        return Box, (self.n_parties, self.input_sizes, self.output_sizes, dict(self.table))

    def inputs(self):
        """Iterate over all joint input tuples."""
        return itertools.product(*(range(s) for s in self.input_sizes))

    def outputs(self):
        """Iterate over all joint output tuples."""
        return itertools.product(*(range(s) for s in self.output_sizes))

    def prob(self, x, a) -> Fraction:
        return self.table.get((tuple(x), tuple(a)), ZERO)

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        return (self.n_parties, self.input_sizes, self.output_sizes, self.table) == (
            other.n_parties,
            other.input_sizes,
            other.output_sizes,
            other.table,
        )

    def __hash__(self):
        return hash((self.n_parties, self.input_sizes, self.output_sizes, frozenset(self.table.items())))

    def to_json_dict(self) -> dict:
        """Serialize in the interchange format (rationals as "num/den")."""
        return {
            "parties": self.n_parties,
            "inputs": list(self.input_sizes),
            "outputs": list(self.output_sizes),
            "table": [
                {"x": list(x), "a": list(a), "p": format_rational(p)} for (x, a), p in sorted(self.table.items())
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Box":
        table = {}
        for entry in data["table"]:
            key = (tuple(map(parse_int, entry["x"])), tuple(map(parse_int, entry["a"])))
            if key in table:
                raise DimensionMismatch(f"the table lists x={list(key[0])}, a={list(key[1])} twice")
            table[key] = parse_rational(entry["p"])
        return make_box(
            parse_int(data["parties"]),
            tuple(map(parse_int, data["inputs"])),
            tuple(map(parse_int, data["outputs"])),
            table,
            sparse=True,
        )


@dataclass(frozen=True)
class PartyMarginal:
    """Exact marginal distribution of a subset of parties."""

    party_subset: tuple[int, ...]
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    table: Mapping[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = field(hash=False)

    def prob(self, x, a) -> Fraction:
        return self.table.get((tuple(x), tuple(a)), ZERO)


@dataclass(frozen=True)
class Relabeling:
    """A local symmetry: permute parties, inputs, and (input-conditioned) outputs.

    `party_perm[i]` is the original party placed at new position i.
    `input_perms[i][x]` is the new name of original party i's input x.
    `output_perms[i][x][a]` is the new name of output a when original party i
    received original input x.
    """

    party_perm: tuple[int, ...]
    input_perms: tuple[tuple[int, ...], ...]
    output_perms: tuple[tuple[tuple[int, ...], ...], ...]

    @staticmethod
    def identity(input_sizes: Sequence[int], output_sizes: Sequence[int]) -> "Relabeling":
        n = len(input_sizes)
        return Relabeling(
            party_perm=tuple(range(n)),
            input_perms=tuple(tuple(range(input_sizes[i])) for i in range(n)),
            output_perms=tuple(
                tuple(tuple(range(output_sizes[i])) for _ in range(input_sizes[i]))
                for i in range(n)
            ),
        )


@dataclass(frozen=True)
class NoSignalingVerdict:
    """Outcome of the no-signaling test; `ok` or a concrete witness."""

    ok: bool
    party: Optional[int] = None
    inputs_pair: Optional[tuple[int, int]] = None
    context: Optional[dict] = None

    def __bool__(self):
        return self.ok


def _is_perm(seq, size) -> bool:
    return sorted(seq) == list(range(size))


def make_box(n, input_sizes, output_sizes, table, sparse=False) -> Box:
    """Validate and construct a Box.

    Unless `sparse` is set, the table must carry an entry for every
    (x, a) pair.  Entries must be rationals in [0, 1] and each conditional
    distribution must sum to exactly 1; the Box keeps only the nonzero
    ones.  A shape with more than BOX_CELL_CAP (x, a) pairs raises
    TooLarge before any row is built.
    """
    input_sizes = tuple(int(s) for s in input_sizes)
    output_sizes = tuple(int(s) for s in output_sizes)
    if n <= 0:
        raise DimensionMismatch(f"n_parties must be positive, got {n}")
    if len(input_sizes) != n or len(output_sizes) != n:
        raise DimensionMismatch(
            f"expected {n} input and output sizes, got {len(input_sizes)}/{len(output_sizes)}"
        )
    if any(s <= 0 for s in input_sizes + output_sizes):
        raise DimensionMismatch("alphabet sizes must be positive")
    cells = math.prod(input_sizes) * math.prod(output_sizes)
    if cells > BOX_CELL_CAP:
        raise TooLarge(cells, BOX_CELL_CAP)

    clean = {}
    for key, value in table.items():
        x, a = key
        x = tuple(int(v) for v in x)
        a = tuple(int(v) for v in a)
        if len(x) != n or len(a) != n:
            raise DimensionMismatch(f"key {key} does not have arity {n}")
        if any(not (0 <= x[i] < input_sizes[i]) for i in range(n)):
            raise DimensionMismatch(f"input tuple {x} out of range {input_sizes}")
        if any(not (0 <= a[i] < output_sizes[i]) for i in range(n)):
            raise DimensionMismatch(f"output tuple {a} out of range {output_sizes}")
        p = Fraction(value) if not isinstance(value, Fraction) else value
        if p < 0 or p > 1:
            raise NegativeProbability((x, a), p)
        clean[(x, a)] = p

    n_outcomes = 1
    for s in output_sizes:
        n_outcomes *= s
    for x in itertools.product(*(range(s) for s in input_sizes)):
        row = [clean.get((x, a)) for a in itertools.product(*(range(s) for s in output_sizes))]
        if not sparse and any(p is None for p in row):
            raise DimensionMismatch(f"missing table entries for inputs {x} (pass sparse=True to default to 0)")
        total = sum((p for p in row if p is not None), ZERO)
        if total != 1:
            raise NotNormalized(x, total)

    return Box(n, input_sizes, output_sizes, clean)


def pr_box() -> Box:
    """The 2-party, binary box with P = 1/2 whenever a1 XOR a2 = x1 AND x2."""
    return parity_box((2, 2), lambda x: x[0] & x[1])


def parity_box(input_sizes: Sequence[int], parity_of: Callable[[tuple[int, ...]], int]) -> Box:
    """Binary-output box supported on tuples whose total output parity is parity_of(x).

    Each of the 2^(n-1) output tuples with the correct parity carries
    probability 1/2^(n-1).  This is the general-alphabet form used by the
    polytope classifier; `full_correlation_box` is the m-bit-input special
    case.  A shape with more than BOX_CELL_CAP (x, a) pairs raises TooLarge
    before parity_of is called.
    """
    input_sizes = tuple(int(s) for s in input_sizes)
    n = len(input_sizes)
    cells = math.prod(input_sizes) * 2 ** n
    if cells > BOX_CELL_CAP:
        raise TooLarge(cells, BOX_CELL_CAP)
    weight = Fraction(1, 2 ** (n - 1))
    table = {}
    for x in itertools.product(*(range(s) for s in input_sizes)):
        target = parity_of(x) & 1
        for a in itertools.product((0, 1), repeat=n):
            if sum(a) % 2 == target:
                table[(x, a)] = weight
    return make_box(n, input_sizes, (2,) * n, table, sparse=True)


def full_correlation_box(n: int, m: int, f) -> Box:
    """Box carrying f(x) in the total output parity and nothing anywhere else.

    Each party's input is an m-bit string encoded as an integer (bit 0 least
    significant); `f` may be a callable on the n*m concatenated bits (party 0
    bits first), a boxworld TruthTable, or a NandCircuit.
    """
    from .circuits import NandCircuit, TruthTable, circuit_function

    if isinstance(f, TruthTable):
        if f.n_vars != n * m:
            raise ShapeMismatch(f"truth table over {f.n_vars} vars, expected {n * m}")
        func = f.value
    elif isinstance(f, NandCircuit):
        func = circuit_function(f, n * m)
    else:
        func = f

    def parity_of(x):
        bits = []
        for xi in x:
            bits.extend((xi >> b) & 1 for b in range(m))
        return func(tuple(bits)) & 1

    return parity_box((2 ** m,) * n, parity_of)


def uniform_box(input_sizes: Sequence[int], output_sizes: Sequence[int]) -> Box:
    """Pure-noise box: every output tuple equally likely for every input."""
    input_sizes = tuple(input_sizes)
    output_sizes = tuple(output_sizes)
    n_out = 1
    for s in output_sizes:
        n_out *= s
    w = Fraction(1, n_out)
    table = {}
    for x in itertools.product(*(range(s) for s in input_sizes)):
        for a in itertools.product(*(range(s) for s in output_sizes)):
            table[(x, a)] = w
    return make_box(len(input_sizes), input_sizes, output_sizes, table)


def deterministic_box(input_sizes: Sequence[int], output_sizes: Sequence[int], responses) -> Box:
    """Local deterministic box: party i answers responses[i][x_i] to input x_i."""
    input_sizes = tuple(input_sizes)
    output_sizes = tuple(output_sizes)
    table = {}
    for x in itertools.product(*(range(s) for s in input_sizes)):
        a = tuple(responses[i][x[i]] for i in range(len(input_sizes)))
        table[(x, a)] = ONE
    return make_box(len(input_sizes), input_sizes, output_sizes, table, sparse=True)


def mix_boxes(weighted: Sequence[tuple[Fraction, Box]]) -> Box:
    """Exact convex mixture of boxes of identical shape."""
    if not weighted:
        raise ShapeMismatch("cannot mix an empty list of boxes")
    first = weighted[0][1]
    table = {}
    for w, box in weighted:
        if (box.input_sizes, box.output_sizes) != (first.input_sizes, first.output_sizes):
            raise ShapeMismatch("mixture components differ in shape")
        for key, p in box.table.items():
            table[key] = table.get(key, ZERO) + Fraction(w) * p
    return make_box(first.n_parties, first.input_sizes, first.output_sizes, table, sparse=True)


def check_no_signaling(box: Box) -> NoSignalingVerdict:
    """Decide whether any party's input choice can shift the others' statistics.

    For each party i, all fixed inputs of the others, and every pair of
    inputs for i, the marginal over the other parties' outputs must be
    identical (exact rational equality).  Returns the first violation found,
    in order of party, the others' inputs, then party i's input, each
    compared with party i's input 0.

    Every marginal is summed in one pass over the table's nonzero entries;
    the witness of a violation is summed again from the two inputs' cells.
    """
    n = box.n_parties
    # per party: (others' inputs, own input) -> {others' outputs: probability}
    margs = [{} for _ in range(n)]
    for (x, a), p_val in box.table.items():
        for i, marg_i in enumerate(margs):
            marg = marg_i.setdefault((x[:i] + x[i + 1:], x[i]), {})
            a_others = a[:i] + a[i + 1:]
            marg[a_others] = marg.get(a_others, ZERO) + p_val
    for i, marg_i in enumerate(margs):
        others = [p for p in range(n) if p != i]
        for x_others in itertools.product(*(range(box.input_sizes[p]) for p in others)):
            reference = marg_i.get((x_others, 0), {})
            for x_i in range(1, box.input_sizes[i]):
                if marg_i.get((x_others, x_i), {}) != reference:
                    return _signaling_witness(box, i, others, x_others, x_i)
    return NoSignalingVerdict(ok=True)


def _signaling_witness(box: Box, i: int, others, x_others, x_i: int) -> NoSignalingVerdict:
    """The verdict for a marginal of the others that moves when party i's
    input goes from 0 to x_i.  Both marginals are summed in `Box.outputs`
    order, so the witness does not depend on the table's key order."""
    margs = []
    for own in (0, x_i):
        x = [0] * box.n_parties
        for p, v in zip(others, x_others):
            x[p] = v
        x[i] = own
        x = tuple(x)
        marg = {}
        for a in box.outputs():
            a_others = tuple(a[p] for p in others)
            p_val = box.prob(x, a)
            if p_val != 0:
                marg[a_others] = marg.get(a_others, ZERO) + p_val
        margs.append(marg)
    reference, marg = margs
    diff = next(k for k in set(marg) | set(reference) if marg.get(k, ZERO) != reference.get(k, ZERO))
    return NoSignalingVerdict(
        ok=False,
        party=i,
        inputs_pair=(0, x_i),
        context={
            "others_inputs": dict(zip(others, x_others)),
            "others_outputs": diff,
            "probabilities": (reference.get(diff, ZERO), marg.get(diff, ZERO)),
        },
    )


def marginal(box: Box, party_subset: Sequence[int], complement_inputs: Optional[Sequence[int]] = None) -> PartyMarginal:
    """Exact marginal of `party_subset`.

    One pass over the table's nonzero entries sums, for every joint input
    of the complementary parties, the subset's table at that completion.
    Without `complement_inputs` the marginal must be independent of the
    complementary parties' inputs: every completion's table must be equal,
    and a SignalingAmbiguity names the first one that differs.  With
    `complement_inputs` the marginal is taken at that specific completion.
    """
    subset = tuple(party_subset)
    if len(set(subset)) != len(subset) or any(not (0 <= p < box.n_parties) for p in subset):
        raise DimensionMismatch(f"bad party subset {subset}")
    complement = tuple(p for p in range(box.n_parties) if p not in subset)
    if complement_inputs is not None:
        if len(complement_inputs) != len(complement):
            raise DimensionMismatch(
                f"expected {len(complement)} complement inputs, got {len(complement_inputs)}"
            )
        for p, v in zip(complement, complement_inputs):
            if not 0 <= v < box.input_sizes[p]:
                raise DimensionMismatch(f"complement input {v} of party {p} outside 0..{box.input_sizes[p] - 1}")

    # complement's inputs -> {(x_S, a_S): probability}
    groups: dict = {}
    for (x, a), p_val in box.table.items():
        group = groups.setdefault(tuple(x[p] for p in complement), {})
        key = (tuple(x[p] for p in subset), tuple(a[p] for p in subset))
        group[key] = group.get(key, ZERO) + p_val
    if complement_inputs is not None:
        table = groups.get(tuple(complement_inputs), {})
    else:
        completions = itertools.product(*(range(box.input_sizes[p]) for p in complement))
        first = next(completions)
        table = groups.get(first, {})
        for x_comp in completions:
            if groups.get(x_comp, {}) != table:
                raise SignalingAmbiguity(
                    f"marginal of parties {subset} depends on complement inputs "
                    f"({first} vs {x_comp}); pass complement_inputs explicitly"
                )

    return PartyMarginal(
        party_subset=subset,
        input_sizes=tuple(box.input_sizes[p] for p in subset),
        output_sizes=tuple(box.output_sizes[p] for p in subset),
        table=table,
    )


# Marginal ("Collins-Gisin") coordinates parametrize the no-signaling boxes
# of a shape bijectively: Collins & Gisin, J. Phys. A 37, 1775 (2004).


def marginal_coordinates(input_sizes: Sequence[int], output_sizes: Sequence[int]) -> list:
    """For every nonempty party subset S, every joint input of S, and every
    joint output of S avoiding each party's last symbol, the coordinate
    (S, x_S, a_S) standing for P(a_S | x_S).  Their number is
    prod(m_i (d_i - 1) + 1) - 1, the dimension of the no-signaling polytope."""
    coords = []
    n = len(input_sizes)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            input_ranges = [range(input_sizes[p]) for p in subset]
            output_ranges = [range(output_sizes[p] - 1) for p in subset]
            for x_s in itertools.product(*input_ranges):
                for a_s in itertools.product(*output_ranges):
                    coords.append((subset, x_s, a_s))
    return coords


def marginal_point(box: Box, coords) -> list[Fraction]:
    """The values of `coords` on a box; SignalingAmbiguity if it signals."""
    marg_cache: dict = {}
    vec = []
    for subset, x_s, a_s in coords:
        if subset not in marg_cache:
            marg_cache[subset] = marginal(box, subset)
        vec.append(marg_cache[subset].prob(x_s, a_s))
    return vec


def cell_expressions(input_sizes: Sequence[int], output_sizes: Sequence[int], coords):
    """Every table cell (x, a), in `Box.inputs` x `Box.outputs` order, with
    its value as an affine form (const, ((coord_index, coef), ...)) in
    `coords`.

    The cell is a product over the parties, P(a | x) = prod_p f_p, where
    f_p = t(p; x_p, a_p) when a_p < d_p - 1 and
    f_p = 1 - sum_{b < d_p - 1} t(p; x_p, b) at party p's last output.
    Expanded, the term over a party set S is the coordinate (S, x_S, a_S)
    with coefficient (-1)^(number of -t factors); the term of the empty
    party set is the constant.
    """
    index = {c: i for i, c in enumerate(coords)}
    cells = []
    for x in itertools.product(*(range(s) for s in input_sizes)):
        for a in itertools.product(*(range(s) for s in output_sizes)):
            terms = [((), (), (), 1)]  # the product expanded party by party: (S, x_S, a_S, coefficient)
            for p, (x_p, a_p, d) in enumerate(zip(x, a, output_sizes)):
                if a_p < d - 1:
                    terms = [(s + (p,), xs + (x_p,), bs + (a_p,), c) for s, xs, bs, c in terms]
                else:
                    terms += [(s + (p,), xs + (x_p,), bs + (b,), -c) for s, xs, bs, c in terms for b in range(d - 1)]
            const = sum(c for s, _, _, c in terms if not s)
            body = sorted((index[(s, xs, bs)], c) for s, xs, bs, c in terms if s)
            cells.append(((x, a), (const, tuple(body))))
    return cells


def chsh_value(box: Box) -> Fraction:
    """CHSH expression sum_{x1,x2} (-1)^(x1*x2) E(x1,x2) with outputs encoded b -> (-1)^b."""
    if box.n_parties != 2 or box.input_sizes != (2, 2) or box.output_sizes != (2, 2):
        raise WrongShape("CHSH is defined for 2-party, 2-input, 2-output boxes")
    return sum(((-1) ** ((x1 & x2) ^ a1 ^ a2) * p for ((x1, x2), (a1, a2)), p in box.table.items()), ZERO)


def relabel(box: Box, rel: Relabeling) -> Box:
    """Apply a local relabeling; preserves no-signaling and locality status."""
    n = box.n_parties
    if len(rel.party_perm) != n or not _is_perm(rel.party_perm, n):
        raise ShapeMismatch(f"party permutation {rel.party_perm} is not a permutation of 0..{n - 1}")
    for i in range(n):
        if not _is_perm(rel.input_perms[i], box.input_sizes[i]):
            raise ShapeMismatch(f"input permutation for party {i} is not a bijection")
        if len(rel.output_perms[i]) != box.input_sizes[i]:
            raise ShapeMismatch(f"party {i} needs one output permutation per input")
        for x in range(box.input_sizes[i]):
            if not _is_perm(rel.output_perms[i][x], box.output_sizes[i]):
                raise ShapeMismatch(f"output permutation for party {i}, input {x} is not a bijection")

    new_input_sizes = tuple(box.input_sizes[rel.party_perm[i]] for i in range(n))
    new_output_sizes = tuple(box.output_sizes[rel.party_perm[i]] for i in range(n))
    table = {}
    for (x, a), p in box.table.items():
        new_x = tuple(rel.input_perms[rel.party_perm[i]][x[rel.party_perm[i]]] for i in range(n))
        new_a = tuple(
            rel.output_perms[rel.party_perm[i]][x[rel.party_perm[i]]][a[rel.party_perm[i]]]
            for i in range(n)
        )
        table[(new_x, new_a)] = p
    return make_box(n, new_input_sizes, new_output_sizes, table, sparse=True)


def all_relabelings(input_sizes: Sequence[int], output_sizes: Sequence[int]):
    """Yield every local relabeling of the given shape (parties must be swappable only when shapes match)."""
    n = len(input_sizes)
    party_perms = [
        perm
        for perm in itertools.permutations(range(n))
        if all(
            input_sizes[perm[i]] == input_sizes[i] and output_sizes[perm[i]] == output_sizes[i]
            for i in range(n)
        )
    ]
    per_party_inputs = [list(itertools.permutations(range(input_sizes[i]))) for i in range(n)]
    per_party_outputs = [
        list(itertools.product(*(list(itertools.permutations(range(output_sizes[i]))) for _ in range(input_sizes[i]))))
        for i in range(n)
    ]
    for party_perm in party_perms:
        for in_perms in itertools.product(*per_party_inputs):
            for out_perms in itertools.product(*per_party_outputs):
                yield Relabeling(party_perm, tuple(in_perms), tuple(out_perms))
