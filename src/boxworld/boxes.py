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
from .rational import format_rational, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)
# (x, a) pairs a box may have: each one costs a row entry during
# validation.  The package's own boxes stay far below it (the cluster box
# has 1024, a census vertex 36).
BOX_CELL_CAP = 2 ** 20


@dataclass(frozen=True, eq=False)
class Box:
    """An n-party conditional distribution with exact rational entries.

    `table` maps (x_tuple, a_tuple) -> Fraction and is dense over the
    support; missing keys mean probability zero.  Instances are immutable:
    every operation returns a new Box.
    """

    n_parties: int
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    table: Mapping[tuple[tuple[int, ...], tuple[int, ...]], Fraction]

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
        if (self.n_parties, self.input_sizes, self.output_sizes) != (
            other.n_parties,
            other.input_sizes,
            other.output_sizes,
        ):
            return False
        for x in self.inputs():
            for a in self.outputs():
                if self.prob(x, a) != other.prob(x, a):
                    return False
        return True

    def __hash__(self):
        return hash(
            (
                self.n_parties,
                self.input_sizes,
                self.output_sizes,
                frozenset((k, v) for k, v in self.table.items() if v != 0),
            )
        )

    def to_json_dict(self) -> dict:
        """Serialize in the interchange format (rationals as "num/den")."""
        entries = []
        for x in self.inputs():
            for a in self.outputs():
                p = self.prob(x, a)
                if p != 0:
                    entries.append({"x": list(x), "a": list(a), "p": format_rational(p)})
        return {
            "parties": self.n_parties,
            "inputs": list(self.input_sizes),
            "outputs": list(self.output_sizes),
            "table": entries,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Box":
        table = {}
        for entry in data["table"]:
            key = (tuple(entry["x"]), tuple(entry["a"]))
            table[key] = parse_rational(entry["p"])
        return make_box(
            data["parties"],
            data["inputs"],
            data["outputs"],
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
    distribution must sum to exactly 1.  A shape with more than
    BOX_CELL_CAP (x, a) pairs raises TooLarge before any row is built.
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
    half = Fraction(1, 2)
    table = {}
    for x1, x2 in itertools.product((0, 1), repeat=2):
        for a1, a2 in itertools.product((0, 1), repeat=2):
            if (a1 ^ a2) == (x1 & x2):
                table[((x1, x2), (a1, a2))] = half
    return make_box(2, (2, 2), (2, 2), table, sparse=True)


def parity_box(input_sizes: Sequence[int], parity_of: Callable[[tuple[int, ...]], int]) -> Box:
    """Binary-output box supported on tuples whose total output parity is parity_of(x).

    Each of the 2^(n-1) output tuples with the correct parity carries
    probability 1/2^(n-1).  This is the general-alphabet form used by the
    polytope classifier; `full_correlation_box` is the m-bit-input special
    case.
    """
    input_sizes = tuple(int(s) for s in input_sizes)
    n = len(input_sizes)
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
            if p != 0:
                table[key] = table.get(key, ZERO) + Fraction(w) * p
    return make_box(first.n_parties, first.input_sizes, first.output_sizes, table, sparse=True)


def check_no_signaling(box: Box) -> NoSignalingVerdict:
    """Decide whether any party's input choice can shift the others' statistics.

    For each party i, all fixed inputs of the others, and every pair of
    inputs for i, the marginal over the other parties' outputs must be
    identical (exact rational equality).  Returns the first violation found.
    """
    n = box.n_parties
    for i in range(n):
        others = [p for p in range(n) if p != i]
        for x_others in itertools.product(*(range(box.input_sizes[p]) for p in others)):
            reference = None
            ref_xi = None
            for x_i in range(box.input_sizes[i]):
                x = [0] * n
                for p, v in zip(others, x_others):
                    x[p] = v
                x[i] = x_i
                x = tuple(x)
                marg = {}
                for a in box.outputs():
                    a_others = tuple(a[p] for p in others)
                    p_val = box.prob(x, a)
                    if p_val != 0:
                        marg[a_others] = marg.get(a_others, ZERO) + p_val
                if reference is None:
                    reference = marg
                    ref_xi = x_i
                elif marg != reference:
                    diff = next(
                        k
                        for k in set(marg) | set(reference)
                        if marg.get(k, ZERO) != reference.get(k, ZERO)
                    )
                    return NoSignalingVerdict(
                        ok=False,
                        party=i,
                        inputs_pair=(ref_xi, x_i),
                        context={
                            "others_inputs": dict(zip(others, x_others)),
                            "others_outputs": diff,
                            "probabilities": (
                                reference.get(diff, ZERO),
                                marg.get(diff, ZERO),
                            ),
                        },
                    )
    return NoSignalingVerdict(ok=True)


def marginal(box: Box, party_subset: Sequence[int], complement_inputs: Optional[Sequence[int]] = None) -> PartyMarginal:
    """Exact marginal of `party_subset`.

    Without `complement_inputs` the marginal must be independent of the
    complementary parties' inputs; this is checked by direct summation over
    every completion and a SignalingAmbiguity is raised otherwise.  With
    `complement_inputs` the marginal is taken at that specific completion.
    """
    subset = tuple(party_subset)
    if len(set(subset)) != len(subset) or any(not (0 <= p < box.n_parties) for p in subset):
        raise DimensionMismatch(f"bad party subset {subset}")
    complement = tuple(p for p in range(box.n_parties) if p not in subset)

    def marg_at(x_comp):
        table = {}
        for x_sub in itertools.product(*(range(box.input_sizes[p]) for p in subset)):
            x = [0] * box.n_parties
            for p, v in zip(subset, x_sub):
                x[p] = v
            for p, v in zip(complement, x_comp):
                x[p] = v
            x = tuple(x)
            for a in box.outputs():
                p_val = box.prob(x, a)
                if p_val != 0:
                    a_sub = tuple(a[p] for p in subset)
                    key = (x_sub, a_sub)
                    table[key] = table.get(key, ZERO) + p_val
        return table

    if complement_inputs is not None:
        if len(complement_inputs) != len(complement):
            raise DimensionMismatch(
                f"expected {len(complement)} complement inputs, got {len(complement_inputs)}"
            )
        table = marg_at(tuple(complement_inputs))
    else:
        completions = list(itertools.product(*(range(box.input_sizes[p]) for p in complement)))
        table = marg_at(completions[0]) if completions else marg_at(())
        for x_comp in completions[1:]:
            other = marg_at(x_comp)
            if other != table:
                raise SignalingAmbiguity(
                    f"marginal of parties {subset} depends on complement inputs "
                    f"({completions[0]} vs {x_comp}); pass complement_inputs explicitly"
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

    With F the parties whose output is not their last symbol and L the
    rest, inclusion-exclusion over L gives
        P(a_F, last_L | x) = sum_{T <= L} (-1)^|T| sum_{b_T} P_{F+T}(a_F, b_T | x)
    where b_T ranges over the non-last outputs of T, and the term of the
    empty party set is the constant 1.
    """
    index = {c: i for i, c in enumerate(coords)}
    n = len(input_sizes)
    cells = []
    for x in itertools.product(*(range(s) for s in input_sizes)):
        for a in itertools.product(*(range(s) for s in output_sizes)):
            free = [p for p in range(n) if a[p] < output_sizes[p] - 1]
            last = [p for p in range(n) if a[p] == output_sizes[p] - 1]
            terms = []
            for r in range(len(last) + 1):
                for t_set in itertools.combinations(last, r):
                    subset = tuple(sorted(free + list(t_set)))
                    if not subset:
                        continue
                    x_s = tuple(x[p] for p in subset)
                    for b_t in itertools.product(*(range(output_sizes[p] - 1) for p in t_set)):
                        a_t = list(a)
                        for p, b in zip(t_set, b_t):
                            a_t[p] = b
                        a_s = tuple(a_t[p] for p in subset)
                        terms.append((index[(subset, x_s, a_s)], (-1) ** r))
            cells.append(((x, a), (0 if free else 1, tuple(sorted(terms)))))
    return cells


def chsh_value(box: Box) -> Fraction:
    """CHSH expression sum_{x1,x2} (-1)^(x1*x2) E(x1,x2) with outputs encoded b -> (-1)^b."""
    if box.n_parties != 2 or box.input_sizes != (2, 2) or box.output_sizes != (2, 2):
        raise WrongShape("CHSH is defined for 2-party, 2-input, 2-output boxes")
    total = ZERO
    for x1, x2 in itertools.product((0, 1), repeat=2):
        corr = ZERO
        for a1, a2 in itertools.product((0, 1), repeat=2):
            sign = -1 if (a1 ^ a2) else 1
            corr += sign * box.prob((x1, x2), (a1, a2))
        total += (-1 if (x1 & x2) else 1) * corr
    return total


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
        if p == 0:
            continue
        new_x = tuple(rel.input_perms[rel.party_perm[i]][x[rel.party_perm[i]]] for i in range(n))
        new_a = tuple(
            rel.output_perms[rel.party_perm[i]][x[rel.party_perm[i]]][a[rel.party_perm[i]]]
            for i in range(n)
        )
        table[(new_x, new_a)] = p
    return make_box(n, new_input_sizes, new_output_sizes, table, sparse=True)


def all_relabelings(input_sizes: Sequence[int], output_sizes: Sequence[int], include_party_perms=True):
    """Yield every local relabeling of the given shape (parties must be swappable only when shapes match)."""
    n = len(input_sizes)
    if include_party_perms:
        party_perms = [
            perm
            for perm in itertools.permutations(range(n))
            if all(
                input_sizes[perm[i]] == input_sizes[i] and output_sizes[perm[i]] == output_sizes[i]
                for i in range(n)
            )
        ]
    else:
        party_perms = [tuple(range(n))]
    per_party_inputs = [list(itertools.permutations(range(input_sizes[i]))) for i in range(n)]
    per_party_outputs = [
        list(itertools.product(*(list(itertools.permutations(range(output_sizes[i]))) for _ in range(input_sizes[i]))))
        for i in range(n)
    ]
    for party_perm in party_perms:
        for in_perms in itertools.product(*per_party_inputs):
            for out_perms in itertools.product(*per_party_outputs):
                yield Relabeling(party_perm, tuple(in_perms), tuple(out_perms))
