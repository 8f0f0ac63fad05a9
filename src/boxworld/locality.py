"""Exact locality decisions: is a box a mixture of deterministic strategies?

A box is local when its table is a convex combination of global
deterministic strategies (each party answering by a fixed function of its
own input).  The decision is one exact rational feasibility problem, posed
on the orbits of the box's own symmetry group; signaling boxes are
nonlocal outright, with the signaling witness as certificate.

The LP.  Say a group G of local relabelings fixes P and P = sum_s w_s D_s.
Averaging the decomposition over G gives a G-invariant mixture, so P is
local exactly when it is a G-invariant mixture of deterministic boxes;
both sides are G-invariant, so comparing their sums over cell orbits is
enough (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 95 (2004); for
Bell scenarios Rosset, Bancal & Gisin, J. Phys. A 47, 424022 (2014)).
Both sides are also nonsignaling, so the cells at which some party answers
its last output at an input other than 0 are linear combinations of the
rest, the spanning cells; since a G-invariant table is its orbit sum over
the orbit's size at every cell, the cell orbits that hold a spanning cell
are enough.  The LP has one row per such cell orbit, whose rhs is the
box's probability summed over the orbit, plus the normalization row.  A
strategy's column counts its cells in each row's orbit, then a 1, and
strategies with equal columns share one column, whose variable is their
total weight.  The rows are sums over G-stable cell orbits, so the
strategies of one G-orbit share a column: each shared column stands for
a union of strategy orbits, and spreading its weight evenly over its
strategies gives a G-invariant mixture with the same row sums.  The
trivial group makes every cell orbit one cell: the LP over the
prod(m_p(d_p - 1) + 1) spanning cells, on which distinct strategies
differ.

The group.  G is found from the box alone, by linear algebra over GF(2),
when every party has two outputs (any other box gets the trivial group).
Write P^_x(s) = sum_a (-1)^(s.a) P(a|x) for the correlators of input x (a
Walsh-Hadamard transform of the table's integers).  Flipping the outputs
by t(x) multiplies P^_x(s) by (-1)^(s.t(x)), so a relabeling g followed by
output flips f fixes the box exactly when g permutes the correlators up to
sign and s.f(x) is that sign's bit for every x and every s in the support:
one affine system in the sum of m_p flip bits, which `exactlp`'s one
GF(2) eliminator reduces.  Its kernel, at g = 1, is the group of flips
that fix the box.  The other candidates are each party's input
transpositions and the party permutations, completed with
flips the same way.  Party permutations are searched depth first, level
by level down a stabilizer chain: at level k, one permutation fixing
parties 0..k-1 that sends k to each party its orbit has not yet reached.
A search that fails visits every completion of its prefix, so a box with
many parties and few party symmetries costs up to (n-1)! completions for
one image.  Every generator is kept only if, as a permutation of the table's
cells, it fixes the table.

Verdicts are self-verifying, on the full problem's cells and in integers
over a common denominator, so a wrong group can only raise
VerificationFailed.  Local: each column's weight is spread evenly over
its strategies, and their cells are summed and compared with the table
exactly.  Nonlocal: the Farkas vector, constant on cell orbits, is a
functional on cells; its value is checked exactly on the box and on the
cells of every deterministic strategy, recomputed from its responses.
Only the returned witness is mapped onto the marginal coordinates, by
`boxes.cell_expressions`, and scaled to value 1 on the box.  The
witness kind is "signaling" or "linear".
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .boxes import (
    Box,
    Relabeling,
    cell_expressions,
    check_no_signaling,
    deterministic_box,
    marginal_coordinates,
)
from .errors import TooLarge, VerificationFailed
from .exactlp import _gf2_echelon, solve_equality_feasibility

DEFAULT_STRATEGY_CAP = 10 ** 6


def strategy_count(box: Box) -> int:
    total = 1
    for i in range(box.n_parties):
        total *= box.output_sizes[i] ** box.input_sizes[i]
    return total


def deterministic_responses(input_sizes, output_sizes):
    """All global deterministic strategies, as per-party response tuples."""
    return itertools.product(
        *(itertools.product(range(d), repeat=m) for m, d in zip(input_sizes, output_sizes))
    )


@dataclass(frozen=True)
class LocalityVerdict:
    local: bool
    weights: Optional[dict] = None  # response-tuples -> Fraction
    witness: Optional[dict] = None

    def __bool__(self):
        return self.local


# Cells are numbered in mixed radix over the parties, party 0 most
# significant, by their local cells x_p * d_p + a_p.


def _strides(sizes) -> list[int]:
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return strides


def _cell_strides(box: Box) -> list[int]:
    return _strides([m * d for m, d in zip(box.input_sizes, box.output_sizes)])


def _cell_index(x, a, output_sizes, strides) -> int:
    return sum((xq * d + aq) * s for xq, aq, d, s in zip(x, a, output_sizes, strides))


def _strategy_cells(strategy, output_sizes, strides) -> list[int]:
    """The cells at which a deterministic strategy's table is 1, one per
    joint input."""
    cells = [0]
    for response, d, stride in zip(strategy, output_sizes, strides):
        cells = [c + stride * (x * d + a) for c in cells for x, a in enumerate(response)]
    return cells


def _cell_values(box: Box) -> list:
    strides = _cell_strides(box)
    values = [0] * (strides[0] * box.input_sizes[0] * box.output_sizes[0])
    for (x, a), p in box.table.items():
        values[_cell_index(x, a, box.output_sizes, strides)] = p
    return values


def _permutation(party_perm, local_maps) -> list[int]:
    """The images of every product object under a relabeling that sends
    party q's local object o to local_maps[q][o] at position
    party_perm.index(q)."""
    strides = _strides([len(local) for local in local_maps])
    images = [0]
    for q, local in enumerate(local_maps):
        stride = strides[party_perm.index(q)]
        images = [base + stride * o for base in images for o in local]
    return images


def _cell_maps(rel: Relabeling, input_sizes, output_sizes):
    return [
        [rel.input_perms[q][x] * d + rel.output_perms[q][x][a] for x in range(m) for a in range(d)]
        for q, (m, d) in enumerate(zip(input_sizes, output_sizes))
    ]


def _spanning_cells(box: Box) -> list[int]:
    """The cells at which every party answers below its last output or at
    input 0.  On a nonsignaling box, and on every mixture of strategies,
    each other cell is a fixed linear combination of these: party p's
    P(x, d_p - 1, rest) is the sum over a of P(0, a, rest) less the sum
    over a < d_p - 1 of P(x, a, rest)."""
    cells = [0]
    for m, d, stride in zip(box.input_sizes, box.output_sizes, _cell_strides(box)):
        local = [x * d + a for x in range(m) for a in range(d) if a < d - 1 or x == 0]
        cells = [c + stride * o for c in cells for o in local]
    return cells


def _correlators(box: Box) -> dict:
    """x -> {s: P^_x(s)} over the nonzero correlators, the table scaled by
    the lcm of its denominators; bit p of s is party p."""
    scale = lcm(*(p.denominator for p in box.table.values()))
    size = 1 << box.n_parties
    rows = {x: [0] * size for x in box.inputs()}
    for (x, a), p in box.table.items():
        rows[x][sum(b << i for i, b in enumerate(a))] = p.numerator * (scale // p.denominator)
    correlators = {}
    for x, v in rows.items():
        h = 1
        while h < size:
            for i in range(0, size, 2 * h):
                for j in range(i, i + h):
                    v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
            h *= 2
        correlators[x] = {s: c for s, c in enumerate(v) if c}
    return correlators


def _flip_rows(correlators, input_sizes, party_perm, input_perms):
    """The GF(2) rows (mask, bit) that flips f must meet for (party_perm,
    input_perms) followed by f to fix the box, or None when that relabeling
    does not permute the correlators up to sign.  Bit offset_i + y of f
    flips new party i's output at its new input y."""
    offset = list(itertools.accumulate(input_sizes, initial=0))
    inverse = [[perm.index(y) for y in range(len(perm))] for perm in input_perms]
    rows = []
    for y, target in correlators.items():
        x = [0] * len(y)
        for i, q in enumerate(party_perm):
            x[q] = inverse[q][y[i]]
        source = correlators[tuple(x)]
        if len(source) != len(target):
            return None
        flips = [1 << (offset[i] + y_i) for i, y_i in enumerate(y)]
        for t, value in source.items():
            s = mask = 0
            for i, q in enumerate(party_perm):
                if t >> q & 1:
                    s |= 1 << i
                    mask |= flips[i]
            other = target.get(s)
            if other != value and other != -value:
                return None
            rows.append((mask, int(other != value)))
    return rows


def _gf2_solve(rows, n_vars):
    """(one solution with its free bits 0, a basis of the kernel) of the
    GF(2) rows (mask, bit), as bitmasks; None when they are inconsistent."""
    pivots = _gf2_echelon(rows)
    if pivots is None:
        return None
    order = sorted(pivots)

    def settle(f, with_bits):
        # a row holds no bit above its lead, so lower pivots are settled first
        for lead in order:
            mask, bit = pivots[lead]
            if ((mask & f).bit_count() + (bit if with_bits else 0)) & 1:
                f |= 1 << lead
        return f

    kernel = [settle(1 << j, False) for j in range(n_vars) if j not in pivots]
    return settle(0, True), kernel


def _relabeling(input_sizes, party_perm, input_perms, flips) -> Relabeling:
    offset = list(itertools.accumulate(input_sizes, initial=0))
    output_perms = []
    for q, perm in enumerate(input_perms):
        bit = offset[party_perm.index(q)]
        output_perms.append(tuple((1, 0) if flips >> (bit + y) & 1 else (0, 1) for y in perm))
    return Relabeling(tuple(party_perm), tuple(map(tuple, input_perms)), tuple(output_perms))


def _symmetries(box: Box) -> list:
    """Generators of a group of relabelings that fix the box, each with its
    permutation of the table's cells (see the module docstring); [] when a
    party has other than two outputs."""
    n, input_sizes, output_sizes = box.n_parties, box.input_sizes, box.output_sizes
    if set(output_sizes) != {2}:
        return []
    correlators = _correlators(box)
    values = _cell_values(box)
    identity = list(range(n))
    same_inputs = [tuple(range(m)) for m in input_sizes]
    generators = []

    def keep(party_perm, input_perms, flips):
        rel = _relabeling(input_sizes, party_perm, input_perms, flips)
        images = _permutation(party_perm, _cell_maps(rel, input_sizes, output_sizes))
        if all(values[j] == v for j, v in zip(images, values)):
            generators.append((rel, images))
            return True
        return False

    def complete(party_perm, input_perms):
        rows = _flip_rows(correlators, input_sizes, party_perm, input_perms)
        solved = rows is not None and _gf2_solve(rows, sum(input_sizes))
        return bool(solved) and keep(party_perm, input_perms, solved[0])

    _, kernel = _gf2_solve(_flip_rows(correlators, input_sizes, identity, same_inputs), sum(input_sizes))
    for flips in kernel:
        keep(identity, same_inputs, flips)
    for q, m in enumerate(input_sizes):
        for u, w in itertools.combinations(range(m), 2):
            swapped = list(range(m))
            swapped[u], swapped[w] = w, u
            complete(identity, same_inputs[:q] + [tuple(swapped)] + same_inputs[q + 1:])

    def extend(perm, prefix):
        # depth first, returning at the first completion that fixes the box
        i = len(perm)
        if i == n:
            return complete(perm, same_inputs)
        for q in prefix[i:i + 1] or range(n):
            if q not in perm and input_sizes[q] == input_sizes[i] and extend(perm + [q], prefix):
                return True
        return False

    # stabilizer chain: at level k, one permutation fixing 0..k-1 for each
    # image of k not yet reached by those found at deeper levels
    found = []
    for k in range(n - 2, -1, -1):
        for j in range(k + 1, n):
            orbit = {k}
            while True:
                grown = orbit | {perm[p] for perm in found for p in orbit}
                if grown == orbit:
                    break
                orbit = grown
            if j not in orbit and extend([], identity[:k] + [j]):
                found.append(generators[-1][0].party_perm)
    return generators


def _orbits(size: int, permutations) -> tuple[list[int], list[int]]:
    """(orbit number of each of range(size), first member of each orbit)
    under the group the permutations generate."""
    label = [-1] * size
    firsts = []
    for start in range(size):
        if label[start] < 0:
            orbit = label[start] = len(firsts)
            firsts.append(start)
            stack = [start]
            while stack:
                i = stack.pop()
                for images in permutations:
                    j = images[i]
                    if label[j] < 0:
                        label[j] = orbit
                        stack.append(j)
    return label, firsts


def is_local(box: Box, cap: int = DEFAULT_STRATEGY_CAP) -> LocalityVerdict:
    """Decide locality with an exact certificate either way.

    Local: returns nonnegative rational weights over deterministic
    strategies whose mixture reproduces the table exactly (re-verified).
    Nonlocal: returns either the no-signaling violation or a linear witness
    in marginal coordinates, scaled to value 1 on the box, whose exact
    maximum over all deterministic strategies is at most 0 (re-verified).
    """
    count = strategy_count(box)
    if count > cap:
        raise TooLarge(count, cap)

    ns = check_no_signaling(box)
    if not ns:
        return LocalityVerdict(
            local=False,
            witness={
                "kind": "signaling",
                "party": ns.party,
                "inputs": ns.inputs_pair,
                "context": ns.context,
            },
        )

    input_sizes, output_sizes = box.input_sizes, box.output_sizes
    generators = _symmetries(box)
    values = _cell_values(box)
    cell_label, cell_firsts = _orbits(len(values), [images for _, images in generators])
    # rows: the cell orbits that hold a spanning cell, in orbit order
    kept = sorted({cell_label[c] for c in _spanning_cells(box)})
    row_of = [-1] * len(cell_firsts)
    for r, orbit in enumerate(kept):
        row_of[orbit] = r
    cell_row = [row_of[orbit] for orbit in cell_label]
    # columns: the strategies' distinct columns, in order of first appearance
    cell_strides = _cell_strides(box)
    n_rows = len(kept)
    classes: dict = {}  # column -> its index
    label = []  # each strategy's column index
    for strategy in deterministic_responses(input_sizes, output_sizes):
        column = [0] * n_rows + [1]
        for c in _strategy_cells(strategy, output_sizes, cell_strides):
            if cell_row[c] >= 0:
                column[cell_row[c]] += 1
        label.append(classes.setdefault(tuple(column), len(classes)))
    columns = list(classes)
    b = [0] * n_rows + [1]
    for c, p in enumerate(values):
        if cell_row[c] >= 0:
            b[cell_row[c]] += p

    result = solve_equality_feasibility([list(row) for row in zip(*columns)], b)
    if result.feasible:
        sizes = Counter(label)
        weights = {}
        for strategy, k in zip(deterministic_responses(input_sizes, output_sizes), label):
            if result.solution[k]:
                weights[strategy] = Fraction(result.solution[k], sizes[k])
        # the mixture's cells, in integers over the weights' common denominator
        den = lcm(*(w.denominator for w in weights.values()))
        mixture = [0] * len(values)
        for strategy, w in weights.items():
            for c in _strategy_cells(strategy, output_sizes, cell_strides):
                mixture[c] += w.numerator * (den // w.denominator)
        if mixture != [p * den for p in values]:
            raise VerificationFailed("local decomposition failed exact re-expansion")
        return LocalityVerdict(local=True, weights=weights)

    # the Farkas vector as a functional on cells, in integers over its
    # common denominator: y[row] on each cell of a kept orbit, y[-1] the constant
    y = result.farkas
    den = lcm(*(v.denominator for v in y))
    y = [v.numerator * (den // v.denominator) for v in y]
    cell_weight = [y[r] if r >= 0 else 0 for r in cell_row]
    box_value = sum((w * p for w, p in zip(cell_weight, values) if w), Fraction(y[-1]))
    best = y[-1] + max(
        sum(cell_weight[c] for c in _strategy_cells(strategy, output_sizes, cell_strides))
        for strategy in deterministic_responses(input_sizes, output_sizes)
    )
    if not box_value > 0 >= best:
        raise VerificationFailed("separating witness failed exact verification")

    # the witness in marginal coordinates, which agree with the cells on
    # every nonsignaling box
    coords = marginal_coordinates(input_sizes, output_sizes)
    coefficients = [0] * len(coords)
    constant = y[-1]
    for (x, a), (offset, terms) in cell_expressions(input_sizes, output_sizes, coords):
        weight = cell_weight[_cell_index(x, a, output_sizes, cell_strides)]
        if weight:
            constant += weight * offset
            for k, coef in terms:
                coefficients[k] += weight * coef
    return LocalityVerdict(
        local=False,
        witness={
            "kind": "linear",
            "coordinates": coords,
            "coefficients": [coef / box_value for coef in coefficients],
            "constant": constant / box_value,
            "box_value": box_value / box_value,
            "local_max": best / box_value,
        },
    )


def all_deterministic_boxes(input_sizes, output_sizes):
    """Every deterministic box of the given shape."""
    for responses in deterministic_responses(input_sizes, output_sizes):
        yield deterministic_box(input_sizes, output_sizes, responses)
