"""Compile NAND circuits into PR-box wiring protocols.

The building block simulates one NAND gate: if the n parties hold
additive shares beta (summing to g1(x) mod 2) and gamma (summing to
g2(x) mod 2), then after consuming n(n-1) fresh PR boxes - two per
unordered pair, where in box B_ij party i inputs beta_i and party j
inputs gamma_j - each party outputs

    a_i = XOR_{j != i} (b_ij XOR c_ji) XOR beta_i*gamma_i XOR r_i,

with r_0 = 1 and r_i = 0 otherwise.  The outputs always sum to
NAND(g1(x), g2(x)) and any n-1 of them are jointly uniform.  Chaining one
block per live gate turns the parties' input bits (shared trivially: the
owner holds the bit, everyone else holds 0) into an exact simulation of
the parity-correlated box of the circuit's function.

Compiled protocols execute through one affine core: every party's output
share is an affine form over the blocks' uniform branch bits, built once
for all the input rows a call reads: whole input tables in a sweep, one
row for a single input (`_output_forms`).  A row's masks are those of its
depth along the output's chain, so they are built once per depth.  Exact
counts (`affine_outcome_counts`, `induced_box_fast`,
`compiled_distribution`) follow from GF(2) span arithmetic, one span per
depth; a sampled branch (`solve_cc`, `sample_compiled`) is one random bit
vector; and `cc_values` reads the joint constants, after checking that
the parties' masks XOR to 0 at every depth.
`wiring`'s executors (`execute_exact`, `induced_box`, `execute_sample`)
run a compiled protocol's own protocol (`compiled_owner`) through this
core, so callers never choose.  The independent references are the
generic branch-tree executor in `wiring` (the strategies below implement
its interface), reached through a copy with a fresh strategy tuple, and
the honest block enumeration `nand_block_branches`.  The core rests on
one fixed block identity (see `_output_forms`) that no input can change,
so it is checked by the tests, not per process: `tests/test_compiler.py`
compares `nand_block` with the identity for every share pair at 2 and 3
parties, and the core with the generic walk at 2 to 4 parties.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import xor
from typing import Optional, Sequence

from .boxes import Box, make_box, parity_box
from .circuits import NandCircuit, _is_gate_id, eval_circuit, gate_count, prune, row_bits, run_window, wire_bitsets
from .errors import ShapeMismatch, UnownedInputBit, VerificationFailed
from .wiring import (
    STOP,
    BoxBank,
    OutcomeDistribution,
    SharedRandomness,
    WiringProtocol,
    checked_inputs,
    induced_box,
    pr_instance,
    validate_protocol,
)


def _xor(bits) -> int:
    acc = 0
    for bit in bits:
        acc ^= bit
    return acc


def nand_block_branches(beta: Sequence[int], gamma: Sequence[int]):
    """Enumerate all PR-branch outcomes of one block.

    Yields (b, c, a) where b[i][j] and c[i][j] are the two outputs of box
    B_ij (party i's side and party j's side) and a is the output tuple.
    Branches are equally likely; b_ij XOR c_ij = beta_i*gamma_j on every
    branch.
    """
    n = len(beta)
    if len(gamma) != n:
        raise ShapeMismatch("beta and gamma must have the same length")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        b = {}
        c = {}
        for (i, j), bit in zip(pairs, bits):
            b[(i, j)] = bit
            c[(i, j)] = bit ^ (beta[i] & gamma[j])
        a = tuple(
            _xor(b[(i, j)] for j in range(n) if j != i)
            ^ _xor(c[(j, i)] for j in range(n) if j != i)
            ^ (beta[i] & gamma[i])
            ^ (1 if i == 0 else 0)
            for i in range(n)
        )
        yield b, c, a


def nand_block(beta: Sequence[int], gamma: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
    """Exact output distribution of one block for fixed share vectors."""
    n = len(beta)
    total = 2 ** (n * (n - 1))
    counts: dict[tuple[int, ...], int] = {}
    for _, _, a in nand_block_branches(beta, gamma):
        counts[a] = counts.get(a, 0) + 1
    return {a: Fraction(m, total) for a, m in counts.items()}


class CompiledPartyStrategy:
    """One party's program, exposed through the generic strategy interface.

    The move plan is static: for each gate in order, first the n-1 beta
    inputs, then the n-1 gamma inputs (partners ascending).  Shares are
    replayed deterministically from the observed history.
    """

    def __init__(self, compiled: "CompiledProtocol", party: int):
        self.compiled = compiled
        self.party = party
        n = compiled.n_parties
        others = [j for j in range(n) if j != party]
        self._moves = []
        for g_idx in range(len(compiled.circuit.gates)):
            # gate g's box (i, j), i != j, is bank instance g*n(n-1) + i(n-1) + j - [j > i]
            block = g_idx * n * (n - 1)
            self._moves += [("beta", g_idx, block + party * (n - 1) + j - (j > party)) for j in others]
            self._moves += [("gamma", g_idx, block + j * (n - 1) + party - (party > j)) for j in others]
        self._share_cache: dict = {}

    def _shares(self, x: int, history: tuple[int, ...]) -> dict[str, int]:
        """Wire shares known to this party after `history` (complete blocks only)."""
        compiled = self.compiled
        n = compiled.n_parties
        per_gate = 2 * (n - 1)
        complete = len(history) // per_gate
        prefix = tuple(history[: complete * per_gate])
        key = (x, prefix)
        cached = self._share_cache.get(key)
        if cached is not None:
            return cached
        if complete == 0:
            shares = dict(compiled.base_shares(self.party, x))
        else:
            shares = dict(self._shares(x, prefix[:-per_gate]))
            g_idx = complete - 1
            u_ref, v_ref = compiled.circuit.gates[g_idx]
            beta_i = shares[u_ref]
            gamma_i = shares[v_ref]
            chunk = prefix[g_idx * per_gate:]
            bs, cs = chunk[: n - 1], chunk[n - 1:]
            shares[f"g{g_idx}"] = (
                _xor(bs) ^ _xor(cs) ^ (beta_i & gamma_i) ^ (1 if self.party == 0 else 0)
            )
        if len(self._share_cache) > 1 << 16:  # branch-tree reuse only; keep bounded
            self._share_cache.clear()
        self._share_cache[key] = shares
        return shares

    def next_move(self, lam, x, history):
        if len(history) >= len(self._moves):
            return STOP
        phase, g_idx, inst_idx = self._moves[len(history)]
        shares = self._shares(x, tuple(history))
        u_ref, v_ref = self.compiled.circuit.gates[g_idx]
        value = shares[u_ref] if phase == "beta" else shares[v_ref]
        return ("use", inst_idx, value)

    def final_output(self, lam, x, history):
        shares = self._shares(x, tuple(history))
        out = shares[self.compiled.circuit.output]
        if self.compiled.degenerate:
            out ^= lam[self.party]
        return out


@dataclass(frozen=True, eq=False)
class CompiledProtocol:
    """A wiring protocol plus the compile-time data the affine core reads:
    the pruned circuit (gate g is wire "g{g}") and each party's input bits."""

    protocol: Optional[WiringProtocol]
    circuit: NandCircuit
    n_parties: int
    party_bit_map: tuple[tuple[str, ...], ...]

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.protocol.input_sizes

    @property
    def pr_box_count(self) -> int:
        return len(self.protocol.bank.instances)

    @property
    def degenerate(self) -> bool:  # no live gate: shared randomness re-randomizes the shares
        return not self.circuit.gates

    def owned_bits(self, party: int, x: int) -> dict[str, int]:
        """The input bits `party` owns on its input x: slot b is bit b of x."""
        return {name: (x >> slot) & 1 for slot, name in enumerate(self.party_bit_map[party])}

    def base_shares(self, party: int, x: int) -> dict[str, int]:
        """Leaf-wire shares held by `party` on its input x: the owner of an
        input bit holds it, everyone else holds 0; constants are public
        parity carried by party 0."""
        shares: dict[str, int] = {name: 0 for name in self.circuit.input_names}
        shares.update(self.owned_bits(party, x))
        for c in self.circuit.constants:
            shares[c.name] = c.value if party == 0 else 0
        return shares

    def target_box(self) -> Box:
        """The parity box the protocol simulates: the outputs' total parity
        is the circuit's value on the bits the parties own."""

        def parity_of(x):
            bits: dict[str, int] = {}
            for party, x_i in enumerate(x):
                bits.update(self.owned_bits(party, x_i))
            return eval_circuit(self.circuit, bits)

        return parity_box(self.input_sizes, parity_of)


def _check_bit_maps(circuit: NandCircuit, n_parties: int, bit_maps) -> None:
    """Check that there are at least 2 parties and that each ownership map
    has one group per party (ShapeMismatch) and owns each of the circuit's
    input bits exactly once (UnownedInputBit)."""
    if n_parties < 2:
        raise ShapeMismatch("compilation needs at least 2 parties")
    declared = sorted(circuit.input_names)  # distinct: NandCircuit refuses repeats
    for bit_map in bit_maps:
        if len(bit_map) != n_parties:
            raise ShapeMismatch(f"expected {n_parties} ownership groups, got {len(bit_map)}")
        owned = sorted(itertools.chain.from_iterable(bit_map))
        if owned != declared:
            missing = sorted(set(declared) - set(owned))
            extra = sorted(set(owned) - set(declared))
            twice = sorted({name for name in owned if owned.count(name) > 1})
            raise UnownedInputBit(f"ownership map mismatch: missing {missing}, unknown {extra}, owned twice {twice}")


def compile_circuit(circuit: NandCircuit, n_parties: int, party_bit_map: Sequence[Sequence[str]]) -> CompiledProtocol:
    """Build the wiring protocol that simulates the circuit's parity box.

    `party_bit_map[i]` lists the input-bit names owned by party i in
    little-endian slot order (slot b is bit b of x_i).  Each live gate
    consumes one fresh block of n(n-1) PR instances; input bits and
    constants consume none.  Degenerate circuits (no live gate) get their
    output shares re-randomized by uniform even-parity shared randomness so
    the induced marginals are uniform; otherwise the randomness is a
    singleton.  The protocol is validated once, here (the bank check and
    the size checks of `validate_protocol`; the executors then trust
    every protocol `compiled_owner` recognizes), and a failure raises
    VerificationFailed.
    """
    party_bit_map = tuple(tuple(names) for names in party_bit_map)
    _check_bit_maps(circuit, n_parties, [party_bit_map])
    circuit = prune(circuit)
    parties = range(n_parties)
    instances = tuple(pr_instance((i, j)) for _ in circuit.gates for i in parties for j in parties if i != j)
    if circuit.gates:
        randomness = SharedRandomness.singleton((0,) * n_parties)
    else:
        support = tuple(
            bits + (_xor(bits),) for bits in itertools.product((0, 1), repeat=n_parties - 1)
        )
        randomness = SharedRandomness.uniform(support)

    compiled = CompiledProtocol(
        protocol=None,
        circuit=circuit,
        n_parties=n_parties,
        party_bit_map=party_bit_map,
    )
    strategies = tuple(CompiledPartyStrategy(compiled, i) for i in parties)
    protocol = WiringProtocol(
        n_parties=n_parties,
        randomness=randomness,
        bank=BoxBank(instances),
        strategies=strategies,
        input_sizes=tuple(2 ** len(names) for names in party_bit_map),
        output_sizes=(2,) * n_parties,
    )
    object.__setattr__(compiled, "protocol", protocol)
    expected_boxes = gate_count(circuit) * n_parties * (n_parties - 1)
    if compiled.pr_box_count != expected_boxes:
        raise VerificationFailed(f"{compiled.pr_box_count} PR boxes compiled, expected {expected_boxes}")
    verdict = validate_protocol(protocol)
    if not verdict:
        raise VerificationFailed(f"compiled protocol failed validation: {verdict.violation}")
    return compiled


# ---------------------------------------------------------------------------
# Affine core: exact execution of compiled protocols from share forms
# ---------------------------------------------------------------------------


def _x_tuples(sizes) -> list[tuple[int, ...]]:
    """All joint inputs, party 0 varying fastest."""
    return [x[::-1] for x in itertools.product(*map(range, reversed(sizes)))]


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _row_codes(bitsets, n_rows: int) -> list[int]:
    """Scatter bitsets into per-row codes: code r holds bit r of bitsets[i]
    at bit i.

    Each bitset's binary digits become one 0/1 byte per row; eight such
    byte strings, bitset i shifted by i, add without carries into one
    integer whose bytes are the rows' codes over those eight bitsets.
    """
    codes = [0] * n_rows
    for base in range(0, len(bitsets), 8):
        acc = 0
        for i, bitset in enumerate(bitsets[base:base + 8]):
            digits = bin(bitset | 1 << n_rows)[3:].encode().translate(_BIT_BYTES)
            acc |= int.from_bytes(digits, "big") << i
        group = acc.to_bytes(n_rows, "little")
        codes = list(group) if base == 0 else [code | byte << base for code, byte in zip(codes, group)]
    return codes


def _output_forms(circuit: NandCircuit, n: int, bit_maps, blocks):
    """Affine form of every party's output share on every row of `blocks`.

    Each gate's block contributes a fresh even-parity branch vector s (the
    per-party XORs of its PR outputs; variables g*(n-1) .. g*(n-1)+n-2,
    with s_{n-1} their XOR) and, because the share-product terms cancel
    (the tests check this against `nand_block`), party i's share of the
    gate is s_i XOR u_value*gamma_i XOR r_i, where gamma_i is its share of
    the second operand.  So a gate's share form depends only on its second
    operand's form, and the output form is built along that chain alone: a
    row's mask holds the blocks of the chain's gates from the output down
    to the first gate whose first operand is 0 on that row.  A circuit without gates gets one block of
    variables for the even-parity shared randomness that re-randomizes its
    output shares.

    Wire values are row bitsets (`wire_bitsets`: bit r is the value on
    row r), so a gate costs one big-int operation for all rows.  The
    leaves cost one per block: in `_x_tuples` order, party 0 fastest, the
    column of bit `slot` of x[p] is a run pattern, run = 2^slot *
    prod(sizes[:p]) zeros then `run` ones, repeated, so a leaf's bitset
    is one `run_window` per block, built once per (run, window) in the call
    and shifted to the block's first row.  The holder of an input leaf owns
    every row of a block.

    `blocks` lists (map_idx, lo, count) triples: rows lo .. lo+count-1 of
    that map's `_x_tuples` table (the whole table in a sweep, one input in
    a single-input call).  Blocks stack in list order, so a block's first
    row is the sum of the counts before it.

    Returns (width, levels, level, consts): the joint branch vector has
    `width` uniform bits; levels[d] holds the n parties' masks over them
    at chain depth d (the blocks of chain[0..d]), level[r] is row r's
    depth and consts[i] a row bitset.  Party i outputs bit r of consts[i]
    XOR parity(levels[level[r]][i] & branch vector) on row r.  `circuit`
    must be pruned.
    """
    gates = circuit.gates
    width = (n - 1) * max(len(gates), 1)
    firsts = list(itertools.accumulate([count for _, _, count in blocks], initial=0))
    n_rows = firsts.pop()
    full = (1 << n_rows) - 1
    chain = []
    leaf = circuit.output
    while _is_gate_id(leaf):
        chain.append(int(leaf[1:]))
        leaf = gates[chain[-1]][1]

    # bit `slot` of x[p] follows the bits of parties 0..p-1 in the
    # flattened map, so its run is 2^position
    windows: dict[tuple[int, int, int], list[int]] = {}
    leaves: dict[str, int] = {}
    held = [0] * n
    for (map_idx, lo, count), first in zip(blocks, firsts):
        owned = [name for names in bit_maps[map_idx] for name in names]
        key = (len(owned), lo, count)
        if key not in windows:
            windows[key] = [run_window(1 << position, lo, count) for position in range(len(owned))]
        for name, window in zip(owned, windows[key]):
            leaves[name] = leaves.get(name, 0) | window << first
        if leaf in leaves:
            held[[leaf in names for names in bit_maps[map_idx]].index(True)] |= ((1 << count) - 1) << first
    values = wire_bitsets(circuit, leaves, n_rows)

    # leaf shares: the owner of an input bit holds it, everyone else 0;
    # constants are public parity carried by party 0
    if leaf in leaves:
        consts = [values[leaf] & rows_held for rows_held in held]
    else:
        consts = [values[leaf] if party == 0 else 0 for party in range(n)]
    for g_idx in reversed(chain):
        vu = values[gates[g_idx][0]]
        consts = [const & vu for const in consts]
        consts[0] ^= full

    # `lows` has bit g*(n-1) set for each block g held: party i < n-1
    # holds variable i of each block, party n-1 all n-1
    levels = []
    lows = 0
    for g_idx in chain or [0]:
        lows |= 1 << (g_idx * (n - 1))
        levels.append([lows << i for i in range(n - 1)] + [lows * ((1 << (n - 1)) - 1)])
    # a row stops at the first chain gate whose first operand is 0 on it
    level = [len(levels) - 1] * n_rows
    remaining = full
    for depth, g_idx in enumerate(chain[:-1]):
        vu = values[gates[g_idx][0]]
        stop = remaining & ~vu
        remaining &= vu
        while stop:
            low = stop & -stop
            level[low.bit_length() - 1] = depth
            stop ^= low
    return width, levels, level, consts


def _span_counts(n: int, width: int, levels, level, consts) -> list[list[int]]:
    """Exact outcome counts per row, out of 2^width branches.

    The joint output is c XOR M t for uniform t, so it is uniform over the
    coset c + span of M's distinct column patterns (the n-bit patterns p
    for which some branch variable appears in exactly the masks p names).
    Row r's masks are levels[level[r]], so one span serves every row of a
    depth, and one outcome table per (depth, joint constant c) holds the
    counts, filled as rows ask for them; each row copies its entry.  The
    rows' constants are scattered from the `consts` bitsets at once
    (`_row_codes`).
    """
    n_out = 1 << n
    full = (1 << width) - 1
    cosets: dict[int, list[int]] = {}
    tables: dict[int, list[int]] = {}
    out = []
    for depth, c in zip(level, _row_codes(consts, len(level))):
        key = depth << n | c
        counts = tables.get(key)
        if counts is None:
            coset = cosets.get(depth)
            if coset is None:
                span = [True] + [False] * (n_out - 1)
                for p in range(1, n_out):
                    sel = full
                    for i, mask in enumerate(levels[depth]):
                        sel &= mask if (p >> i) & 1 else full ^ mask
                    if sel:
                        span = [s or span[a ^ p] for a, s in enumerate(span)]
                weight = (1 << width) // sum(span)
                coset = cosets[depth] = [weight if s else 0 for s in span]
            counts = tables[key] = [coset[a ^ c] for a in range(n_out)]
        out.append(counts.copy())
    return out


def _compiled_forms(compiled: CompiledProtocol, x=None):
    """`_output_forms` of a compiled protocol on its whole `_x_tuples`
    table, or on the one row of joint input x: bit `slot` of x[p] sits at
    its position in the flattened map."""
    bit_map = compiled.party_bit_map
    if x is None:
        block = (0, 0, 1 << sum(map(len, bit_map)))
    else:
        offsets = itertools.accumulate(map(len, bit_map), initial=0)
        block = (0, sum(x_p << offset for x_p, offset in zip(x, offsets)), 1)
    return _output_forms(compiled.circuit, compiled.n_parties, [bit_map], [block])


def _probabilities(n: int, width: int, counts) -> dict[tuple[int, ...], Fraction]:
    """Nonzero outcome probabilities of one row of `_span_counts`."""
    return {
        tuple((a_idx >> i) & 1 for i in range(n)): Fraction(count, 1 << width)
        for a_idx, count in enumerate(counts)
        if count
    }


def _sweep_forms(circuit: NandCircuit, n_parties: int, bit_maps):
    """The affine forms of a sweep: the pruned circuit on every row of
    each ownership map's `_x_tuples` table, one whole-table block per map.
    Each map is checked as `compile_circuit` checks it."""
    _check_bit_maps(circuit, n_parties, bit_maps)
    blocks = [(map_idx, 0, 1 << sum(map(len, bit_map))) for map_idx, bit_map in enumerate(bit_maps)]
    return _output_forms(prune(circuit), n_parties, bit_maps, blocks)


def affine_outcome_counts(circuit: NandCircuit, n_parties: int, bit_maps):
    """Exact outcome counts of the compiled protocol for every ownership map
    and joint input, from the affine share forms of `_output_forms`.

    Returns (counts, denominator): counts[map_idx][x_idx][a_idx] integers,
    denominator = 2^((n-1)*k), or 2^(n-1) when no gate is live.
    """
    width, levels, level, consts = _sweep_forms(circuit, n_parties, bit_maps)
    flat = _span_counts(n_parties, width, levels, level, consts)
    counts_by_map = []
    pos = 0
    for bit_map in bit_maps:
        n_x = 2 ** sum(len(names) for names in bit_map)
        counts_by_map.append(flat[pos:pos + n_x])
        pos += n_x
    return counts_by_map, 1 << width


def cc_values(circuit: NandCircuit, n_parties: int, bit_maps, seed: int = 0) -> list:
    """Batched communication-complexity values: the XOR of the parties'
    outputs per (ownership map, joint input), the value solve_cc computes.

    Parity is linear, so the XOR of the outputs const_i XOR parity(mask_i
    & t) on row r is bit r of the XOR of the consts XOR parity(J & t),
    with J the XOR of the row's masks.  J is checked to be 0 at every
    chain depth (a nonzero one raises VerificationFailed), which proves
    that every branch gives the joint constant; so no branch is drawn and
    `seed` does not change the values.
    """
    _, levels, level, consts = _sweep_forms(circuit, n_parties, bit_maps)
    if any(functools.reduce(xor, masks) for masks in levels):
        raise VerificationFailed("the outputs' parity depends on the branch: a joint branch mask is nonzero")
    return row_bits(functools.reduce(xor, consts), len(level))


def compiled_owner(protocol: WiringProtocol) -> Optional[CompiledProtocol]:
    """The compiled protocol whose own wiring protocol this is, else None.

    A `dataclasses.replace` copy qualifies, as long as it keeps the bank,
    the randomness and the strategy tuple objects and the sizes: the affine
    forms describe the compiled bank under the compiled strategies only, so
    a protocol with any of them swapped is not one of ours.
    """
    strategies = protocol.strategies
    if not strategies or not isinstance(strategies[0], CompiledPartyStrategy):
        return None
    compiled = strategies[0].compiled
    own = compiled.protocol
    same_parts = (
        strategies is own.strategies
        and protocol.bank is own.bank
        and protocol.randomness is own.randomness
    )
    same_sizes = (protocol.n_parties, protocol.input_sizes, protocol.output_sizes) == (
        own.n_parties,
        own.input_sizes,
        own.output_sizes,
    )
    return compiled if same_parts and same_sizes else None


def sample_compiled(compiled: CompiledProtocol, x, seed: int, n_runs: int) -> dict[tuple[int, ...], int]:
    """Empirical outcome counts of n_runs seeded runs on one input tuple.

    Each run draws the joint branch vector t uniformly and party i outputs
    const_i XOR parity(mask_i & t), from forms built once for x: O(n) bit
    operations per run, whatever the gate count.
    """
    x = checked_inputs(compiled.input_sizes, x)
    width, levels, level, consts = _compiled_forms(compiled, x)
    forms = [(mask, const & 1) for mask, const in zip(levels[level[0]], consts)]
    draw = random.Random(seed).getrandbits
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(n_runs):
        t = draw(width)
        outputs = tuple([c ^ ((m & t).bit_count() & 1) for m, c in forms])
        counts[outputs] = counts.get(outputs, 0) + 1
    return counts


def compiled_distribution(compiled: CompiledProtocol, x) -> OutcomeDistribution:
    """Exact outcome distribution of a compiled protocol on one input tuple."""
    x = checked_inputs(compiled.input_sizes, x)
    width, levels, level, consts = _compiled_forms(compiled, x)
    (counts,) = _span_counts(compiled.n_parties, width, levels, level, consts)
    return OutcomeDistribution(x=x, outcomes=_probabilities(compiled.n_parties, width, counts))


def induced_box_fast(compiled: CompiledProtocol) -> Box:
    """Exact induced box of a compiled protocol from the affine share forms."""
    n = compiled.n_parties
    xs = _x_tuples(compiled.input_sizes)
    width, levels, level, consts = _compiled_forms(compiled)
    table = {
        (x, a): p
        for x, counts in zip(xs, _span_counts(n, width, levels, level, consts))
        for a, p in _probabilities(n, width, counts).items()
    }
    return make_box(n, compiled.input_sizes, (2,) * n, table, sparse=True)


@dataclass(frozen=True)
class SimulationVerdict:
    exact_match: bool
    first_difference: Optional[dict] = None

    def __bool__(self):
        return self.exact_match


def verify_simulation(protocol, target: Box) -> SimulationVerdict:
    """Exact rational comparison of a protocol's induced box against `target`.

    `protocol` is a `WiringProtocol` or a `CompiledProtocol`; `induced_box`
    picks the executor.  The shapes are compared before anything runs.
    """
    if isinstance(protocol, CompiledProtocol):
        protocol = protocol.protocol
    shape = (tuple(protocol.input_sizes), tuple(protocol.output_sizes))
    if shape != (target.input_sizes, target.output_sizes):
        raise ShapeMismatch(f"shapes differ: {shape[0]}/{shape[1]} vs {target.input_sizes}/{target.output_sizes}")
    box = induced_box(protocol)
    # sorted (x, a) order is inputs() x outputs() order: the same first difference
    for x, a in sorted(box.table.keys() | target.table.keys()):
        got, want = box.prob(x, a), target.prob(x, a)
        if got != want:
            return SimulationVerdict(False, {"x": x, "a": a, "simulated": got, "target": want})
    return SimulationVerdict(True)


@dataclass(frozen=True)
class CCResult:
    value: int
    transcript: tuple[tuple[int, int, int], ...]
    boxes_consumed: int
    bits_communicated: int


def solve_cc(compiled: CompiledProtocol, x, seed: int = 0) -> CCResult:
    """Communication-complexity run: simulate the parity box of the compiled
    circuit on input x, then parties 1..n-1 each send their single output
    bit to party 0, who XORs everything into the function value.

    One branch of the simulation is sampled (seeded, hence deterministic);
    the block parity identity makes the value equal the circuit evaluation
    on every branch, which the test suite checks exhaustively.
    """
    n = compiled.n_parties
    (outputs,) = sample_compiled(compiled, x, seed, 1)  # the one run's joint output
    return CCResult(
        value=_xor(outputs),
        transcript=tuple((i, 0, outputs[i]) for i in range(1, n)),
        boxes_consumed=compiled.pr_box_count,
        bits_communicated=n - 1,
    )
