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
per row table (`_output_forms`).  Exact counts (`affine_outcome_counts`,
`induced_box_fast`, `compiled_distribution`) follow from GF(2) span
arithmetic on those forms, and a sampled branch (`cc_values`, `solve_cc`)
is one random bit vector.  The independent references are the generic
branch-tree executor in `wiring` (the strategies below implement its
interface) and the honest block enumeration `nand_block_branches` that
`_ensure_kernel` checks the affine identity against; tests compare the
core with both.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boxes import Box, make_box
from .circuits import NandCircuit, gate_count, prune
from .errors import ShapeMismatch, UnownedInputBit
from .wiring import (
    STOP,
    BoxBank,
    OutcomeDistribution,
    SharedRandomness,
    WiringProtocol,
    checked_inputs,
    induced_box,
    pr_instance,
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


_kernel_checked: set[int] = set()


def _ensure_kernel(n: int):
    """Check, once per party count, the block identity the affine core uses.

    Honest enumeration of every PR branch of one block must give, for every
    pair of share vectors, outputs a_i = s_i XOR (sum_j beta_j)*gamma_i XOR
    r_i with s uniform over even-parity n-bit tuples: the share-product
    terms cancel and each output is affine in the branch vector.
    """
    if n in _kernel_checked:
        return
    weight = Fraction(1, 2 ** (n - 1))
    for beta in itertools.product((0, 1), repeat=n):
        for gamma in itertools.product((0, 1), repeat=n):
            beta_sum = _xor(beta)
            dets = tuple((beta_sum & gamma[i]) ^ (1 if i == 0 else 0) for i in range(n))
            expected = {}
            for s_free in itertools.product((0, 1), repeat=n - 1):
                s = s_free + (_xor(s_free),)
                expected[tuple(s[i] ^ dets[i] for i in range(n))] = weight
            if nand_block(beta, gamma) != expected:
                raise AssertionError(f"block kernel mismatch at beta={beta}, gamma={gamma}")
    _kernel_checked.add(n)


@dataclass(frozen=True)
class NandBlockLayout:
    """Bank indices of one gate's n(n-1) PR instances, keyed by ordered pair;
    instance_for[(i, j)] is where party i feeds beta_i and party j feeds gamma_j."""

    gate: str
    instance_for: dict = field(hash=False)


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
        for g_idx, layout in enumerate(compiled.layouts):
            for j in others:
                self._moves.append(("beta", g_idx, layout.instance_for[(party, j)]))
            for j in others:
                self._moves.append(("gamma", g_idx, layout.instance_for[(j, party)]))
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
            u_ref, v_ref = compiled.gate_operands[g_idx]
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

    def session(self, lam, x):
        return _CompiledSession(self, lam, x)

    def next_move(self, lam, x, history):
        if len(history) >= len(self._moves):
            return STOP
        phase, g_idx, inst_idx = self._moves[len(history)]
        shares = self._shares(x, tuple(history))
        u_ref, v_ref = self.compiled.gate_operands[g_idx]
        value = shares[u_ref] if phase == "beta" else shares[v_ref]
        return ("use", inst_idx, value)

    def final_output(self, lam, x, history):
        shares = self._shares(x, tuple(history))
        out = shares[self.compiled.circuit.output]
        if self.compiled.degenerate:
            out ^= lam[self.party]
        return out


class _CompiledSession:
    """Incremental per-run view of a compiled strategy: O(1) per move."""

    __slots__ = ("strategy", "lam", "x", "shares", "pos", "chunk")

    def __init__(self, strategy: CompiledPartyStrategy, lam, x):
        self.strategy = strategy
        self.lam = lam
        self.x = x
        self.shares = dict(strategy.compiled.base_shares(strategy.party, x))
        self.pos = 0
        self.chunk: list[int] = []

    def next_move(self):
        strategy = self.strategy
        if self.pos >= len(strategy._moves):
            return STOP
        phase, g_idx, inst_idx = strategy._moves[self.pos]
        u_ref, v_ref = strategy.compiled.gate_operands[g_idx]
        value = self.shares[u_ref] if phase == "beta" else self.shares[v_ref]
        return ("use", inst_idx, value)

    def observe(self, alpha):
        strategy = self.strategy
        compiled = strategy.compiled
        n = compiled.n_parties
        per_gate = 2 * (n - 1)
        self.chunk.append(alpha)
        self.pos += 1
        if len(self.chunk) == per_gate:
            g_idx = self.pos // per_gate - 1
            u_ref, v_ref = compiled.gate_operands[g_idx]
            bs, cs = self.chunk[: n - 1], self.chunk[n - 1:]
            value = (
                _xor(bs)
                ^ _xor(cs)
                ^ (self.shares[u_ref] & self.shares[v_ref])
                ^ (1 if strategy.party == 0 else 0)
            )
            self.shares[f"g{g_idx}"] = value
            self.chunk = []

    def final_output(self):
        out = self.shares[self.strategy.compiled.circuit.output]
        if self.strategy.compiled.degenerate:
            out ^= self.lam[self.strategy.party]
        return out


@dataclass(frozen=True, eq=False)
class CompiledProtocol:
    """A wiring protocol plus the compile-time metadata used for resource
    accounting and by the affine core."""

    protocol: Optional[WiringProtocol]
    circuit: NandCircuit
    n_parties: int
    party_bit_map: tuple[tuple[str, ...], ...]
    gate_order: tuple[str, ...]
    gate_operands: tuple[tuple[str, str], ...]
    layouts: tuple[NandBlockLayout, ...]
    pr_box_count: int
    degenerate: bool

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self.protocol.input_sizes

    def base_shares(self, party: int, x: int) -> dict[str, int]:
        """Leaf-wire shares held by `party` on its input x: the owner of an
        input bit holds it, everyone else holds 0; constants are public
        parity carried by party 0."""
        shares: dict[str, int] = {name: 0 for name in self.circuit.input_names}
        for slot, name in enumerate(self.party_bit_map[party]):
            shares[name] = (x >> slot) & 1
        for c in self.circuit.constants:
            shares[c.name] = c.value if party == 0 else 0
        return shares


def compile_circuit(circuit: NandCircuit, n_parties: int, party_bit_map: Sequence[Sequence[str]]) -> CompiledProtocol:
    """Build the wiring protocol that simulates the circuit's parity box.

    `party_bit_map[i]` lists the input-bit names owned by party i in
    little-endian slot order (slot b is bit b of x_i).  Each live gate
    consumes one fresh block of n(n-1) PR instances; input bits and
    constants consume none.  Degenerate circuits (no live gate) get their
    output shares re-randomized by uniform even-parity shared randomness so
    the induced marginals are uniform; otherwise the randomness is a
    singleton.
    """
    if n_parties < 2:
        raise ShapeMismatch("compilation needs at least 2 parties")
    circuit = prune(circuit)
    party_bit_map = tuple(tuple(names) for names in party_bit_map)
    if len(party_bit_map) != n_parties:
        raise ShapeMismatch(f"expected {n_parties} ownership groups, got {len(party_bit_map)}")
    owned = [name for names in party_bit_map for name in names]
    declared = set(circuit.input_names)
    if sorted(owned) != sorted(declared):
        missing = declared - set(owned)
        extra = set(owned) - declared
        raise UnownedInputBit(f"ownership map mismatch: missing {missing}, unknown {extra}")

    gate_order = tuple(f"g{i}" for i in range(len(circuit.gates)))
    instances = []
    layouts = []
    for g in gate_order:
        mapping = {}
        for i in range(n_parties):
            for j in range(n_parties):
                if i != j:
                    mapping[(i, j)] = len(instances)
                    instances.append(pr_instance((i, j)))
        layouts.append(NandBlockLayout(gate=g, instance_for=mapping))

    degenerate = len(gate_order) == 0
    if degenerate:
        support = tuple(
            bits + (_xor(bits),) for bits in itertools.product((0, 1), repeat=n_parties - 1)
        )
        randomness = SharedRandomness.uniform(support)
    else:
        randomness = SharedRandomness.singleton((0,) * n_parties)

    compiled = CompiledProtocol(
        protocol=None,
        circuit=circuit,
        n_parties=n_parties,
        party_bit_map=party_bit_map,
        gate_order=gate_order,
        gate_operands=tuple(circuit.gates),
        layouts=tuple(layouts),
        pr_box_count=len(instances),
        degenerate=degenerate,
    )
    strategies = tuple(CompiledPartyStrategy(compiled, i) for i in range(n_parties))
    protocol = WiringProtocol(
        n_parties=n_parties,
        randomness=randomness,
        bank=BoxBank(tuple(instances)),
        strategies=strategies,
        input_sizes=tuple(2 ** len(names) for names in party_bit_map),
        output_sizes=(2,) * n_parties,
        prevalidated=True,
    )
    object.__setattr__(compiled, "protocol", protocol)
    assert compiled.pr_box_count == gate_count(circuit) * n_parties * (n_parties - 1)
    return compiled




# ---------------------------------------------------------------------------
# Affine core: exact execution of compiled protocols from share forms
# ---------------------------------------------------------------------------


def _x_tuples(sizes) -> list[tuple[int, ...]]:
    """All joint inputs, party 0 varying fastest."""
    n_x = 1
    for s in sizes:
        n_x *= s
    out = []
    for idx in range(n_x):
        rem = idx
        t = []
        for s in sizes:
            t.append(rem % s)
            rem //= s
        out.append(tuple(t))
    return out


def _assignment(bit_map, x) -> dict[str, int]:
    """Input-bit values on joint input x (little-endian bit slots)."""
    return {
        name: (x[party] >> slot) & 1
        for party, names in enumerate(bit_map)
        for slot, name in enumerate(names)
    }


def _sweep_rows(circuit: NandCircuit, n_parties: int, bit_maps):
    """Row table for a multi-ownership sweep: one row per (map, joint input).

    Returns a list of (map_idx, x, assignment) where assignment[name] is
    the bit value of each input leaf on that row.
    """
    rows = []
    for map_idx, bit_map in enumerate(bit_maps):
        sizes = [2 ** len(names) for names in bit_map]
        for x in _x_tuples(sizes):
            rows.append((map_idx, x, _assignment(bit_map, x)))
    return rows


def _output_forms(circuit: NandCircuit, n: int, bit_maps, rows):
    """Affine form of every party's output share on every row.

    Each gate's block contributes a fresh even-parity branch vector s (the
    per-party XORs of its PR outputs; variables g*(n-1) .. g*(n-1)+n-2,
    with s_{n-1} their XOR) and, by the cancellation `_ensure_kernel`
    checks, party i's share of the gate is s_i XOR u_value*gamma_i XOR r_i,
    where gamma_i is its share of the second operand.  So a gate's share
    form depends only on its second operand's form, and the output form is
    built along that chain alone.  A circuit without gates gets one block
    of variables for the even-parity shared randomness that re-randomizes
    its output shares.

    Returns (width, masks, consts): the joint branch vector has `width`
    uniform bits, masks[i] is an object array of Python-int masks over
    them and consts[i] an int64 array of 0/1, one entry per row; party i
    outputs consts[i] XOR parity(masks[i] & branch vector).  `circuit`
    must be pruned.
    """
    gates = circuit.gates
    width = (n - 1) * max(len(gates), 1)
    values: dict[str, np.ndarray] = {}
    for b in circuit.inputs:
        values[b.name] = np.array([asg[b.name] for _, _, asg in rows], dtype=np.int64)
    for c in circuit.constants:
        values[c.name] = np.full(len(rows), c.value, dtype=np.int64)
    for g_idx, (l, r) in enumerate(gates):
        values[f"g{g_idx}"] = (values[l] & values[r]) ^ 1

    chain = []
    leaf = circuit.output
    gate_index = {f"g{i}": i for i in range(len(gates))}
    while leaf in gate_index:
        chain.append(gate_index[leaf])
        leaf = gates[gate_index[leaf]][1]

    # leaf shares: the owner of an input bit holds it, everyone else 0;
    # constants are public parity carried by party 0
    if leaf in circuit.input_names:
        owner = [
            next(p for p, names in enumerate(bit_map) if leaf in names) for bit_map in bit_maps
        ]
        holder = np.array([owner[m_idx] for m_idx, _, _ in rows], dtype=np.int64)
        consts = [np.where(holder == party, values[leaf], 0) for party in range(n)]
    else:
        consts = [values[leaf] if party == 0 else np.zeros_like(values[leaf]) for party in range(n)]
    masks = [np.zeros(len(rows), dtype=object) for _ in range(n)]

    def block_masks(block):
        low = block * (n - 1)
        return [1 << (low + i) for i in range(n - 1)] + [((1 << (n - 1)) - 1) << low]

    if not chain:
        masks = [mask | own for mask, own in zip(masks, block_masks(0))]
    for g_idx in reversed(chain):
        vu = values[gates[g_idx][0]]
        on = vu.astype(bool)
        for party, own in enumerate(block_masks(g_idx)):
            masks[party] = np.where(on, masks[party], 0) | own
            consts[party] = (consts[party] & vu) ^ (1 if party == 0 else 0)
    return width, masks, consts


def _span_counts(n: int, width: int, masks, consts) -> list[list[int]]:
    """Exact outcome counts per row, out of 2^width branches.

    The joint output is c XOR M t for uniform t, so it is uniform over the
    coset c + span of M's distinct column patterns (the n-bit patterns p
    for which some branch variable appears in exactly the masks p names).
    """
    # exact counts rest on the block identity; sampling skips the check,
    # whose cost grows as 4^n * 2^(n(n-1))
    _ensure_kernel(n)
    n_out = 1 << n
    full = (1 << width) - 1
    complements = [full ^ mask for mask in masks]
    outcomes = np.arange(n_out)
    span = np.zeros((len(consts[0]), n_out), dtype=bool)
    span[:, 0] = True
    for p in range(1, n_out):
        sel = full
        for i in range(n):
            sel = sel & (masks[i] if (p >> i) & 1 else complements[i])
        span |= (sel != 0)[:, None] & span[:, outcomes ^ p]
    c_vec = sum(consts[i] << i for i in range(n))
    hit = span[np.arange(len(c_vec))[:, None], outcomes[None, :] ^ c_vec[:, None]]
    weights = [(1 << width) // int(size) for size in span.sum(axis=1)]
    return [[w if h else 0 for h in row] for w, row in zip(weights, hit.tolist())]


def _branch_outputs(masks, consts, branches) -> list[tuple[int, ...]]:
    """Every party's output on each row, on the branch vector branches[row]."""
    per_party = [
        [c ^ ((m & t).bit_count() & 1) for m, c, t in zip(mask.tolist(), const.tolist(), branches)]
        for mask, const in zip(masks, consts)
    ]
    return list(zip(*per_party))


def _compiled_forms(compiled: CompiledProtocol, xs):
    """`_output_forms` of a compiled protocol, one row per joint input in xs."""
    rows = [(0, x, _assignment(compiled.party_bit_map, x)) for x in xs]
    return _output_forms(compiled.circuit, compiled.n_parties, [compiled.party_bit_map], rows)


def _probabilities(n: int, width: int, counts) -> dict[tuple[int, ...], Fraction]:
    """Nonzero outcome probabilities of one row of `_span_counts`."""
    return {
        tuple((a_idx >> i) & 1 for i in range(n)): Fraction(count, 1 << width)
        for a_idx, count in enumerate(counts)
        if count
    }


def affine_outcome_counts(circuit: NandCircuit, n_parties: int, bit_maps):
    """Exact outcome counts of the compiled protocol for every ownership map
    and joint input, from the affine share forms of `_output_forms`.

    Returns (counts, denominator): counts[map_idx][x_idx][a_idx] integers,
    denominator = 2^((n-1)*k), or 2^(n-1) when no gate is live.
    """
    circuit = prune(circuit)
    rows = _sweep_rows(circuit, n_parties, bit_maps)
    width, masks, consts = _output_forms(circuit, n_parties, bit_maps, rows)
    flat = _span_counts(n_parties, width, masks, consts)
    counts_by_map = []
    pos = 0
    for bit_map in bit_maps:
        n_x = 2 ** sum(len(names) for names in bit_map)
        counts_by_map.append(flat[pos:pos + n_x])
        pos += n_x
    return counts_by_map, 1 << width


def cc_values(circuit: NandCircuit, n_parties: int, bit_maps, seed: int = 0) -> list:
    """Batched communication-complexity values: one sampled protocol branch
    per (ownership map, joint input); value = XOR of the parties' outputs.

    Mirrors solve_cc over many cases at once (the parity identity makes the
    value branch-independent, which the acceptance suite checks against
    exhaustive circuit evaluation).
    """
    circuit = prune(circuit)
    rows = _sweep_rows(circuit, n_parties, bit_maps)
    width, masks, consts = _output_forms(circuit, n_parties, bit_maps, rows)
    rng = random.Random(seed)
    branches = [rng.getrandbits(width) for _ in rows]
    return [_xor(outputs) for outputs in _branch_outputs(masks, consts, branches)]


def compiled_distribution(compiled: CompiledProtocol, x) -> OutcomeDistribution:
    """Exact outcome distribution of a compiled protocol on one input tuple."""
    x = checked_inputs(compiled.input_sizes, x)
    width, masks, consts = _compiled_forms(compiled, [x])
    (counts,) = _span_counts(compiled.n_parties, width, masks, consts)
    return OutcomeDistribution(x=x, outcomes=_probabilities(compiled.n_parties, width, counts))


def induced_box_fast(compiled: CompiledProtocol) -> Box:
    """Exact induced box of a compiled protocol from the affine share forms."""
    n = compiled.n_parties
    xs = _x_tuples(compiled.input_sizes)
    width, masks, consts = _compiled_forms(compiled, xs)
    table = {
        (x, a): p
        for x, counts in zip(xs, _span_counts(n, width, masks, consts))
        for a, p in _probabilities(n, width, counts).items()
    }
    return make_box(n, compiled.input_sizes, (2,) * n, table, sparse=True)


@dataclass(frozen=True)
class SimulationVerdict:
    exact_match: bool
    first_difference: Optional[dict] = None

    def __bool__(self):
        return self.exact_match


def verify_simulation(compiled, target: Box) -> SimulationVerdict:
    """Exact rational comparison of a protocol's induced box against `target`."""
    if isinstance(compiled, CompiledProtocol):
        box = induced_box_fast(compiled)
    else:
        box = induced_box(compiled)
    if (box.input_sizes, box.output_sizes) != (target.input_sizes, target.output_sizes):
        raise ShapeMismatch(
            f"shapes differ: {box.input_sizes}/{box.output_sizes} vs "
            f"{target.input_sizes}/{target.output_sizes}"
        )
    for x in box.inputs():
        for a in box.outputs():
            got = box.prob(x, a)
            want = target.prob(x, a)
            if got != want:
                return SimulationVerdict(
                    False, {"x": x, "a": a, "simulated": got, "target": want}
                )
    return SimulationVerdict(True)


@dataclass(frozen=True)
class CCResult:
    value: int
    transcript: tuple[tuple[int, int, int], ...]
    boxes_consumed: int
    bits_communicated: int


def solve_cc(compiled_or_circuit, party_bit_map=None, x=None, seed: int = 0) -> CCResult:
    """Communication-complexity run: simulate the parity box of the circuit,
    then parties 1..n-1 each send their single output bit to party 0, who
    XORs everything into the function value.

    One branch of the simulation is sampled (seeded, hence deterministic);
    the block parity identity makes the value equal the circuit evaluation
    on every branch, which the test suite checks exhaustively.
    """
    if isinstance(compiled_or_circuit, CompiledProtocol):
        compiled = compiled_or_circuit
    else:
        compiled = compile_circuit(compiled_or_circuit, len(party_bit_map), party_bit_map)
    n = compiled.n_parties
    x = checked_inputs(compiled.input_sizes, x)
    width, masks, consts = _compiled_forms(compiled, [x])
    (outputs,) = _branch_outputs(masks, consts, [random.Random(seed).getrandbits(width)])
    return CCResult(
        value=_xor(outputs),
        transcript=tuple((i, 0, outputs[i]) for i in range(1, n)),
        boxes_consumed=compiled.pr_box_count,
        bits_communicated=n - 1,
    )
