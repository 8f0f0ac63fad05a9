import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld.circuits import (
    Constant,
    InputBit,
    NandCircuit,
    TruthTable,
    gate_count,
    prune,
    run_window,
    synthesize_nand,
)
from boxworld import compiler, wiring
from boxworld.compiler import (
    _x_tuples,
    affine_outcome_counts,
    cc_values,
    compile_circuit,
    compiled_distribution,
    compiled_owner,
    induced_box_fast,
    nand_block,
    nand_block_branches,
    solve_cc,
    verify_simulation,
)
from boxworld.errors import DimensionMismatch, ShapeMismatch, UnownedInputBit
from boxworld.wiring import STOP, WiringProtocol, induced_box


def walked_copy(protocol):
    """A copy with a fresh strategy tuple: not a compiled protocol's own
    protocol, so the executors run it through the generic branch walk."""
    return dataclasses.replace(protocol, strategies=tuple(list(protocol.strategies)))


def xor_all(bits):
    acc = 0
    for b in bits:
        acc ^= b
    return acc


def random_circuits(rng, n, m, max_gates, draws):
    """Seeded random circuits of 0..max_gates gates on n parties with m bits
    each, as (circuit, bit_map); a gate's second operand is mostly the
    previous gate, so blocks chain."""
    names = [f"b{i}" for i in range(n * m)]
    leaves = names + ["one"]
    bit_map = [names[party * m:(party + 1) * m] for party in range(n)]
    for draw in range(draws):
        k = draw % (max_gates + 1)
        gates = []
        for g in range(k):
            pool = leaves + [f"g{j}" for j in range(g)]
            right = f"g{g - 1}" if g and rng.random() < 0.7 else rng.choice(pool)
            gates.append((rng.choice(pool), right))
        circuit = NandCircuit(
            inputs=tuple(InputBit(name) for name in names),
            gates=tuple(gates),
            output=f"g{k - 1}" if k else rng.choice(leaves),
            constants=(Constant("one", 1),),
        )
        yield circuit, bit_map


def assert_within_five_sigma(counts, outcomes, n_runs, label):
    """Sampled counts against exact probabilities: no outcome outside the
    support, every count within five binomial standard errors."""
    assert set(counts) <= {a for a, p in outcomes.items() if p}, label
    for a, p in outcomes.items():
        sigma = math.sqrt(float(p) * (1 - float(p)) * n_runs)
        assert abs(counts.get(a, 0) - float(p) * n_runs) <= 5 * sigma, (label, a)


class TestNandBlock:
    def test_two_party_shares_of_one_one(self):
        # shares of g1 = 1 and g2 = 1: outputs must sum to NAND(1,1) = 0
        for _, _, a in nand_block_branches((1, 0), (1, 0)):
            assert xor_all(a) == 0

    def test_three_party_all_zero_shares(self):
        # NAND(0,0) = 1: uniform over odd-parity triples
        dist = nand_block((0, 0, 0), (0, 0, 0))
        assert set(dist) == {a for a in itertools.product((0, 1), repeat=3) if sum(a) % 2 == 1}
        assert set(dist.values()) == {Fraction(1, 4)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_parity_identity_all_share_splittings(self, n):
        for beta in itertools.product((0, 1), repeat=n):
            for gamma in itertools.product((0, 1), repeat=n):
                target = (xor_all(beta) & xor_all(gamma)) ^ 1
                for _, _, a in nand_block_branches(beta, gamma):
                    assert xor_all(a) == target

    @pytest.mark.parametrize("n", [2, 3])
    def test_per_box_identity(self, n):
        # b_ij XOR c_ij = beta_i * gamma_j on every branch
        for beta in itertools.product((0, 1), repeat=n):
            for gamma in itertools.product((0, 1), repeat=n):
                for b, c, _ in nand_block_branches(beta, gamma):
                    for i in range(n):
                        for j in range(n):
                            if i != j:
                                assert b[(i, j)] ^ c[(i, j)] == (beta[i] & gamma[j])

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_is_the_affine_core_coset(self, n):
        # the identity the affine core is built on: for every share pair the
        # honest block outputs s XOR ((sum beta)*gamma_i XOR [i = 0]) with s
        # uniform over the even-parity n-bit tuples
        even = [s + (xor_all(s),) for s in itertools.product((0, 1), repeat=n - 1)]
        for beta in itertools.product((0, 1), repeat=n):
            for gamma in itertools.product((0, 1), repeat=n):
                shift = [(xor_all(beta) & gamma[i]) ^ (i == 0) for i in range(n)]
                coset = {tuple(s[i] ^ shift[i] for i in range(n)): Fraction(1, len(even)) for s in even}
                assert nand_block(beta, gamma) == coset, (beta, gamma)

    def test_subset_uniformity(self):
        # any n-1 outputs jointly uniform
        dist = nand_block((1, 0, 1), (0, 1, 1))
        marg = {}
        for a, p in dist.items():
            marg[a[:2]] = marg.get(a[:2], Fraction(0)) + p
        assert set(marg.values()) == {Fraction(1, 4)}


class TestCompile:
    def test_single_nand_two_boxes(self):
        tt = TruthTable.from_function(2, lambda b: (b[0] & b[1]) ^ 1)
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        assert compiled.pr_box_count == 2
        target = bw.full_correlation_box(2, 1, lambda b: (b[0] & b[1]) ^ 1)
        assert verify_simulation(compiled, target)

    def test_and_equals_pr(self):
        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        assert verify_simulation(compiled, bw.pr_box())

    def test_constant_uses_no_boxes(self):
        tt = TruthTable.from_function(2, lambda b: 1)
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        assert compiled.pr_box_count == 0
        assert verify_simulation(compiled, bw.full_correlation_box(2, 1, lambda b: 1))

    def test_projection_uses_no_boxes_and_randomizes(self):
        tt = TruthTable.from_function(2, lambda b: b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        assert compiled.pr_box_count == 0
        target = bw.full_correlation_box(2, 1, lambda b: b[1])
        assert verify_simulation(compiled, target)
        # the shared-randomness re-randomization also holds through the
        # generic branch-tree executor
        assert induced_box(walked_copy(compiled.protocol)) == target

    def test_three_party_majority(self):
        maj = lambda b: 1 if sum(b) >= 2 else 0
        tt = TruthTable.from_function(3, maj)
        circuit = synthesize_nand(tt, ["a", "b", "c"])
        compiled = compile_circuit(circuit, 3, [["a"], ["b"], ["c"]])
        assert compiled.pr_box_count == gate_count(circuit) * 6
        # independent target built straight from the parity definition
        target = bw.full_correlation_box(3, 1, maj)
        assert verify_simulation(compiled, target)

    def test_unowned_input_bit(self):
        tt = TruthTable.from_function(2, lambda b: b[0] ^ b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        with pytest.raises(UnownedInputBit):
            compile_circuit(circuit, 2, [["u"], ["w"]])
        with pytest.raises(UnownedInputBit):
            compile_circuit(circuit, 2, [["u"], []])
        with pytest.raises(UnownedInputBit, match=r"owned twice \['u'\]"):
            compile_circuit(circuit, 2, [["u", "v"], ["u"]])

    def test_multi_bit_ownership(self):
        f = lambda b: (b[0] & b[2]) ^ b[1] ^ b[3]
        tt = TruthTable.from_function(4, f)
        circuit = synthesize_nand(tt, ["p0", "p1", "q0", "q1"])
        compiled = compile_circuit(circuit, 2, [["p0", "p1"], ["q0", "q1"]])
        # ownership order: party 0 holds bits (p0, p1) as slots (0, 1)
        def f_owned(bits):
            return f((bits[0], bits[1], bits[2], bits[3]))

        target = bw.full_correlation_box(2, 2, f_owned)
        assert verify_simulation(compiled, target)


class TestExecutorAgreement:
    def test_fast_equals_reference_small_circuits(self):
        rng = random.Random(5)
        cases = 0
        for n in (2, 3):
            for _ in range(12):
                tt = TruthTable.from_int(n, rng.randrange(2 ** (2 ** n)))
                circuit = synthesize_nand(tt, [f"b{i}" for i in range(n)])
                if gate_count(circuit) > 2:
                    continue
                bit_map = [[f"b{i}"] for i in range(n)]
                compiled = compile_circuit(circuit, n, bit_map)
                assert induced_box(walked_copy(compiled.protocol)) == induced_box_fast(compiled)
                cases += 1
        assert cases >= 6

    def test_affine_equals_generic_walk(self):
        # the affine core's counts against the generic branch-tree executor,
        # on random circuits of 0..max_gates gates, small enough for the walk;
        # a gate's second operand is mostly the previous gate, so blocks chain
        rng = random.Random(9)
        shapes = [(2, 1, 4), (3, 1, 2), (2, 2, 3)]
        for n, m, max_gates in shapes:
            live_gates = []
            for circuit, bit_map in random_circuits(rng, n, m, max_gates, 2 * (max_gates + 1)):
                compiled = compile_circuit(circuit, n, bit_map)
                walked = induced_box(walked_copy(compiled.protocol))
                (counts,), denominator = affine_outcome_counts(circuit, n, [bit_map])
                for x_idx, x in enumerate(_x_tuples(compiled.input_sizes)):
                    for a_idx in range(2 ** n):
                        a = tuple((a_idx >> i) & 1 for i in range(n))
                        assert Fraction(counts[x_idx][a_idx], denominator) == walked.prob(x, a)
                    assert compiled_distribution(compiled, x).outcomes == {
                        a: p for (xx, a), p in walked.table.items() if xx == x and p != 0
                    }
                live_gates.append(gate_count(circuit))
            assert max(live_gates) >= 2, (n, m, live_gates)

    @pytest.mark.parametrize(
        "gate, bit_map",
        [
            (("u", "v"), [["u"], ["v"], [], []]),
            (("u", "v"), [[], ["u"], [], ["v"]]),
            (("v", "one"), [[], [], ["u", "v"], []]),
        ],
    )
    def test_four_party_affine_equals_generic_walk(self, gate, bit_map):
        # one block of 12 PR boxes, 2^12 branches per input for the walk;
        # the first operand is 0 on some input, where it gates the output
        circuit = NandCircuit(
            inputs=(InputBit("u"), InputBit("v")),
            gates=(gate,),
            output="g0",
            constants=(Constant("one", 1),),
        )
        compiled = compile_circuit(circuit, 4, bit_map)
        assert compiled.pr_box_count == 12
        assert induced_box(compiled.protocol) == induced_box(walked_copy(compiled.protocol))

    def test_affine_sampler_equals_replay_walk(self):
        # execute_sample on a compiled protocol draws from the affine forms;
        # the reference is the generic walk over the strategies' own
        # next_move / final_output, one draw per box side
        rng = random.Random(13)
        n_runs = 2000
        gate_counts = []
        for n, m, max_gates in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
            for circuit, bit_map in random_circuits(rng, n, m, max_gates, max_gates + 1):
                compiled = compile_circuit(circuit, n, bit_map)
                x = tuple(rng.randrange(size) for size in compiled.input_sizes)
                seed = rng.randrange(2**31)
                label = (n, m, circuit.gates, x)
                exact = compiled_distribution(compiled, x).outcomes
                sampled = bw.execute_sample(compiled.protocol, x, seed=seed, n_runs=n_runs)
                assert_within_five_sigma(sampled, exact, n_runs, label)
                copy = dataclasses.replace(compiled.protocol)
                assert bw.execute_sample(copy, x, seed=seed, n_runs=n_runs) == sampled
                replayed = wiring._sample_walk(compiled.protocol, x, seed, n_runs)
                assert_within_five_sigma(replayed, exact, n_runs, label)
                for a, p in exact.items():
                    sigma = math.sqrt(2 * float(p) * (1 - float(p)) * n_runs)
                    assert abs(sampled.get(a, 0) - replayed.get(a, 0)) <= 5 * sigma, (label, a)
                gate_counts.append(gate_count(circuit))
        assert 0 in gate_counts and max(gate_counts) >= 2

    def test_swapped_parts_take_the_generic_sampler(self):
        # only a compiled protocol's own parts may be sampled from its forms
        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        compiled = compile_circuit(synthesize_nand(tt, ["u", "v"]), 2, [["u"], ["v"]])
        own = compiled.protocol
        noise = bw.uniform_box((2, 2), (2, 2))
        noisy_bank = bw.BoxBank(tuple(bw.BoxInstance(noise, inst.owners) for inst in own.bank.instances))
        projection = synthesize_nand(TruthTable.from_function(2, lambda b: b[0]), ["u", "v"])
        gateless = compile_circuit(projection, 2, [["u"], ["v"]])
        assert gateless.degenerate
        fixed_lam = dataclasses.replace(gateless.protocol, randomness=bw.SharedRandomness.singleton((0, 0)))
        assert compiled_owner(dataclasses.replace(own)) is compiled
        assert compiled_owner(dataclasses.replace(own, strategies=tuple(list(own.strategies)))) is None
        assert compiled_owner(dataclasses.replace(own, input_sizes=(2, 1))) is None
        n_runs = 2000
        for source, proto in ((compiled, dataclasses.replace(own, bank=noisy_bank)), (gateless, fixed_lam)):
            assert compiled_owner(proto) is None
            for x in _x_tuples(proto.input_sizes):
                exact = bw.execute_exact(proto, x).outcomes
                assert exact != compiled_distribution(source, x).outcomes
                counts = bw.execute_sample(proto, x, seed=sum(x), n_runs=n_runs)
                assert_within_five_sigma(counts, exact, n_runs, x)

    def test_compiled_strategies_validate(self):
        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        assert bw.validate_protocol(compiled.protocol).ok  # the compiler's own protocol: no walk
        assert bw.validate_protocol(walked_copy(compiled.protocol)).ok  # full branch walk agrees


class TestExecutorChoice:
    """wiring's executors, not their callers, pick the affine core."""

    @staticmethod
    def majority3():
        maj = lambda b: 1 if sum(b) >= 2 else 0
        circuit = synthesize_nand(TruthTable.from_function(3, maj), ["a", "b", "c"])
        return compile_circuit(circuit, 3, [["a"], ["b"], ["c"]]), bw.full_correlation_box(3, 1, maj)

    @staticmethod
    def forbid(monkeypatch, module, name):
        def refuse(*args, **kwargs):
            raise RuntimeError(f"{name} was called")

        monkeypatch.setattr(module, name, refuse)

    def test_compiled_protocols_never_walk(self, monkeypatch):
        # 54 PR boxes: the walk would take 2^54 branches per input
        compiled, target = self.majority3()
        assert compiled.pr_box_count == 54
        self.forbid(monkeypatch, wiring, "_walk")
        # compile_circuit validated the protocol; the executors check nothing again
        check_bank = wiring._check_bank
        self.forbid(monkeypatch, wiring, "_check_bank")
        for proto in (compiled.protocol, dataclasses.replace(compiled.protocol)):
            assert induced_box(proto) == target
            for x in target.inputs():
                expected = {a: target.prob(x, a) for a in target.outputs() if target.prob(x, a)}
                assert bw.execute_exact(proto, x).outcomes == expected
                assert set(bw.execute_sample(proto, x, seed=1, n_runs=20)) <= set(expected)
        monkeypatch.setattr(wiring, "_check_bank", check_bank)
        fresh = walked_copy(compiled.protocol)
        with pytest.raises(RuntimeError, match="_walk was called"):
            bw.execute_exact(fresh, (0, 0, 0))
        with pytest.raises(RuntimeError, match="_walk was called"):
            induced_box(fresh)

    def test_verify_simulation_checks_shapes_before_executing(self, monkeypatch):
        compiled, _ = self.majority3()
        self.forbid(monkeypatch, wiring, "_walk")
        self.forbid(monkeypatch, compiler, "induced_box")
        self.forbid(monkeypatch, compiler, "induced_box_fast")
        for proto in (compiled, compiled.protocol, walked_copy(compiled.protocol)):
            with pytest.raises(ShapeMismatch, match=r"^shapes differ: \(2, 2, 2\)/\(2, 2, 2\) vs \(2, 2\)/\(2, 2\)$"):
                verify_simulation(proto, bw.pr_box())


def ownership_splits(n, m):
    """Every way to hand each party m of the n*m input bits (ascending slots)."""
    names = [f"b{i}" for i in range(n * m)]
    splits = []
    for perm in itertools.permutations(range(n * m)):
        split = [[names[i] for i in sorted(perm[p * m:(p + 1) * m])] for p in range(n)]
        if split not in splits:
            splits.append(split)
    return splits


def owned_values(table, n, m, split):
    """f on every joint input, read from the truth table through the split."""
    places = [(p, slot, int(name[1:])) for p, group in enumerate(split) for slot, name in enumerate(group)]
    return [
        table.bits[sum(((x[p] >> slot) & 1) << row_bit for p, slot, row_bit in places)]
        for x in _x_tuples((2 ** m,) * n)
    ]


class TestAffineCoreAgainstParity:
    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (2, 2)])
    def test_counts_and_cc_values_equal_parity_tables(self, n, m):
        # every 1-bit function of 2 and 3 parties and seeded 2-party 2-bit
        # tables, over every ownership split
        names = [f"b{i}" for i in range(n * m)]
        splits = ownership_splits(n, m)
        n_tables = 2 ** (2 ** (n * m))
        tables = range(n_tables) if n * m <= 3 else random.Random(21).sample(range(n_tables), 8)
        for mask in tables:
            table = TruthTable.from_int(n * m, mask)
            circuit = synthesize_nand(table, names)
            counts, denominator = affine_outcome_counts(circuit, n, splits)
            assert denominator == 2 ** ((n - 1) * max(gate_count(circuit), 1)), mask
            weight = denominator >> (n - 1)
            f_rows = [owned_values(table, n, m, split) for split in splits]
            # the parity box: weight on every output tuple of parity f(x)
            parities = [xor_all((a >> i) & 1 for i in range(n)) for a in range(2 ** n)]
            want = [[[weight if parity == f else 0 for parity in parities] for f in row] for row in f_rows]
            assert counts == want, (n, m, mask)
            assert cc_values(circuit, n, splits, seed=mask) == [f for row in f_rows for f in row], (n, m, mask)

    def test_repeated_calls_leave_no_module_level_growth(self):
        # the affine core keeps its tables per call, none in the module
        circuit = synthesize_nand(TruthTable.from_int(3, 0b11101000), ["b0", "b1", "b2"])
        splits = ownership_splits(3, 1)
        affine_outcome_counts(circuit, 3, splits)

        def sizes():
            return {
                name: len(value)
                for name, value in vars(compiler).items()
                if not name.startswith("__") and isinstance(value, (dict, set, list))
            }

        before = sizes()
        for seed in range(50):
            table = TruthTable.from_int(3, random.Random(seed).randrange(256))
            other = synthesize_nand(table, ["b0", "b1", "b2"])
            affine_outcome_counts(other, 3, splits)
            cc_values(other, 3, splits, seed=seed)
        assert sizes() == before

    def test_rows_with_equal_masks_share_a_span(self):
        # 3-party majority over every split: some rows share their mask
        # tuple, others do not; counts per row must not depend on which
        # rows were computed together
        majority = TruthTable.from_function(3, lambda b: int(sum(b) >= 2))
        circuit = prune(synthesize_nand(majority, ["b0", "b1", "b2"]))
        splits = ownership_splits(3, 1)
        blocks = whole_tables(splits)
        rows = table_rows(splits, blocks)
        width, masks, consts = compiler._output_forms(circuit, 3, splits, blocks)
        assert len(masks[0]) == len(rows)
        assert 1 < len(set(zip(*masks))) < len(rows)
        one_at_a_time = [
            compiler._span_counts(3, width, [[mask[r]] for mask in masks], [(c >> r) & 1 for c in consts])[0]
            for r in range(len(rows))
        ]
        assert compiler._span_counts(3, width, masks, consts) == one_at_a_time


def whole_tables(bit_maps):
    """One block per map covering its whole `_x_tuples` table, as a sweep passes them."""
    return [(map_idx, 0, 2 ** sum(map(len, bit_map))) for map_idx, bit_map in enumerate(bit_maps)]


def table_rows(bit_maps, blocks):
    """The (map_idx, x) rows of `blocks`, read from each map's `_x_tuples` table."""
    rows = []
    for map_idx, lo, count in blocks:
        sizes = tuple(2 ** len(names) for names in bit_maps[map_idx])
        rows += [(map_idx, x) for x in _x_tuples(sizes)[lo:lo + count]]
    return rows


def per_row_leaf(bit_maps, rows, name):
    """The per-row leaf extraction: bit r is the owned bit `name` on row r,
    one list entry per row, read as a binary string."""
    bits = []
    for map_idx, x in rows:
        (party, slot), = [(p, names.index(name)) for p, names in enumerate(bit_maps[map_idx]) if name in names]
        bits.append((x[party] >> slot) & 1)
    return int("".join(map(str, reversed(bits))) or "0", 2)


def per_row_forms(circuit, n, bit_map, x):
    """One row's affine forms, gate by gate from its evaluated wires:
    (each party's constant bit, each party's mask)."""
    owned = {name: (p, (x[p] >> slot) & 1) for p, names in enumerate(bit_map) for slot, name in enumerate(names)}
    values = {name: bit for name, (_, bit) in owned.items()}
    values.update({c.name: c.value for c in circuit.constants})
    for g, (left, right) in enumerate(circuit.gates):
        values[f"g{g}"] = 1 ^ (values[left] & values[right])
    chain = []
    leaf = circuit.output
    while leaf.startswith("g") and leaf[1:].isdigit():
        chain.append(int(leaf[1:]))
        leaf = circuit.gates[chain[-1]][1]
    holder = owned[leaf][0] if leaf in owned else 0
    consts = [values[leaf] if party == holder else 0 for party in range(n)]
    for g in reversed(chain):
        u = values[circuit.gates[g][0]]
        consts = [(c & u) ^ (party == 0) for party, c in enumerate(consts)]
    masks = [0] * n
    for g in chain or [0]:
        low = g * (n - 1)
        for party in range(n - 1):
            masks[party] |= 1 << (low + party)
        masks[n - 1] |= ((1 << (n - 1)) - 1) << low
        if chain and values[circuit.gates[g][0]] == 0:
            break  # the lower blocks drop out of this row's shares
    return consts, masks


class TestRunPatternForms:
    """The forms of a sweep, built from run-pattern leaf columns and
    scattered row codes, against a per-row reference."""

    @staticmethod
    def check_forms(circuit, n, splits, blocks):
        """`_output_forms` on every row of `blocks` against `per_row_forms`;
        returns the rows and the forms."""
        rows = table_rows(splits, blocks)
        width, masks, consts = compiler._output_forms(circuit, n, splits, blocks)
        assert width == (n - 1) * max(len(circuit.gates), 1)
        assert len(masks[0]) == len(rows)
        for r, (map_idx, x) in enumerate(rows):
            want_consts, want_masks = per_row_forms(circuit, n, splits[map_idx], x)
            assert [(c >> r) & 1 for c in consts] == want_consts, (r, x)
            assert [mask[r] for mask in masks] == want_masks, (r, x)
        return rows, masks, consts

    def check_sweep(self, circuit, n, splits):
        circuit = prune(circuit)
        blocks = whole_tables(splits)
        # a circuit whose output is an input leaf shows that leaf's bitset,
        # each row's bit held by the leaf's owner alone
        for name in circuit.input_names:
            leaf_only = NandCircuit(inputs=circuit.inputs, gates=(), output=name)
            rows, _, consts = self.check_forms(leaf_only, n, splits, blocks)
            assert len(rows) == len(splits) * 2 ** len(circuit.inputs)
            assert sum(consts) == per_row_leaf(splits, rows, name), name
        self.check_forms(circuit, n, splits, blocks)

    def test_partial_unaligned_blocks_equal_whole_table_rows(self):
        # blocks that start inside a table and stop short of its end, over
        # maps of different sizes, out of map order: each block's rows are
        # the matching rows of the whole-table forms
        names = [f"b{i}" for i in range(6)]
        uneven = [[["b0"], ["b1", "b2"], ["b3", "b4", "b5"]], [["b5", "b3", "b1", "b0"], ["b2"], ["b4"]]]
        bit_maps = ownership_splits(3, 2)[:3] + uneven
        blocks = [(0, 3, 5), (2, 7, 6), (4, 1, 30), (3, 0, 1), (1, 63, 1), (2, 60, 4)]
        whole = whole_tables(bit_maps)
        starts = [sum(count for _, _, count in whole[:map_idx]) for map_idx in range(len(bit_maps))]
        picked = [starts[map_idx] + lo + j for map_idx, lo, count in blocks for j in range(count)]
        rng = random.Random(43)
        circuits = [prune(synthesize_nand(TruthTable.from_int(6, rng.getrandbits(64)), names)) for _ in range(3)]
        circuits += [prune(circuit) for circuit, _ in random_circuits(rng, 3, 2, 6, 7)]
        for circuit in circuits:
            _, part_masks, part_consts = self.check_forms(circuit, 3, bit_maps, blocks)
            _, masks, consts = compiler._output_forms(circuit, 3, bit_maps, whole)
            for r, row in enumerate(picked):
                assert [mask[r] for mask in part_masks] == [mask[row] for mask in masks], r
                assert [(c >> r) & 1 for c in part_consts] == [(c >> row) & 1 for c in consts], r
            assert all(c >> len(picked) == 0 for c in part_consts)

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (2, 2)])
    def test_every_split_equals_per_row_reference(self, n, m):
        names = [f"b{i}" for i in range(n * m)]
        splits = ownership_splits(n, m)
        n_tables = 2 ** (2 ** (n * m))
        for mask in range(n_tables) if n * m <= 3 else random.Random(23).sample(range(n_tables), 12):
            self.check_sweep(synthesize_nand(TruthTable.from_int(n * m, mask), names), n, splits)
        for circuit, _ in random_circuits(random.Random(29), n, m, 5, 12):
            self.check_sweep(circuit, n, splits)

    def test_seeded_three_party_two_bit_tables(self):
        names = [f"b{i}" for i in range(6)]
        splits = ownership_splits(3, 2)
        rng = random.Random(31)
        for _ in range(3):
            self.check_sweep(synthesize_nand(TruthTable.from_int(6, rng.getrandbits(64)), names), 3, splits)

    def test_long_chain(self):
        # 300 chained gates: masks over 300 blocks, row levels past 255
        gates = [("b0", "b1")] + [("b0" if g % 3 else "b1", f"g{g - 1}") for g in range(1, 300)]
        circuit = NandCircuit(inputs=(InputBit("b0"), InputBit("b1")), gates=tuple(gates), output="g299")
        self.check_sweep(circuit, 2, ownership_splits(2, 1))

    def test_run_windows_and_row_codes(self):
        for run in (1, 2, 3, 4, 8):
            for lo in range(20):
                for length in range(20):
                    want = sum((((lo + j) // run) & 1) << j for j in range(length))
                    assert run_window(run, lo, length) == want, (run, lo, length)
        # more than eight bitsets (parties) scatter in groups of eight
        rng = random.Random(37)
        for n_bitsets in (0, 1, 8, 9, 17):
            n_rows = rng.randrange(1, 40)
            bitsets = [rng.getrandbits(n_rows) for _ in range(n_bitsets)]
            want = [sum(((b >> r) & 1) << i for i, b in enumerate(bitsets)) for r in range(n_rows)]
            assert compiler._row_codes(bitsets, n_rows) == want

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    def test_single_input_forms_equal_induced_box_rows(self, n, m):
        # compiled_distribution builds one row at the input's table index;
        # induced_box_fast builds the whole table at once
        names = [f"b{i}" for i in range(n * m)]
        split = [names[p * m:(p + 1) * m] for p in range(n)][::-1]
        rng = random.Random(41 + n * m)
        for _ in range(4):
            circuit = synthesize_nand(TruthTable.from_int(n * m, rng.getrandbits(2 ** (n * m))), names)
            compiled = compile_circuit(circuit, n, split)
            box = induced_box_fast(compiled)
            for x in _x_tuples(compiled.input_sizes):
                row = {a: p for (xx, a), p in box.table.items() if xx == x and p}
                assert compiled_distribution(compiled, x).outcomes == row, (n, m, x)


def test_verify_simulation_reports_first_difference():
    tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
    circuit = synthesize_nand(tt, ["u", "v"])
    compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
    wrong_target = bw.full_correlation_box(2, 1, lambda b: (b[0] & b[1]) ^ 1)
    verdict = verify_simulation(compiled, wrong_target)
    assert not verdict.exact_match
    assert verdict.first_difference["simulated"] != verdict.first_difference["target"]


def test_corrupted_final_output_detected():
    # flip one party's extra parity bit: every distribution's parity flips
    tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
    circuit = synthesize_nand(tt, ["u", "v"])
    compiled = compile_circuit(circuit, 2, [["u"], ["v"]])

    class Corrupted:
        def __init__(self, inner):
            self.inner = inner
            self.party = inner.party

        def next_move(self, lam, x, history):
            return self.inner.next_move(lam, x, history)

        def final_output(self, lam, x, history):
            return self.inner.final_output(lam, x, history) ^ 1

    base = compiled.protocol
    corrupted = WiringProtocol(
        n_parties=base.n_parties,
        randomness=base.randomness,
        bank=base.bank,
        strategies=(Corrupted(base.strategies[0]), base.strategies[1]),
        input_sizes=base.input_sizes,
        output_sizes=base.output_sizes,
    )
    target = bw.pr_box()
    box = induced_box(corrupted)
    diffs = [
        (x, a)
        for x in box.inputs()
        for a in box.outputs()
        if box.prob(x, a) != target.prob(x, a)
    ]
    assert diffs


class TestSolveCC:
    def test_and_at_one_one(self):
        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        result = solve_cc(compile_circuit(circuit, 2, [["u"], ["v"]]), (1, 1))
        assert result.value == 1
        assert result.bits_communicated == 1
        assert result.boxes_consumed == gate_count(circuit) * 2
        assert len(result.transcript) == 1
        assert result.transcript[0][1] == 0  # sent to party 0

    def test_majority_all_inputs(self):
        maj = lambda b: 1 if sum(b) >= 2 else 0
        tt = TruthTable.from_function(3, maj)
        circuit = synthesize_nand(tt, ["a", "b", "c"])
        compiled = compile_circuit(circuit, 3, [["a"], ["b"], ["c"]])
        for seed, x in enumerate(itertools.product((0, 1), repeat=3)):
            result = solve_cc(compiled, x=x, seed=seed)
            assert result.value == maj(x)
            assert result.bits_communicated == 2

    def test_seeded_branches_are_golden(self):
        # recorded with the numpy affine core: which branch a seed draws,
        # and which outputs a branch gives, must not change.  The counts and
        # cc values do not see the mask gating (an extra block only adds
        # patterns already in the span); these outputs do.
        maj = TruthTable.from_function(3, lambda b: int(sum(b) >= 2))
        compiled = compile_circuit(synthesize_nand(maj, ["b0", "b1", "b2"]), 3, [["b0"], ["b1"], ["b2"]])
        sent = [
            tuple(bit for _, _, bit in solve_cc(compiled, x=x, seed=seed).transcript)
            for seed, x in enumerate(_x_tuples((2, 2, 2)))
        ]
        assert sent == [(1, 1), (1, 1), (0, 0), (0, 0), (1, 0), (1, 1), (1, 0), (0, 1)]
        counts = [compiler.sample_compiled(compiled, x, 5, 40) for x in [(1, 1, 0), (0, 1, 1)]]
        assert counts == [
            {(0, 0, 1): 10, (0, 1, 0): 11, (1, 0, 0): 12, (1, 1, 1): 7},
            {(0, 0, 1): 8, (0, 1, 0): 11, (1, 0, 0): 11, (1, 1, 1): 10},
        ]

    def test_constant_zero(self):
        tt = TruthTable.from_function(2, lambda b: 0)
        circuit = synthesize_nand(tt, ["u", "v"])
        result = solve_cc(compile_circuit(circuit, 2, [["u"], ["v"]]), (1, 0))
        assert result.value == 0
        assert result.boxes_consumed == 0
        assert result.bits_communicated == 1

    def test_batched_cc_matches_eval(self):
        rng = random.Random(3)
        for _ in range(10):
            tt = TruthTable.from_int(4, rng.randrange(2 ** 16))
            circuit = synthesize_nand(tt, [f"b{i}" for i in range(4)])
            bit_maps = [[["b0", "b1"], ["b2", "b3"]], [["b0", "b2"], ["b1", "b3"]]]
            values = cc_values(circuit, 2, bit_maps, seed=1)
            idx = 0
            for bm in bit_maps:
                for x_idx in range(16):
                    x = (x_idx % 4, x_idx // 4)
                    assignment = {}
                    for party, names in enumerate(bm):
                        for slot, name in enumerate(names):
                            assignment[name] = (x[party] >> slot) & 1
                    expected = tt.value(tuple(assignment[f"b{i}"] for i in range(4)))
                    assert values[idx] == expected
                    idx += 1

    def test_sampled_outputs_always_satisfy_parity(self):
        # every sampled branch has outputs of parity f(x); the output sent
        # by party 1 is a fresh uniform bit, so the seeds reach both values
        tt = TruthTable.from_function(2, lambda b: b[0] ^ b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        for x in itertools.product((0, 1), repeat=2):
            sent = set()
            for seed in range(20):
                result = solve_cc(compiled, x=x, seed=seed)
                assert result.value == (x[0] ^ x[1])
                sent.add(result.transcript[0][2])
            assert sent == {0, 1}

    def test_more_than_62_branch_variables(self):
        # 3 parties, 2 bits each: (n-1)*k is far above one machine word
        rng = random.Random(17)
        tt = TruthTable.from_int(6, rng.getrandbits(64))
        names = [f"b{i}" for i in range(6)]
        circuit = synthesize_nand(tt, names)
        k = gate_count(circuit)
        assert 2 * k > 62
        bit_map = [names[0:2], names[2:4], names[4:6]]
        compiled = compile_circuit(circuit, 3, bit_map)
        target = bw.full_correlation_box(3, 2, tt)
        (counts,), denominator = affine_outcome_counts(circuit, 3, [bit_map])
        assert denominator == 2 ** (2 * k)
        assert induced_box_fast(compiled) == target
        for x_idx, x in enumerate(_x_tuples(compiled.input_sizes)):
            for a_idx in range(8):
                a = tuple((a_idx >> i) & 1 for i in range(3))
                assert Fraction(counts[x_idx][a_idx], denominator) == target.prob(x, a)
            bits = tuple((x[party] >> slot) & 1 for party in range(3) for slot in range(2))
            assert solve_cc(compiled, x=x, seed=x_idx).value == tt.value(bits)

    def test_four_and_five_party_majority_sampled(self):
        for n in (4, 5):
            maj = lambda b: 1 if 2 * sum(b) > n else 0
            names = [f"b{i}" for i in range(n)]
            circuit = synthesize_nand(TruthTable.from_function(n, maj), names)
            bit_map = [[name] for name in names]
            compiled = compile_circuit(circuit, n, bit_map)
            xs = list(itertools.product((0, 1), repeat=n))
            for seed, x in enumerate(xs):
                result = solve_cc(compiled, x=x, seed=seed)
                assert result.value == maj(x)
                assert result.bits_communicated == n - 1
            assert cc_values(circuit, n, [bit_map], seed=2) == [maj(x) for x in _x_tuples((2,) * n)]
            for x in xs[::5]:
                counts = bw.execute_sample(compiled.protocol, x, seed=sum(x), n_runs=200)
                assert sum(counts.values()) == 200
                assert all(xor_all(a) == maj(x) for a in counts)

    def test_four_and_five_party_majority_exact(self):
        # 15 and 24 gates, 180 and 480 PR boxes: the exact paths at n = 4, 5
        for n, boxes in ((4, 180), (5, 480)):
            maj = lambda b: 1 if 2 * sum(b) > n else 0
            names = [f"b{i}" for i in range(n)]
            circuit = synthesize_nand(TruthTable.from_function(n, maj), names)
            compiled = compile_circuit(circuit, n, [[name] for name in names])
            assert compiled.pr_box_count == boxes
            target = bw.full_correlation_box(n, 1, maj)
            assert induced_box(compiled.protocol) == target
            for x in target.inputs():
                expected = {a: target.prob(x, a) for a in target.outputs() if target.prob(x, a)}
                assert bw.execute_exact(compiled.protocol, x).outcomes == expected

    def test_out_of_range_inputs_rejected(self):
        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        for x in [(2, 0), (0, -1), (0,), (0, 0, 0)]:
            with pytest.raises(DimensionMismatch):
                solve_cc(compiled, x=x)
            with pytest.raises(DimensionMismatch):
                compiled_distribution(compiled, x)
            with pytest.raises(DimensionMismatch):
                bw.execute_exact(compiled.protocol, x)
            with pytest.raises(DimensionMismatch):
                bw.execute_sample(compiled.protocol, x, seed=0, n_runs=1)
