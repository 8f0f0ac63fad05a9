import itertools
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
    synthesize_nand,
)
from boxworld.compiler import (
    _x_tuples,
    affine_outcome_counts,
    cc_values,
    compile_circuit,
    compiled_distribution,
    induced_box_fast,
    nand_block,
    nand_block_branches,
    solve_cc,
    verify_simulation,
)
from boxworld.errors import DimensionMismatch, UnownedInputBit
from boxworld.wiring import STOP, WiringProtocol, induced_box


def xor_all(bits):
    acc = 0
    for b in bits:
        acc ^= b
    return acc


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
        assert induced_box(compiled.protocol) == target

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
                assert induced_box(compiled.protocol) == induced_box_fast(compiled)
                cases += 1
        assert cases >= 6

    def test_affine_equals_generic_walk(self):
        # the affine core's counts against the generic branch-tree executor,
        # on random circuits of 0..max_gates gates, small enough for the walk;
        # a gate's second operand is mostly the previous gate, so blocks chain
        rng = random.Random(9)
        shapes = [(2, 1, 4), (3, 1, 2), (2, 2, 3)]
        for n, m, max_gates in shapes:
            names = [f"b{i}" for i in range(n * m)]
            leaves = names + ["one"]
            live_gates = []
            for draw in range(2 * (max_gates + 1)):
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
                bit_map = [names[party * m:(party + 1) * m] for party in range(n)]
                compiled = compile_circuit(circuit, n, bit_map)
                walked = induced_box(compiled.protocol)
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

    def test_compiled_strategies_validate(self):
        import dataclasses

        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        circuit = synthesize_nand(tt, ["u", "v"])
        compiled = compile_circuit(circuit, 2, [["u"], ["v"]])
        assert bw.validate_protocol(compiled.protocol).ok  # prevalidated fast path
        walked = dataclasses.replace(compiled.protocol, prevalidated=False)
        assert bw.validate_protocol(walked).ok  # full branch walk agrees


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
        result = solve_cc(circuit, [["u"], ["v"]], x=(1, 1))
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

    def test_constant_zero(self):
        tt = TruthTable.from_function(2, lambda b: 0)
        circuit = synthesize_nand(tt, ["u", "v"])
        result = solve_cc(circuit, [["u"], ["v"]], x=(1, 0))
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

    def test_five_parties_skip_the_block_enumeration(self):
        # sampling needs no exact counts, so it must not pay the exhaustive
        # block check (4^n share pairs x 2^(n(n-1)) branches each)
        from boxworld import compiler

        maj = lambda b: 1 if sum(b) >= 3 else 0
        names = [f"b{i}" for i in range(5)]
        circuit = synthesize_nand(TruthTable.from_function(5, maj), names)
        bit_map = [[name] for name in names]
        compiled = compile_circuit(circuit, 5, bit_map)
        xs = list(itertools.product((0, 1), repeat=5))
        for seed, x in enumerate(xs):
            result = solve_cc(compiled, x=x, seed=seed)
            assert result.value == maj(x)
            assert result.bits_communicated == 4
        assert cc_values(circuit, 5, [bit_map], seed=2) == [maj(x) for x in _x_tuples((2,) * 5)]
        assert 5 not in compiler._kernel_checked

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
