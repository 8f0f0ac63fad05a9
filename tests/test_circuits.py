import itertools
import json
import random
import re

import pytest

import boxworld as bw
from boxworld.circuits import (
    Constant,
    InputBit,
    NandCircuit,
    TruthTable,
    all_truth_tables,
    eval_circuit,
    format_netlist,
    gate_count,
    parse_netlist,
    prune,
    synthesize_nand,
    truth_table,
)
from boxworld.errors import DimensionMismatch, MissingAssignment, TooLarge


def single_nand():
    return NandCircuit(
        inputs=(InputBit("x"), InputBit("y")),
        gates=(("x", "y"),),
        output="g0",
    )


def or_from_nand():
    # OR(x, y) = NAND(NAND(x,x), NAND(y,y))
    return NandCircuit(
        inputs=(InputBit("x"), InputBit("y")),
        gates=(("x", "x"), ("y", "y"), ("g0", "g1")),
        output="g2",
    )


def test_eval_nand_gate():
    c = single_nand()
    assert eval_circuit(c, (0, 0)) == 1
    assert eval_circuit(c, (1, 1)) == 0
    assert eval_circuit(c, (0, 1)) == 1
    assert eval_circuit(c, (1, 0)) == 1


def test_eval_or_circuit_all_assignments():
    c = or_from_nand()
    for x, y in itertools.product((0, 1), repeat=2):
        assert eval_circuit(c, (x, y)) == (x | y)


def test_eval_missing_assignment():
    c = single_nand()
    with pytest.raises(MissingAssignment):
        eval_circuit(c, {"x": 1})
    with pytest.raises(MissingAssignment):
        eval_circuit(c, (1,))


def test_gate_counts():
    assert gate_count(single_nand()) == 1
    assert gate_count(or_from_nand()) == 3


def test_prune_removes_dead_gates():
    c = NandCircuit(
        inputs=(InputBit("x"), InputBit("y")),
        gates=(("x", "y"), ("x", "x"), ("g0", "g0")),
        output="g0",
    )
    pruned = prune(c)
    assert gate_count(pruned) == 1
    assert truth_table(pruned) == truth_table(single_nand())


def test_truth_table_of_nand():
    assert truth_table(single_nand()).bits == (1, 1, 1, 0)


def test_truth_table_identity_wire():
    c = NandCircuit(inputs=(InputBit("x"),), gates=(), output="x")
    assert truth_table(c).bits == (0, 1)


def test_truth_table_equals_per_assignment_eval():
    # the bit-parallel table against eval_circuit, one assignment at a time,
    # on random DAGs with constants of both values and dead gates
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(0, 6)
        inputs = tuple(InputBit(f"x{i}") for i in range(n))
        constants = (Constant("zero", 0), Constant("one", 1))
        nodes = [b.name for b in inputs] + ["zero", "one"]
        gates = []
        for g in range(rng.randrange(0, 12)):
            gates.append((rng.choice(nodes), rng.choice(nodes)))
            nodes.append(f"g{g}")
        circuit = NandCircuit(inputs, tuple(gates), rng.choice(nodes), constants)
        rows = [tuple((idx >> v) & 1 for v in range(n)) for idx in range(2 ** n)]
        assert truth_table(circuit).bits == tuple(eval_circuit(circuit, bits) for bits in rows)
        assert truth_table(prune(circuit)) == truth_table(circuit)


def test_prune_keeps_a_circuit_with_nothing_dead():
    circuit = or_from_nand()
    assert prune(circuit) is circuit
    pruned = prune(NandCircuit(circuit.inputs, circuit.gates + (("x", "y"),), "g2", (Constant("one", 1),)))
    assert (pruned.gates, pruned.constants) == (circuit.gates, ())


def test_truth_table_cap():
    c = NandCircuit(inputs=tuple(InputBit(f"x{i}") for i in range(6)), gates=(), output="x0")
    with pytest.raises(TooLarge):
        truth_table(c, _cap=2 ** 5)


def test_circuit_rejects_unknown_refs_and_cycles():
    with pytest.raises(DimensionMismatch):
        NandCircuit(inputs=(InputBit("x"),), gates=(("x", "g0"),), output="g0")
    with pytest.raises(DimensionMismatch):
        NandCircuit(inputs=(InputBit("x"),), gates=(), output="nope")


class TestSynthesis:
    def test_and_gate(self):
        tt = TruthTable.from_function(2, lambda b: b[0] & b[1])
        circuit = synthesize_nand(tt)
        assert truth_table(circuit) == tt

    def test_constant_functions(self):
        for n_vars in (1, 2, 3):
            for value in (0, 1):
                tt = TruthTable.from_function(n_vars, lambda b, v=value: v)
                circuit = synthesize_nand(tt)
                assert truth_table(circuit) == tt
                assert gate_count(circuit) == 0

    def test_three_bit_parity(self):
        tt = TruthTable.from_function(3, lambda b: b[0] ^ b[1] ^ b[2])
        circuit = synthesize_nand(tt)
        assert truth_table(circuit) == tt

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_round_trip_exhaustive(self, n_vars):
        for tt in all_truth_tables(n_vars):
            assert truth_table(synthesize_nand(tt)) == tt

    def test_round_trip_four_vars_sampled(self):
        rng = random.Random(11)
        for _ in range(300):
            tt = TruthTable.from_int(4, rng.randrange(2 ** 16))
            assert truth_table(synthesize_nand(tt)) == tt

    @pytest.mark.parametrize("n_vars", [5, 6, 7, 8])
    def test_round_trip_larger_sampled(self, n_vars):
        rng = random.Random(n_vars)
        for _ in range(8):
            tt = TruthTable.from_int(n_vars, rng.randrange(2 ** (2 ** n_vars)))
            assert truth_table(synthesize_nand(tt)) == tt

    def test_gate_count_stable_under_serialization(self):
        tt = TruthTable.from_int(4, 0xBEEF)
        circuit = synthesize_nand(tt)
        back = NandCircuit.from_json_dict(circuit.to_json_dict())
        assert gate_count(back) == gate_count(circuit)
        netlist_back = parse_netlist(format_netlist(circuit))
        assert gate_count(netlist_back) == gate_count(circuit)
        assert truth_table(netlist_back) == tt


def test_netlist_parsing():
    text = """
    # OR gate from NANDs
    input x party=0
    input y party=1
    g0 = NAND(x, x)
    g1 = NAND(y, y)
    g2 = NAND(g0, g1)
    output g2
    """
    c = parse_netlist(text)
    assert c.inputs[0].party == 0
    for x, y in itertools.product((0, 1), repeat=2):
        assert eval_circuit(c, (x, y)) == (x | y)


def test_netlist_requires_ordered_gates():
    with pytest.raises(DimensionMismatch):
        parse_netlist("input x\ng1 = NAND(x, x)\noutput g1\n")


def test_malformed_netlist_lines_are_named():
    for line in ("g0 = NAND(a)", "g0 = NAND(a, a, a)", "g0 = NAND a, a", "g0 = NAND(a, a", "const k = x"):
        with pytest.raises(DimensionMismatch, match=re.escape(repr(line))):
            parse_netlist(f"input a\n{line}\ng0 = NAND(a, a)\noutput g0\n")
    with pytest.raises(DimensionMismatch, match=re.escape(repr("input a party=p"))):
        parse_netlist("input a party=p\noutput a\n")


def test_constants_must_be_bits():
    # eval_circuit and the compiler's affine core read a constant
    # differently (value & 1 against its truth), so only bits are constants
    for value in (2, 3, -1, 1.0, "1"):
        with pytest.raises(DimensionMismatch, match="constant 'k' must be 0 or 1"):
            Constant("k", value)
    document = or_from_nand().to_json_dict()
    document["constants"] = {"k": 2}
    with pytest.raises(DimensionMismatch):
        NandCircuit.from_json_dict(document)
    with pytest.raises(DimensionMismatch):
        parse_netlist("input a\nconst k = 3\ng0 = NAND(k, a)\noutput g0\n")
    for value in (0, 1):
        circuit = parse_netlist(f"input a\nconst k = {value}\ng0 = NAND(k, a)\noutput g0\n")
        assert circuit.constants == (Constant("k", value),)
        assert truth_table(circuit).bits == (1, 1 - value)


def test_gate_id_leaf_names_rejected():
    # a leaf named like a gate id would alias that gate in gate_count and
    # in the compiler's share forms
    with pytest.raises(bw.BoxworldError):
        parse_netlist("input g3\ninput y\ng0 = NAND(g3, y)\noutput g0\n")
    with pytest.raises(bw.BoxworldError):
        NandCircuit(inputs=(InputBit("x"),), gates=(("x", "g7"),), output="g0", constants=(Constant("g7", 1),))


def test_json_round_trip_with_constants():
    c = NandCircuit(
        inputs=(InputBit("x", party=0),),
        gates=(("x", "one"),),
        output="g0",
        constants=(Constant("one", 1),),
    )
    back = NandCircuit.from_json_dict(c.to_json_dict())
    assert truth_table(back) == truth_table(c)
    assert back.inputs[0].party == 0


def test_truth_table_value_little_endian():
    tt = TruthTable(2, (0, 1, 0, 0))  # true only at (x0=1, x1=0)
    assert tt.value((1, 0)) == 1
    assert tt.value((0, 1)) == 0


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(min_value=0, max_value=2 ** 16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_synthesis_round_trip_hypothesis(mask):
        tt = TruthTable.from_int(4, mask)
        assert truth_table(synthesize_nand(tt)) == tt

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_circuit_json_and_netlist_round_trips(data):
        # random DAGs over 1..4 inputs (some with a party), 0..2 constants
        n = data.draw(st.integers(1, 4))
        inputs = tuple(InputBit(f"x{i}", data.draw(st.none() | st.integers(0, 3))) for i in range(n))
        values = data.draw(st.lists(st.integers(0, 1), max_size=2))
        constants = tuple(Constant(f"c{i}", v) for i, v in enumerate(values))
        nodes = [b.name for b in inputs] + [c.name for c in constants]
        gates = []
        for g in range(data.draw(st.integers(0, 6))):
            gates.append((data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))))
            nodes.append(f"g{g}")
        circuit = NandCircuit(inputs, tuple(gates), data.draw(st.sampled_from(nodes)), constants)
        document = circuit.to_json_dict()
        from_json = NandCircuit.from_json_dict(json.loads(json.dumps(document)))
        from_netlist = parse_netlist(format_netlist(circuit))
        for back in (from_json, from_netlist):
            assert back.to_json_dict() == document
            assert format_netlist(back) == format_netlist(circuit)
            assert truth_table(back) == truth_table(circuit)

except ImportError:  # pragma: no cover
    pass
