import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

jsonschema = pytest.importorskip("jsonschema")

import boxworld as bw
from boxworld.cli import main


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "boxworld", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def load_schema(name):
    proc = run_cli(["--schema", name])
    assert proc.returncode == 0
    return json.loads(proc.stdout)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


def test_pr_chsh_pipeline():
    box = run_cli(["box", "make", "pr"])
    assert box.returncode == 0
    validate(json.loads(box.stdout), "box")
    chsh = run_cli(["box", "chsh"], stdin=box.stdout)
    assert chsh.returncode == 0
    payload = json.loads(chsh.stdout)
    validate(payload, "box_chsh")
    assert payload == {"chsh": "4/1"}


def test_box_check_and_local():
    box = run_cli(["box", "make", "pr"]).stdout
    check = run_cli(["box", "check"], stdin=box)
    assert check.returncode == 0
    validate(json.loads(check.stdout), "box_check")
    local = run_cli(["box", "local"], stdin=box)
    assert local.returncode == 1  # nonlocal is the negative outcome
    payload = json.loads(local.stdout)
    validate(payload, "box_local")
    assert payload["local"] is False


def test_box_local_pr_witness_is_pinned():
    # the Farkas vector's scale fixes these values: a change of pivots or of
    # the row scaling would change what is printed
    box = run_cli(["box", "make", "pr"]).stdout
    local = run_cli(["box", "local"], stdin=box)
    assert local.returncode == 1
    payload = json.loads(local.stdout)
    assert payload["witness"]["box_value"] == "1/1"
    assert payload["witness"]["local_max"] == "0/1"


def test_box_local_positive_with_weights():
    import boxworld as bw

    noise = bw.uniform_box((2, 2), (2, 2))
    local = run_cli(["box", "local"], stdin=json.dumps(noise.to_json_dict()))
    assert local.returncode == 0
    payload = json.loads(local.stdout)
    validate(payload, "box_local")
    assert payload["local"] is True
    assert payload["weights"]


def test_box_marginal():
    box = run_cli(["box", "make", "pr"]).stdout
    marg = run_cli(["box", "marginal", "--parties", "0"], stdin=box)
    assert marg.returncode == 0
    payload = json.loads(marg.stdout)
    validate(payload, "box_marginal")
    assert all(entry["p"] == "1/2" for entry in payload["table"])
    # a completion input outside the party's alphabet is a usage error, not an empty table
    for bad in ("5", "-1"):
        out = run_cli(["box", "marginal", "--parties", "0", "--complement-inputs", bad], stdin=box)
        assert out.returncode == 2
        assert out.stdout == ""


def test_fullcorr_make_and_verify_roundtrip(tmp_path):
    box = run_cli(["box", "make", "fullcorr", "--parties", "2", "--bits", "1", "--function", "0001"])
    assert box.returncode == 0
    target_file = tmp_path / "target.json"
    target_file.write_text(box.stdout)

    synth = run_cli(
        ["circuit", "synth"],
        stdin=json.dumps({"n_vars": 2, "bits": [0, 0, 0, 1]}),
    )
    assert synth.returncode == 0
    circuit = json.loads(synth.stdout)
    validate(circuit, "circuit")

    compiled = run_cli(
        ["compile", "--parties", "2", "--map", "x0;x1"],
        stdin=json.dumps(circuit),
    )
    assert compiled.returncode == 0
    compiled_payload = json.loads(compiled.stdout)
    validate(compiled_payload, "compile")

    verify = run_cli(
        ["verify", "--target", str(target_file)], stdin=compiled.stdout
    )
    assert verify.returncode == 0
    payload = json.loads(verify.stdout)
    validate(payload, "verify")
    assert payload["verified"] is True


@pytest.mark.parametrize(
    "parties, bit_map",
    [("2", "a,b;c"), ("3", "a;;b,c"), ("2", "a;b,c"), ("3", "a;b;c")],
)
def test_compile_verify_target_with_uneven_ownership(parties, bit_map):
    # parties may own different numbers of bits, or none
    netlist = "input a\ninput b\ninput c\ng0 = NAND(a, b)\ng1 = NAND(g0, c)\noutput g1\n"
    out = run_cli(["compile", "--parties", parties, "--map", bit_map, "--verify-target"], stdin=netlist)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    validate(payload, "compile")
    assert payload["verified"] is True


def test_compile_verify_target_refuses_an_oversized_target():
    # 24 input bits: the target box is refused before any input is evaluated
    names = [f"i{k}" for k in range(24)]
    lines = [f"input {name}" for name in names]
    lines += [f"g0 = NAND({names[0]}, {names[1]})"]
    lines += [f"g{k - 1} = NAND(g{k - 2}, {names[k]})" for k in range(2, 24)]
    netlist = "\n".join(lines + ["output g22", ""])
    bit_map = ",".join(names[:12]) + ";" + ",".join(names[12:])
    out = run_cli(["compile", "--parties", "2", "--map", bit_map, "--verify-target"], stdin=netlist)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("limit exceeded: ")


def test_verify_mismatch_exits_one(tmp_path):
    wrong = run_cli(["box", "make", "fullcorr", "--parties", "2", "--bits", "1", "--function", "1110"])
    target_file = tmp_path / "t.json"
    target_file.write_text(wrong.stdout)
    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 2, "bits": [0, 0, 0, 1]}))
    compiled = run_cli(["compile", "--parties", "2", "--map", "x0;x1"], stdin=synth.stdout)
    verify = run_cli(["verify", "--target", str(target_file)], stdin=compiled.stdout)
    assert verify.returncode == 1
    payload = json.loads(verify.stdout)
    validate(payload, "verify")
    assert payload["verified"] is False


def test_circuit_eval_and_table():
    netlist = "input x\ninput y\ng0 = NAND(x, y)\noutput g0\n"
    ev = run_cli(["circuit", "eval", "--assignment", "11"], stdin=netlist)
    assert json.loads(ev.stdout) == {"value": 0}
    validate(json.loads(ev.stdout), "circuit_eval")
    table = run_cli(["circuit", "table"], stdin=netlist)
    payload = json.loads(table.stdout)
    validate(payload, "circuit_table")
    assert payload == {"n_vars": 2, "bits": [1, 1, 1, 0]}


def test_simulate_exact_and_sample():
    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 2, "bits": [0, 0, 0, 1]}))
    compiled = run_cli(["compile", "--parties", "2", "--map", "x0;x1"], stdin=synth.stdout)
    exact = run_cli(["simulate", "--exact", "--x", "1,1"], stdin=compiled.stdout)
    assert exact.returncode == 0
    payload = json.loads(exact.stdout)
    validate(payload, "simulate")
    outcomes = {tuple(e["a"]): e["p"] for e in payload["distribution"]["outcomes"]}
    assert outcomes == {(0, 1): "1/2", (1, 0): "1/2"}

    sample = run_cli(
        ["simulate", "--sample", "--x", "1,1", "--seed", "9", "--runs", "2000"],
        stdin=compiled.stdout,
    )
    assert sample.returncode == 0
    payload = json.loads(sample.stdout)
    validate(payload, "simulate")
    assert sum(c["n"] for c in payload["counts"]) == 2000
    assert all(tuple(c["a"]) in {(0, 1), (1, 0)} for c in payload["counts"])
    counts = {tuple(c["a"]): c["n"] for c in payload["counts"]}
    for a, p in outcomes.items():
        p = float(Fraction(p))
        assert abs(counts.get(a, 0) - p * 2000) <= 5 * math.sqrt(p * (1 - p) * 2000), a

    sample2 = run_cli(
        ["simulate", "--sample", "--x", "1,1", "--seed", "9", "--runs", "2000"],
        stdin=compiled.stdout,
    )
    assert sample2.stdout == sample.stdout  # byte-identical under same seed

    missing_seed = run_cli(["simulate", "--sample", "--x", "1,1"], stdin=compiled.stdout)
    assert missing_seed.returncode == 2


def test_out_of_range_inputs_exit_two():
    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 2, "bits": [0, 0, 0, 1]}))
    compiled = run_cli(["compile", "--parties", "2", "--map", "x0;x1"], stdin=synth.stdout)
    for args in (
        ["simulate", "--exact", "--x", "3,1"],
        ["simulate", "--exact", "--x", "-1,0"],
        ["simulate", "--sample", "--x", "2,5", "--seed", "1", "--runs", "10"],
        ["cc", "--x", "3,1"],
    ):
        proc = run_cli(args, stdin=compiled.stdout)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args


def test_compiled_exact_x_matches_generic_executor():
    # the compiled envelope's exact --x output comes from the affine core;
    # it must be byte-identical to the generic branch-tree executor's, run
    # on a copy with a fresh strategy tuple (not the compiled protocol's own)
    import dataclasses

    from boxworld.cli import _load_protocol
    from boxworld.wiring import execute_exact

    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 2, "bits": [0, 1, 1, 0]}))
    compiled = run_cli(["compile", "--parties", "2", "--map", "x0;x1"], stdin=synth.stdout)
    own = _load_protocol(json.loads(compiled.stdout))
    protocol = dataclasses.replace(own, strategies=tuple(list(own.strategies)))
    assert len(protocol.bank.instances) <= 12  # keeps the generic walk quick
    for x in ((0, 1), (1, 1)):
        proc = run_cli(["simulate", "--exact", "--x", ",".join(map(str, x))], stdin=compiled.stdout)
        assert proc.returncode == 0
        expected = {"mode": "exact", "distribution": execute_exact(protocol, x).to_json_dict()}
        assert proc.stdout == json.dumps(expected, indent=2) + "\n"


def test_cc_command():
    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 2, "bits": [0, 0, 0, 1]}))
    compiled = run_cli(["compile", "--parties", "2", "--map", "x0;x1"], stdin=synth.stdout)
    cc = run_cli(["cc", "--x", "1,1"], stdin=compiled.stdout)
    assert cc.returncode == 0
    payload = json.loads(cc.stdout)
    validate(payload, "cc")
    assert payload["value"] == 1
    assert payload["bits_communicated"] == 1


def test_cc_command_five_parties():
    # a sampled run needs no exact counts, so five parties stay quick
    bits = [1 if bin(idx).count("1") >= 3 else 0 for idx in range(32)]
    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 5, "bits": bits}))
    compiled = run_cli(["compile", "--parties", "5", "--map", "x0;x1;x2;x3;x4"], stdin=synth.stdout)
    for x in ((1, 1, 0, 1, 0), (0, 1, 0, 0, 1)):
        proc = run_cli(["cc", "--x", ",".join(map(str, x))], stdin=compiled.stdout)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        validate(payload, "cc")
        assert payload["value"] == (1 if sum(x) >= 3 else 0)
        assert payload["bits_communicated"] == 4


def test_exact_paths_on_a_four_party_envelope(tmp_path):
    # majority of four bits: 15 gates, 180 PR boxes, exact in one process
    bits = "".join("1" if bin(idx).count("1") >= 3 else "0" for idx in range(16))
    target = run_cli(["box", "make", "fullcorr", "--parties", "4", "--bits", "1", "--function", bits])
    target_file = tmp_path / "target.json"
    target_file.write_text(target.stdout)
    synth = run_cli(["circuit", "synth"], stdin=json.dumps({"n_vars": 4, "bits": [int(b) for b in bits]}))
    compiled = run_cli(["compile", "--parties", "4", "--map", "x0;x1;x2;x3"], stdin=synth.stdout)
    assert compiled.returncode == 0
    assert json.loads(compiled.stdout)["pr_boxes"] == 180
    exact = run_cli(["simulate", "--exact", "--x", "1,1,0,1"], stdin=compiled.stdout)
    assert exact.returncode == 0
    payload = json.loads(exact.stdout)
    validate(payload, "simulate")
    outcomes = {tuple(entry["a"]): entry["p"] for entry in payload["distribution"]["outcomes"]}
    assert outcomes == {a: "1/8" for a in itertools.product((0, 1), repeat=4) if sum(a) % 2 == 1}
    verify = run_cli(["verify", "--target", str(target_file)], stdin=compiled.stdout)
    assert verify.returncode == 0
    assert json.loads(verify.stdout) == {"verified": True}


def test_polytope_commands():
    verts = run_cli(["polytope", "vertices", "--inputs", "2,2", "--outputs", "2,2"])
    assert verts.returncode == 0
    payload = json.loads(verts.stdout)
    validate(payload, "polytope_vertices")
    assert payload["count"] == 24

    box = run_cli(["box", "make", "pr"]).stdout
    classify = run_cli(["polytope", "classify"], stdin=box)
    payload = json.loads(classify.stdout)
    validate(payload, "polytope_classify")
    assert payload["class"] == "pr-equivalent"

    decomp = run_cli(["polytope", "decompose"], stdin=box)
    payload = json.loads(decomp.stdout)
    validate(payload, "polytope_decompose")
    assert len(payload["weights"]) == 1
    assert payload["weights"][0]["w"] == "1/1"


@pytest.mark.parametrize(
    "inputs, outputs, digest",
    [
        ("2,2", "2,2", "4f0aa8b184f59b30d649e8f47deee37e9c0bd4e8d3e957a226fe3fc7f123895a"),
        ("1,1,1", "2,2,2", "924a5a78690c017150d2971c9b380074de4e2d3785c220945833227e18ad9f76"),
        ("2,3", "2,2", "a2589fb24e56009a5ead11116706095eb934c166fb80118a09372630684c42a2"),
        ("2,2", "2,3", "6d6e15f1348dfb72af4f78b93a4d8bb4c7f5652a3e13b1caf1c8056267ac6e77"),
        ("2,1,1", "2,2,2", "35151cf5436c5d3c47f8fe23e7d5071b7983de3c03fbbb64a7106675b6317a43"),
    ],
)
def test_polytope_vertices_output_is_pinned(inputs, outputs, digest):
    # the oracle tests compare vertex sets; this pins the printed order too
    out = run_cli(["polytope", "vertices", "--inputs", inputs, "--outputs", outputs])
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def test_polytope_vertices_at_any_party_count():
    verts = run_cli(["polytope", "vertices", "--inputs", "1,1,1", "--outputs", "2,2,2"])
    assert verts.returncode == 0
    payload = json.loads(verts.stdout)
    validate(payload, "polytope_vertices")
    assert (payload["dimension"], payload["count"]) == (7, 8)
    assert {v["class"] for v in payload["vertices"]} == {"local-deterministic"}
    # 26 dimensions exceed the default cap; mismatched shape lists are malformed
    assert run_cli(["polytope", "vertices", "--inputs", "2,2,2", "--outputs", "2,2,2"]).returncode == 2
    assert run_cli(["polytope", "vertices", "--inputs", "2,2", "--outputs", "2"]).returncode == 2


def test_classify_multipartite_parity_boxes():
    # classify builds its own H-representation only for rank checks, so it
    # is not held to the enumeration cap: the 26-dimensional 3-party parity box
    box = run_cli(["box", "make", "fullcorr", "--parties", "3", "--bits", "1", "--function", "00000001"])
    classify = run_cli(["polytope", "classify"], stdin=box.stdout)
    assert classify.returncode == 0, classify.stderr
    payload = json.loads(classify.stdout)
    validate(payload, "polytope_classify")
    assert payload["class"] == "full-correlation"
    assert payload["f"] == [[x0, x1, x2, x0 & x1 & x2] for x0 in (0, 1) for x1 in (0, 1) for x2 in (0, 1)]


def test_classify_refuses_six_parties_at_once():
    # 3^6 - 1 = 728 dimensions exceed the rank-check cap: refused before any rank is taken
    six = bw.full_correlation_box(6, 1, lambda b: b[0] & b[5])
    code, out, err = _main_in_process(["polytope", "classify"], json.dumps(six.to_json_dict()))
    assert (code, out) == (2, "")
    assert err == "limit exceeded: enumeration size 728 exceeds cap 242\n"


def test_cluster_commands():
    constraints = run_cli(["cluster", "constraints"])
    payload = json.loads(constraints.stdout)
    validate(payload, "cluster_constraints")
    assert len(payload["constraints"]) == 6

    ghz = run_cli(["cluster", "ghz"])
    assert ghz.returncode == 0
    payload = json.loads(ghz.stdout)
    validate(payload, "cluster_ghz")
    assert payload == {"satisfying_assignments": 0, "max_simultaneous": 5, "space": 1024}


@pytest.mark.slow
def test_cluster_search_cli():
    search = run_cli(["cluster", "search", "--boxes", "1"])
    assert search.returncode == 0
    payload = json.loads(search.stdout)
    validate(payload, "cluster_search")
    assert payload["success"] is False
    assert payload["assignments_tested"] == 10
    assert "runtime_s" not in payload  # wall-clock time would break byte-identical output

    inverted = run_cli(["cluster", "search", "--boxes", "1", "--inverted"])
    assert inverted.returncode == 1  # counterexample found
    payload = json.loads(inverted.stdout)
    validate(payload, "cluster_search")
    assert payload["success"] is True
    assert payload["assignments_tested"] == 1  # stopped in the first pair
    assert "runtime_s" not in payload
    assert set(payload["counterexample"]) == {"assignment", "owner_strategies", "outputs", "protocol"}

    # the printed counterexample is a protocol document the CLI reads back,
    # and it satisfies every inverted constraint
    protocol_json = payload["counterexample"]["protocol"]
    validate(protocol_json, "protocol")
    exact = run_cli(["simulate", "--exact", "--x", "0,1,0,0,0"], stdin=json.dumps(protocol_json))
    assert exact.returncode == 0, exact.stderr
    assert json.loads(exact.stdout)["distribution"]["x"] == [0, 1, 0, 0, 0]
    protocol = bw.WiringProtocol.from_json_dict(protocol_json)
    for constraint in bw.inverted_cluster_constraints().constraints:
        assert bw.satisfies(bw.protocol_source(protocol), constraint)


def test_cluster_search_at_zero_and_two_boxes():
    code, out, _ = _main_in_process(["cluster", "search", "--boxes", "0", "--inverted"], "")
    assert code == 1
    payload = json.loads(out)
    validate(payload, "cluster_search")
    assert payload["strategies_tested"] == 1024
    assert payload["counterexample"]["assignment"] is None
    assert set(payload["counterexample"]["outputs"]) == {"0", "1", "2", "3", "4"}

    code, out, err = _main_in_process(["cluster", "search", "--boxes", "2"], "")
    assert (code, out) == (2, "")
    assert err == "limit exceeded: enumeration size 17495845002240 exceeds cap 10000000\n"


_NON_BIT_CONSTANT = {
    "inputs": [{"name": "a"}, {"name": "b"}],
    "gates": [{"l": "k", "r": "a"}, {"l": "g0", "r": "b"}],
    "output": "g1",
    "constants": {"k": 2},
}


@pytest.mark.parametrize(
    "stdin",
    [
        json.dumps(_NON_BIT_CONSTANT),
        "input a\ninput b\nconst k = 3\ng0 = NAND(k, a)\ng1 = NAND(g0, b)\noutput g1\n",
        "input a\ninput b\ng0 = NAND(a)\noutput g0\n",
    ],
    ids=["json constant 2", "netlist constant 3", "netlist one-operand gate"],
)
@pytest.mark.parametrize(
    "args", [["circuit", "eval", "--assignment", "11"], ["compile", "--parties", "2", "--map", "a;b"]], ids=" ".join
)
def test_non_bit_constants_and_short_gates_exit_two(args, stdin):
    # like any other malformed circuit: exit 2, a message, no output
    code, out, err = _main_in_process(args, stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_errors_exit_two():
    assert run_cli(["box"]).returncode == 2
    assert run_cli(["nonsense"]).returncode == 2
    assert run_cli(["circuit", "eval", "--assignment", "11"], stdin="garbage netlist").returncode == 2
    malformed = run_cli(["box", "check"], stdin="{")
    assert malformed.returncode == 2
    assert "Traceback" not in malformed.stderr


def test_oversized_box_exits_two_at_once():
    doc = json.dumps({"parties": 2, "inputs": [1, 1], "outputs": [10 ** 9, 1], "table": []})
    proc = run_cli(["box", "check"], stdin=doc)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("limit exceeded: ")


def test_table_protocol_checks_its_pr_template_once(monkeypatch):
    import boxworld.wiring as wiring

    calls = []

    def counting_check(box):
        calls.append(box)
        return bw.check_no_signaling(box)

    monkeypatch.setattr(wiring, "check_no_signaling", counting_check)
    bank = [{"template": "PR", "owners": [0, 1]} for _ in range(3)]
    code, out, _ = _main_in_process(["simulate", "--exact", "--x", "1,1"], _table_protocol(bank=bank))
    assert code == 0
    assert len(json.loads(out)["distribution"]["outcomes"]) == 2
    # none per call: wiring checked its shared PR template once, when it
    # built it (one per instance when each had its own PR box)
    assert len(calls) == 0


def _pr_box_dict():
    return bw.pr_box().to_json_dict()


def _table_protocol(**changes):
    proto = bw.identity_wiring(bw.pr_box())
    data = {
        "parties": 2,
        "bank": [{"template": "PR", "owners": [0, 1]}],
        "strategies": [s.to_json_dict() for s in proto.strategies],
        "input_sizes": [2, 2],
        "output_sizes": [2, 2],
    }
    data.update(changes)
    return json.dumps(data)


def _main_in_process(args, stdin):
    """main(args) on stdin text: (exit code, stdout, stderr); an exception
    escaping main propagates, as it would as a traceback on the command line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_engine_fault_in_the_lp_is_not_a_verdict():
    # a solver fault is a VerificationFailed: exit 2 with its message, never
    # exit 1 ("computed and negative") or a traceback
    def faulty(A, b):
        raise bw.VerificationFailed("phase-1 objective unbounded")

    with mock.patch("boxworld.locality.solve_equality_feasibility", faulty):
        code, out, err = _main_in_process(["box", "local"], json.dumps(_pr_box_dict()))
    assert (code, out, err) == (2, "", "error: phase-1 objective unbounded\n")


@pytest.mark.parametrize("text", ["{", '{"parties": 2}', "[1, 2]"])
@pytest.mark.parametrize(
    "args",
    [
        ["box", "check"],
        ["box", "local"],
        ["box", "chsh"],
        ["polytope", "classify"],
        ["simulate"],
        ["verify", "--target", "PR_BOX_FILE"],
        ["cc", "--x", "1,1"],
        ["circuit", "synth"],
    ],
    ids=" ".join,
)
def test_malformed_input_exits_two(args, text, tmp_path):
    target = tmp_path / "pr.json"
    target.write_text(json.dumps(_pr_box_dict()))
    args = [str(target) if a == "PR_BOX_FILE" else a for a in args]
    code, out, err = _main_in_process(args, text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed")


@pytest.mark.parametrize(
    "stdin",
    [
        _table_protocol(output_sizes=[2]),
        _table_protocol(input_sizes=[2]),
        _table_protocol(randomness={"support": [[0]], "weights": ["1/1"]}),
        _table_protocol(input_sizes=["two", 2]),
        json.dumps({"type": "compiled", "circuit": {"inputs": [{"name": 1}], "gates": [], "output": 1}}),
    ],
)
def test_wrongly_shaped_protocol_exits_two(stdin):
    code, out, err = _main_in_process(["simulate"], stdin)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--x", "1,a"],
        ["cc", "--x", "z"],
        ["circuit", "eval", "--assignment", "12"],
        ["polytope", "vertices", "--inputs", "2,x", "--outputs", "2,2"],
        ["box", "marginal", "--parties", "a"],
        ["box", "make", "fullcorr", "--parties", "2", "--bits", "1", "--function", "00a1"],
        ["box", "make", "fullcorr", "--parties", "0", "--bits", "1", "--function", "1"],
        ["box", "make", "fullcorr", "--parties", "1", "--bits", "-1", "--function", "1"],
        ["compile", "--parties", "0", "--map", "a"],
        ["simulate", "--sample", "--runs", "-3", "--seed", "1", "--x", "0,0"],
        ["cluster", "search", "--boxes", "-1"],
        ["cluster", "search", "--boxes", "two"],
    ],
    ids=" ".join,
)
def test_malformed_arguments_exit_two(args):
    with pytest.raises(SystemExit) as exit_info:
        _main_in_process(args, "")
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "args, variable, code",
    [
        (["cluster", "search", "--boxes", "0", "--cap", "1024"], "BOXWORLD_STRATEGY_CAP", 0),
        (["cluster", "search", "--boxes", "0", "--cap", "1023"], "BOXWORLD_STRATEGY_CAP", 2),
        (["polytope", "vertices", "--inputs", "2,2", "--outputs", "2,2", "--cap", "8"], "BOXWORLD_DIMENSION_CAP", 0),
        (["polytope", "vertices", "--inputs", "2,2", "--outputs", "2,2", "--cap", "7"], "BOXWORLD_DIMENSION_CAP", 2),
    ],
)
@pytest.mark.parametrize("value", ["1", str(10 ** 12)])
def test_cap_option_is_the_only_cap(monkeypatch, args, variable, code, value):
    # the environment variables that once overrode --cap are ignored
    monkeypatch.setenv(variable, value)
    assert _main_in_process(args, "")[0] == code


@pytest.mark.parametrize(
    "args, stdin, constant",
    [
        # 2^20 deterministic strategies
        (["box", "local"], json.dumps(bw.uniform_box((10, 10), (2, 2)).to_json_dict()), "locality.DEFAULT_STRATEGY_CAP"),
        # a polytope of dimension 24
        (["polytope", "vertices", "--inputs", "4,4", "--outputs", "2,2"], "", "polytope.DEFAULT_DIMENSION_CAP"),
        (["cluster", "search", "--boxes", "2"], "", "cluster.DEFAULT_STRATEGY_CAP"),
    ],
    ids=["box local", "polytope vertices", "cluster search"],
)
def test_cap_default_is_the_library_constant(args, stdin, constant):
    # --help shows no default for --cap; without the option, the library
    # function's own default applies
    module, name = constant.split(".")
    cap = getattr(importlib.import_module(f"boxworld.{module}"), name)
    refused = _main_in_process(args, stdin)
    assert refused[:2] == (2, "")
    assert refused[2].startswith("limit exceeded: ") and refused[2].endswith(f" exceeds cap {cap}\n")
    assert _main_in_process([*args, "--cap", str(cap)], stdin) == refused


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-3, 3)
        | st.floats(-3, 3)
        | st.sampled_from([float("nan"), float("inf")])
        | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=12,
    )
    # a PR box and a signaling box, whole or with one field or one table
    # entry's field replaced, reach make_box and the check itself
    _boxes = [
        _pr_box_dict(),
        bw.make_box(2, (2, 2), (2, 2), {((x0, x1), (x1, 0)): 1 for x0 in (0, 1) for x1 in (0, 1)}, sparse=True)
        .to_json_dict(),
    ]

    def _with_entry_field(box, index, field, value):
        table = [dict(entry) for entry in box["table"]]
        table[index % len(table)][field] = value
        return {**box, "table": table}

    _box_documents = (
        st.sampled_from(_boxes)
        | st.builds(
            lambda box, key, value: {**box, key: value},
            st.sampled_from(_boxes),
            st.sampled_from(["parties", "inputs", "outputs", "table"]),
            _json_values,
        )
        | st.builds(
            _with_entry_field, st.sampled_from(_boxes), st.integers(0, 7), st.sampled_from(["x", "a", "p"]), _json_values
        )
    )

    @given((_box_documents | _json_values).map(json.dumps) | st.text(max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_box_check_on_arbitrary_json_exits_zero_one_or_two(text):
        code, _, _ = _main_in_process(["box", "check"], text)
        assert code in (0, 1, 2)

except ImportError:  # pragma: no cover
    pass


def test_determinism_byte_identical():
    a = run_cli(["box", "make", "pr"])
    b = run_cli(["box", "make", "pr"])
    assert a.stdout == b.stdout
    g1 = run_cli(["cluster", "ghz"])
    g2 = run_cli(["cluster", "ghz"])
    assert g1.stdout == g2.stdout


def test_schema_list():
    proc = run_cli(["--schema", "list"])
    names = json.loads(proc.stdout)["schemas"]
    assert "box" in names and "cluster_search" in names
    assert run_cli(["--schema", "nope"]).returncode == 2


def test_main_callable_directly(capsys):
    code = main(["box", "make", "pr"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parties"] == 2
