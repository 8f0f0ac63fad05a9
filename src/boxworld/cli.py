"""Command-line front end with stable JSON I/O.

Every subcommand reads JSON (file or stdin), writes one JSON document to
stdout, and uses the exit-code convention: 0 = computed and positive,
1 = computed and negative (a verification mismatch, a signaling/nonlocal
verdict, a search counterexample), 2 = usage or cap errors.  Exact modes
are deterministic: identical inputs give byte-identical output; rationals
are always "num/den" strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .boxes import (
    Box,
    check_no_signaling,
    chsh_value,
    full_correlation_box,
    marginal,
    pr_box,
)
from .circuits import NandCircuit, TruthTable, eval_circuit, gate_count, parse_netlist, synthesize_nand, truth_table
from .cluster import (
    cluster_constraints,
    ghz_local_search,
    inverted_cluster_constraints,
    simulation_search,
)
from .compiler import (
    CompiledProtocol,
    compile_circuit,
    compiled_distribution,
    induced_box_fast,
    solve_cc,
    verify_simulation,
)
from .errors import BoxworldError, TooLarge
from .locality import is_local
from .polytope import build_h_rep, classify_vertex, decompose, enumerate_vertices
from .rational import format_rational, parse_rational
from .wiring import (
    BoxBank,
    BoxInstance,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    execute_exact,
    execute_sample,
    induced_box,
)

STRATEGY_CAP_ENV = "BOXWORLD_STRATEGY_CAP"
DIMENSION_CAP_ENV = "BOXWORLD_DIMENSION_CAP"


def _read_json(path):
    if path in (None, "-"):
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.loads(fh.read())


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_circuit(path) -> NandCircuit:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return NandCircuit.from_json_dict(json.loads(text))
    return parse_netlist(text)


def _load_truth_table(data) -> TruthTable:
    if isinstance(data, dict) and "truth_table" in data:
        data = data["truth_table"]
    return TruthTable(int(data["n_vars"]), tuple(int(b) for b in data["bits"]))


def _load_protocol(data):
    """Accept either a table protocol or a compiled-circuit envelope."""
    if data.get("type") == "compiled":
        circuit = NandCircuit.from_json_dict(data["circuit"])
        return compile_circuit(circuit, int(data["parties"]), data["party_bit_map"])
    instances = []
    for inst in data["bank"]:
        if inst.get("template", "PR") != "PR":
            raise BoxworldError(f"unknown bank template {inst.get('template')!r}")
        instances.append(BoxInstance(pr_box(), tuple(inst["owners"])))
    randomness_data = data.get("randomness")
    if randomness_data is None:
        randomness = SharedRandomness.singleton(0)
    else:
        randomness = SharedRandomness(
            tuple(randomness_data["support"]),
            tuple(parse_rational(w) for w in randomness_data["weights"]),
        )
    strategies = tuple(TableStrategy.from_json_dict(s) for s in data["strategies"])
    return WiringProtocol(
        n_parties=int(data["parties"]),
        randomness=randomness,
        bank=BoxBank(tuple(instances)),
        strategies=strategies,
        input_sizes=tuple(data["input_sizes"]),
        output_sizes=tuple(data["output_sizes"]),
    )


def _protocol_of(loaded):
    return loaded.protocol if isinstance(loaded, CompiledProtocol) else loaded


def _box_payload(box: Box) -> dict:
    return box.to_json_dict()


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, payload)
# ---------------------------------------------------------------------------


def _cmd_box_make(args):
    if args.kind == "pr":
        return 0, _box_payload(pr_box())
    data = _read_json(args.infile) if (args.function is None) else None
    if args.function is not None:
        bits = [int(c) for c in args.function]
        n_vars = args.parties * args.bits
        if len(bits) != 2 ** n_vars:
            raise BoxworldError(
                f"--function needs {2 ** n_vars} bits for {args.parties} parties x {args.bits} bits"
            )
        table = TruthTable(n_vars, tuple(bits))
    else:
        table = _load_truth_table(data)
    box = full_correlation_box(args.parties, args.bits, table)
    return 0, _box_payload(box)


def _cmd_box_check(args):
    box = Box.from_json_dict(_read_json(args.infile))
    verdict = check_no_signaling(box)
    if verdict.ok:
        return 0, {"no_signaling": True}
    return 1, {
        "no_signaling": False,
        "party": verdict.party,
        "inputs": list(verdict.inputs_pair),
        "context": {
            "others_inputs": {str(k): v for k, v in verdict.context["others_inputs"].items()},
            "others_outputs": list(verdict.context["others_outputs"]),
            "probabilities": [format_rational(p) for p in verdict.context["probabilities"]],
        },
    }


def _cmd_box_local(args):
    box = Box.from_json_dict(_read_json(args.infile))
    cap = int(os.environ.get(STRATEGY_CAP_ENV, args.cap))
    verdict = is_local(box, cap=cap)
    if verdict.local:
        weights = [
            {"responses": [list(r) for r in resp], "w": format_rational(w)}
            for resp, w in sorted(verdict.weights.items())
        ]
        return 0, {"local": True, "weights": weights}
    witness = verdict.witness
    payload = {"local": False, "witness_kind": witness["kind"]}
    if witness["kind"] == "linear":
        payload["witness"] = {
            "box_value": format_rational(witness["box_value"]),
            "local_max": format_rational(witness["local_max"]),
        }
    return 1, payload


def _cmd_box_marginal(args):
    box = Box.from_json_dict(_read_json(args.infile))
    subset = [int(p) for p in args.parties.split(",") if p != ""]
    complement = None
    if args.complement_inputs:
        complement = [int(v) for v in args.complement_inputs.split(",")]
    m = marginal(box, subset, complement)
    entries = [
        {"x": list(x), "a": list(a), "p": format_rational(p)}
        for (x, a), p in sorted(m.table.items())
        if p != 0
    ]
    return 0, {
        "parties": list(m.party_subset),
        "inputs": list(m.input_sizes),
        "outputs": list(m.output_sizes),
        "table": entries,
    }


def _cmd_box_chsh(args):
    box = Box.from_json_dict(_read_json(args.infile))
    return 0, {"chsh": format_rational(chsh_value(box))}


def _cmd_circuit_synth(args):
    table = _load_truth_table(_read_json(args.infile))
    names = args.names.split(",") if args.names else None
    circuit = synthesize_nand(table, names)
    payload = circuit.to_json_dict()
    payload["gate_count"] = gate_count(circuit)
    return 0, payload


def _cmd_circuit_eval(args):
    circuit = _load_circuit(args.infile)
    bits = [int(c) for c in args.assignment]
    return 0, {"value": eval_circuit(circuit, bits)}


def _cmd_circuit_table(args):
    circuit = _load_circuit(args.infile)
    table = truth_table(circuit)
    return 0, {"n_vars": table.n_vars, "bits": list(table.bits)}


def _cmd_compile(args):
    circuit = _load_circuit(args.infile)
    bit_map = [group.split(",") if group else [] for group in args.map.split(";")]
    compiled = compile_circuit(circuit, args.parties, bit_map)
    verified = None
    if args.verify_target:
        table = truth_table(compiled.circuit)
        m = len(compiled.party_bit_map[0])
        target = full_correlation_box(args.parties, m, _owned_order_function(compiled, table))
        verified = bool(verify_simulation(compiled, target))
    payload = {
        "f": compiled.circuit.to_json_dict(),
        "n": compiled.n_parties,
        "k": gate_count(compiled.circuit),
        "pr_boxes": compiled.pr_box_count,
        "party_bit_map": [list(g) for g in compiled.party_bit_map],
        "type": "compiled",
        "circuit": compiled.circuit.to_json_dict(),
        "parties": compiled.n_parties,
    }
    if verified is not None:
        payload["verified"] = verified
        return (0 if verified else 1), payload
    return 0, payload


def _owned_order_function(compiled: CompiledProtocol, table: TruthTable):
    """Reorder the flat-bit function to the ownership slot order."""
    order = [name for names in compiled.party_bit_map for name in names]
    index_of = {b.name: i for i, b in enumerate(compiled.circuit.inputs)}

    def func(bits):
        assignment = [0] * len(order)
        for slot, name in enumerate(order):
            assignment[index_of[name]] = bits[slot]
        return table.value(tuple(assignment))

    return func


def _cmd_simulate(args):
    loaded = _load_protocol(_read_json(args.infile))
    protocol = _protocol_of(loaded)
    if args.x is not None:
        x = tuple(int(v) for v in args.x.split(","))
    else:
        x = None
    if args.sample:
        if args.seed is None:
            raise BoxworldError("--sample requires --seed")
        if x is None:
            raise BoxworldError("--sample requires --x")
        counts = execute_sample(protocol, x, args.seed, args.runs)
        return 0, {
            "mode": "sample",
            "x": list(x),
            "runs": args.runs,
            "seed": args.seed,
            "counts": [{"a": list(a), "n": c} for a, c in sorted(counts.items())],
        }
    if args.seed is not None:
        print("warning: --seed is ignored in exact mode", file=sys.stderr)
    if x is not None:
        dist = compiled_distribution(loaded, x) if isinstance(loaded, CompiledProtocol) else execute_exact(protocol, x)
        return 0, {"mode": "exact", "distribution": dist.to_json_dict()}
    box = induced_box_fast(loaded) if isinstance(loaded, CompiledProtocol) else induced_box(protocol)
    return 0, {"mode": "exact", "box": _box_payload(box)}


def _cmd_verify(args):
    loaded = _load_protocol(_read_json(args.infile))
    target = Box.from_json_dict(_read_json(args.target))
    verdict = verify_simulation(loaded, target)
    if verdict.exact_match:
        return 0, {"verified": True}
    diff = verdict.first_difference
    return 1, {
        "verified": False,
        "first_difference": {
            "x": list(diff["x"]),
            "a": list(diff["a"]),
            "simulated": format_rational(diff["simulated"]),
            "target": format_rational(diff["target"]),
        },
    }


def _cmd_cc(args):
    loaded = _load_protocol(_read_json(args.infile))
    if not isinstance(loaded, CompiledProtocol):
        raise BoxworldError("cc expects a compiled-circuit protocol envelope")
    x = tuple(int(v) for v in args.x.split(","))
    result = solve_cc(loaded, x=x, seed=args.seed or 0)
    return 0, {
        "value": result.value,
        "bits_communicated": result.bits_communicated,
        "boxes_consumed": result.boxes_consumed,
        "transcript": [
            {"from": f, "to": t, "bit": bit} for f, t, bit in result.transcript
        ],
    }


def _cmd_polytope_vertices(args):
    inputs = tuple(int(v) for v in args.inputs.split(","))
    outputs = tuple(int(v) for v in args.outputs.split(","))
    cap = int(os.environ.get(DIMENSION_CAP_ENV, args.cap))
    h = build_h_rep(inputs, outputs, dimension_cap=cap)
    vertices = enumerate_vertices(h)
    reports = []
    for v in vertices:
        rep = classify_vertex(v, h, check=False)
        entry = {"box": _box_payload(v), "class": rep.classification}
        if rep.f_table is not None:
            entry["f"] = [list(t) for t in rep.f_table]
        reports.append(entry)
    return 0, {
        "dimension": h.dimension,
        "count": len(vertices),
        "vertices": reports,
    }


def _cmd_polytope_classify(args):
    box = Box.from_json_dict(_read_json(args.infile))
    rep = classify_vertex(box)
    payload = {"class": rep.classification}
    if rep.f_table is not None:
        payload["f"] = [list(t) for t in rep.f_table]
    if rep.relabeling is not None:
        payload["relabeling"] = {
            "party_perm": list(rep.relabeling.party_perm),
            "input_perms": [list(p) for p in rep.relabeling.input_perms],
            "output_perms": [
                [list(q) for q in party] for party in rep.relabeling.output_perms
            ],
        }
    if rep.reduction is not None:
        payload["reduction"] = {
            "party": rep.reduction["party"],
            "input": rep.reduction["input"],
            "impossible_output": rep.reduction["impossible_output"],
        }
    return 0, payload


def _cmd_polytope_decompose(args):
    box = Box.from_json_dict(_read_json(args.infile))
    h = build_h_rep(box.input_sizes, box.output_sizes)
    vertices = enumerate_vertices(h)
    weights = decompose(box, vertices)
    entries = [
        {"vertex": _box_payload(v), "w": format_rational(w)}
        for v, w in zip(vertices, weights)
        if w != 0
    ]
    return 0, {"weights": entries}


def _cmd_cluster_constraints(args):
    cs = cluster_constraints()
    return 0, {
        "n_parties": cs.n_parties,
        "constraints": [
            {"terms": [[p, s] for p, s in c.terms], "target": c.target}
            for c in cs.constraints
        ],
    }


def _cmd_cluster_ghz(args):
    report = ghz_local_search()
    code = 0 if report.satisfying_assignments == 0 else 1
    return code, {
        "satisfying_assignments": report.satisfying_assignments,
        "max_simultaneous": report.max_simultaneous,
        "space": report.space,
    }


def _cmd_cluster_search(args):
    constraints = inverted_cluster_constraints() if args.inverted else None
    cap = int(os.environ.get(STRATEGY_CAP_ENV, args.cap))
    report = simulation_search(args.boxes, constraints=constraints, cap=cap)
    payload = {
        "boxes": report.boxes,
        "assignments_tested": report.assignments_tested,
        "strategies_tested": report.strategies_tested,
        "success": report.success,
        "runtime_s": round(report.runtime_s, 3),
    }
    if report.counterexample is not None:
        payload["counterexample"] = report.counterexample
    return (1 if report.success else 0), payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxworld",
        description="Exact simulator and verifier for nonsignaling box correlations.",
    )
    parser.add_argument("--version", action="version", version=f"boxworld {__version__}")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="accepted for interface stability; the driver is single-threaded and output does not depend on it",
    )
    parser.add_argument("--schema", metavar="NAME", help="print the JSON schema NAME and exit (use 'list' to list)")
    sub = parser.add_subparsers(dest="group")

    box = sub.add_parser("box", help="box constructors and checks").add_subparsers(dest="cmd")
    make = box.add_parser("make", help="construct standard boxes")
    make_sub = make.add_subparsers(dest="kind")
    mk_pr = make_sub.add_parser("pr")
    mk_pr.set_defaults(func=_cmd_box_make, kind="pr")
    mk_fc = make_sub.add_parser("fullcorr")
    mk_fc.add_argument("--parties", type=int, required=True)
    mk_fc.add_argument("--bits", type=int, required=True)
    mk_fc.add_argument("--function", help="truth-table bits, e.g. 0001 for AND (row order little-endian)")
    mk_fc.add_argument("--in", dest="infile", help="truth-table JSON file (default stdin)")
    mk_fc.set_defaults(func=_cmd_box_make, kind="fullcorr")
    for name, func, extra in (
        ("check", _cmd_box_check, ()),
        ("local", _cmd_box_local, ("cap",)),
        ("chsh", _cmd_box_chsh, ()),
    ):
        p = box.add_parser(name)
        p.add_argument("--in", dest="infile", help="box JSON file (default stdin)")
        if "cap" in extra:
            p.add_argument("--cap", type=int, default=10 ** 6)
        p.set_defaults(func=func)
    p = box.add_parser("marginal")
    p.add_argument("--in", dest="infile")
    p.add_argument("--parties", required=True, help="comma-separated party indices")
    p.add_argument("--complement-inputs", help="comma-separated inputs for the other parties")
    p.set_defaults(func=_cmd_box_marginal)

    circuit = sub.add_parser("circuit", help="truth tables and NAND circuits").add_subparsers(dest="cmd")
    p = circuit.add_parser("synth")
    p.add_argument("--in", dest="infile", help="truth-table JSON (default stdin)")
    p.add_argument("--names", help="comma-separated input names")
    p.set_defaults(func=_cmd_circuit_synth)
    p = circuit.add_parser("eval")
    p.add_argument("--in", dest="infile", help="circuit JSON or netlist (default stdin)")
    p.add_argument("--assignment", required=True, help="bit string in input order")
    p.set_defaults(func=_cmd_circuit_eval)
    p = circuit.add_parser("table")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_circuit_table)

    p = sub.add_parser("compile", help="compile a circuit into a PR-box protocol")
    p.add_argument("--in", dest="infile", help="circuit JSON or netlist (default stdin)")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--map", required=True, help="ownership, ';' between parties, ',' between bits: a,b;c,d")
    p.add_argument("--verify-target", action="store_true", help="also verify against the parity box")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="execute a protocol exactly or by sampling")
    p.add_argument("--in", dest="infile", help="protocol JSON (default stdin)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--sample", action="store_true")
    p.add_argument("--x", help="comma-separated inputs; omit in exact mode for the full box")
    p.add_argument("--seed", type=int)
    p.add_argument("--runs", type=int, default=100000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="compare a protocol's induced box to a target box")
    p.add_argument("--in", dest="infile", help="protocol JSON (default stdin)")
    p.add_argument("--target", required=True, help="target box JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cc", help="communication-complexity run over a compiled protocol")
    p.add_argument("--in", dest="infile", help="compiled protocol JSON (default stdin)")
    p.add_argument("--x", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_cc)

    polytope = sub.add_parser("polytope", help="no-signaling polytope operations").add_subparsers(dest="cmd")
    p = polytope.add_parser("vertices")
    p.add_argument("--inputs", required=True, help="e.g. 2,2")
    p.add_argument("--outputs", required=True, help="e.g. 2,2")
    p.add_argument("--cap", type=int, default=15)
    p.set_defaults(func=_cmd_polytope_vertices)
    p = polytope.add_parser("classify")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_polytope_classify)
    p = polytope.add_parser("decompose")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_polytope_decompose)

    cluster = sub.add_parser("cluster", help="ring-cluster constraints and searches").add_subparsers(dest="cmd")
    p = cluster.add_parser("constraints")
    p.set_defaults(func=_cmd_cluster_constraints)
    p = cluster.add_parser("ghz")
    p.set_defaults(func=_cmd_cluster_ghz)
    p = cluster.add_parser("search")
    p.add_argument("--boxes", type=int, default=1)
    p.add_argument("--inverted", action="store_true", help="flip the five-party target (sanity check)")
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.set_defaults(func=_cmd_cluster_search)

    return parser


def _schema_dir():
    return os.path.join(os.path.dirname(__file__), "schemas")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        names = sorted(f[:-5] for f in os.listdir(_schema_dir()) if f.endswith(".json"))
        if args.schema == "list":
            _emit({"schemas": names})
            return 0
        if args.schema not in names:
            print(f"unknown schema {args.schema!r}; available: {', '.join(names)}", file=sys.stderr)
            return 2
        with open(os.path.join(_schema_dir(), args.schema + ".json")) as fh:
            sys.stdout.write(fh.read())
        return 0
    if args.threads < 1:
        print("--threads must be at least 1", file=sys.stderr)
        return 2
    func = getattr(args, "func", None)
    if func is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        code, payload = func(args)
    except TooLarge as err:
        print(f"limit exceeded: {err}", file=sys.stderr)
        return 2
    except BoxworldError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
