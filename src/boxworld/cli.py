"""Command-line front end with stable JSON I/O.

Every subcommand reads JSON (file or stdin), writes one JSON document to
stdout, and uses the exit-code convention: 0 = computed and positive,
1 = computed and negative (a verification mismatch, a signaling/nonlocal
verdict, a search counterexample), 2 = usage or cap errors, malformed or
wrongly shaped input included, and a stdout closed before the output was
written.  Exact modes are deterministic: identical inputs give
byte-identical output; rationals are always "num/den" strings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import BoxworldError, DimensionMismatch, TooLarge
from .rational import format_rational, parse_int

# Each handler and loader imports the library modules it runs, so a call
# compiles only those: `box check` never loads the compiler or the solvers.
# The imports below serve the annotations alone.
if TYPE_CHECKING:
    from .boxes import Box
    from .circuits import NandCircuit, TruthTable
    from .wiring import WiringProtocol


# What a malformed or wrongly shaped input document raises while it is
# decoded and turned into objects: invalid JSON, a missing key, a list where
# an object belongs, a string where a number belongs.
_SHAPE_ERRORS = (KeyError, IndexError, TypeError, ValueError, AttributeError, ArithmeticError)


@contextlib.contextmanager
def _loading(what):
    """Report a shape error raised while loading `what` as a usage error
    (exit 2, no traceback).  Only loading is wrapped, so a fault in a
    computation on well-formed input still surfaces."""
    try:
        yield
    except _SHAPE_ERRORS as err:
        raise BoxworldError(f"malformed {what}: {type(err).__name__}: {err}") from err


def _int_list(text) -> tuple[int, ...]:
    """argparse type: comma-separated integers such as 1,0,1; empty items are skipped."""
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _at_least(minimum):
    """argparse type: an integer no smaller than `minimum`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {minimum}, got {value}")
        return value

    return parse


def _bit_string(text) -> tuple[int, ...]:
    """argparse type: a string of binary digits such as 0110."""
    if set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"expected a string of 0s and 1s, got {text!r}")
    return tuple(int(c) for c in text)


def _cap(args, keyword="cap"):
    """`--cap` as keyword arguments; none when the option is not given, so
    the library function's own default cap holds."""
    return {} if args.cap is None else {keyword: args.cap}


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _not_an_integer(text):
    raise ValueError(f"number {text} is not an integer")


def _object(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _decode(text):
    """JSON whose numbers are integers: a float, NaN or Infinity is a
    ValueError, since reading it with int() would truncate it, and so is a
    key named twice in one object, where json.loads keeps the last value."""
    return json.loads(text, parse_float=_not_an_integer, parse_constant=_not_an_integer, object_pairs_hook=_object)


@_loading("JSON input")
def _read_json(path):
    return _decode(_read_text(path))


@_loading("box")
def _read_box(path) -> Box:
    from .boxes import Box

    return Box.from_json_dict(_read_json(path))


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


@_loading("circuit")
def _load_circuit(path) -> NandCircuit:
    from .circuits import NandCircuit, parse_netlist

    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return NandCircuit.from_json_dict(_decode(text))
    return parse_netlist(text)


@_loading("truth table")
def _load_truth_table(data) -> TruthTable:
    from .circuits import TruthTable

    if isinstance(data, dict) and "truth_table" in data:
        data = data["truth_table"]
    return TruthTable(parse_int(data["n_vars"]), tuple(map(parse_int, data["bits"])))


def _load_protocol(data) -> WiringProtocol:
    """A table protocol, or the protocol of a compiled-circuit envelope."""
    from .circuits import NandCircuit
    from .compiler import compile_circuit
    from .wiring import WiringProtocol

    with _loading("protocol"):
        if data.get("type") != "compiled":
            return WiringProtocol.from_json_dict(data)
        circuit = NandCircuit.from_json_dict(data["circuit"])
        parties = parse_int(data["parties"])
        bit_map = data["party_bit_map"]
        if not all(type(group) is list and all(type(name) is str for name in group) for group in bit_map):
            raise DimensionMismatch(f"party_bit_map must list strings for each party, got {bit_map!r}")
    return compile_circuit(circuit, parties, bit_map).protocol


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, payload)
# ---------------------------------------------------------------------------


def _cmd_box_make(args):
    from .boxes import full_correlation_box, pr_box

    if args.kind == "pr":
        return 0, pr_box().to_json_dict()
    data = _read_json(args.infile) if (args.function is None) else None
    if args.function is not None:
        n_vars = args.parties * args.bits
        if len(args.function) != 2 ** n_vars:
            raise BoxworldError(
                f"--function needs {2 ** n_vars} bits for {args.parties} parties x {args.bits} bits"
            )
        from .circuits import TruthTable

        table = TruthTable(n_vars, args.function)
    else:
        table = _load_truth_table(data)
    box = full_correlation_box(args.parties, args.bits, table)
    return 0, box.to_json_dict()


def _cmd_box_check(args):
    from .boxes import check_no_signaling

    box = _read_box(args.infile)
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
    from .locality import is_local

    box = _read_box(args.infile)
    verdict = is_local(box, **_cap(args))
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
    from .boxes import marginal

    box = _read_box(args.infile)
    m = marginal(box, args.parties, args.complement_inputs or None)
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
    from .boxes import chsh_value

    box = _read_box(args.infile)
    return 0, {"chsh": format_rational(chsh_value(box))}


def _cmd_circuit_synth(args):
    from .circuits import gate_count, synthesize_nand

    table = _load_truth_table(_read_json(args.infile))
    names = args.names.split(",") if args.names else None
    circuit = synthesize_nand(table, names)
    payload = circuit.to_json_dict()
    payload["gate_count"] = gate_count(circuit)
    return 0, payload


def _cmd_circuit_eval(args):
    from .circuits import eval_circuit

    circuit = _load_circuit(args.infile)
    return 0, {"value": eval_circuit(circuit, args.assignment)}


def _cmd_circuit_table(args):
    from .circuits import truth_table

    circuit = _load_circuit(args.infile)
    table = truth_table(circuit)
    return 0, {"n_vars": table.n_vars, "bits": list(table.bits)}


def _cmd_compile(args):
    from .circuits import gate_count
    from .compiler import compile_circuit, verify_simulation

    circuit = _load_circuit(args.infile)
    bit_map = [group.split(",") if group else [] for group in args.map.split(";")]
    compiled = compile_circuit(circuit, args.parties, bit_map)
    verified = None
    if args.verify_target:
        verified = bool(verify_simulation(compiled, compiled.target_box()))
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


def _cmd_simulate(args):
    from .wiring import execute_exact, execute_sample, induced_box

    protocol = _load_protocol(_read_json(args.infile))
    x = args.x
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
        return 0, {"mode": "exact", "distribution": execute_exact(protocol, x).to_json_dict()}
    return 0, {"mode": "exact", "box": induced_box(protocol).to_json_dict()}


def _cmd_verify(args):
    from .compiler import verify_simulation

    protocol = _load_protocol(_read_json(args.infile))
    target = _read_box(args.target)
    verdict = verify_simulation(protocol, target)
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
    from .compiler import compiled_owner, solve_cc

    compiled = compiled_owner(_load_protocol(_read_json(args.infile)))
    if compiled is None:
        raise BoxworldError("cc expects a compiled-circuit protocol envelope")
    result = solve_cc(compiled, x=args.x, seed=args.seed or 0)
    return 0, {
        "value": result.value,
        "bits_communicated": result.bits_communicated,
        "boxes_consumed": result.boxes_consumed,
        "transcript": [
            {"from": f, "to": t, "bit": bit} for f, t, bit in result.transcript
        ],
    }


def _cmd_polytope_vertices(args):
    from .polytope import build_h_rep, classify_vertex, enumerate_vertices

    h = build_h_rep(args.inputs, args.outputs, **_cap(args, "dimension_cap"))
    vertices = enumerate_vertices(h)
    reports = []
    for v in vertices:
        rep = classify_vertex(v, h, check=False)
        entry = {"box": v.to_json_dict(), "class": rep.classification}
        if rep.f_table is not None:
            entry["f"] = [list(t) for t in rep.f_table]
        reports.append(entry)
    return 0, {
        "dimension": h.dimension,
        "count": len(vertices),
        "vertices": reports,
    }


def _cmd_polytope_classify(args):
    from .polytope import classify_vertex

    box = _read_box(args.infile)
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
    from .polytope import build_h_rep, decompose, enumerate_vertices

    box = _read_box(args.infile)
    h = build_h_rep(box.input_sizes, box.output_sizes)
    vertices = enumerate_vertices(h)
    weights = decompose(box, vertices)
    entries = [
        {"vertex": v.to_json_dict(), "w": format_rational(w)}
        for v, w in zip(vertices, weights)
        if w != 0
    ]
    return 0, {"weights": entries}


def _cmd_cluster_constraints(args):
    from .cluster import cluster_constraints

    cs = cluster_constraints()
    return 0, {
        "n_parties": cs.n_parties,
        "constraints": [
            {"terms": [[p, s] for p, s in c.terms], "target": c.target}
            for c in cs.constraints
        ],
    }


def _cmd_cluster_ghz(args):
    from .cluster import ghz_local_search

    report = ghz_local_search()
    code = 0 if report.satisfying_assignments == 0 else 1
    return code, {
        "satisfying_assignments": report.satisfying_assignments,
        "max_simultaneous": report.max_simultaneous,
        "space": report.space,
    }


def _cmd_cluster_search(args):
    from .cluster import inverted_cluster_constraints, simulation_search

    constraints = inverted_cluster_constraints() if args.inverted else None
    report = simulation_search(args.boxes, constraints=constraints, **_cap(args))
    payload = {
        "boxes": report.boxes,
        "assignments_tested": report.assignments_tested,
        "strategies_tested": report.strategies_tested,
        "success": report.success,
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
    parser.add_argument("--schema", metavar="NAME", help="print the JSON schema NAME and exit (use 'list' to list)")
    sub = parser.add_subparsers(dest="group")

    box = sub.add_parser("box", help="box constructors and checks").add_subparsers(dest="cmd")
    make = box.add_parser("make", help="construct standard boxes")
    make_sub = make.add_subparsers(dest="kind")
    mk_pr = make_sub.add_parser("pr")
    mk_pr.set_defaults(func=_cmd_box_make, kind="pr")
    mk_fc = make_sub.add_parser("fullcorr")
    mk_fc.add_argument("--parties", type=_at_least(1), required=True)
    mk_fc.add_argument("--bits", type=_at_least(0), required=True)
    mk_fc.add_argument("--function", type=_bit_string, help="truth-table bits, e.g. 0001 for AND (row order little-endian)")
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
            p.add_argument("--cap", type=int)
        p.set_defaults(func=func)
    p = box.add_parser("marginal")
    p.add_argument("--in", dest="infile")
    p.add_argument("--parties", type=_int_list, required=True, help="comma-separated party indices")
    p.add_argument("--complement-inputs", type=_int_list, help="comma-separated inputs for the other parties")
    p.set_defaults(func=_cmd_box_marginal)

    circuit = sub.add_parser("circuit", help="truth tables and NAND circuits").add_subparsers(dest="cmd")
    p = circuit.add_parser("synth")
    p.add_argument("--in", dest="infile", help="truth-table JSON (default stdin)")
    p.add_argument("--names", help="comma-separated input names")
    p.set_defaults(func=_cmd_circuit_synth)
    p = circuit.add_parser("eval")
    p.add_argument("--in", dest="infile", help="circuit JSON or netlist (default stdin)")
    p.add_argument("--assignment", type=_bit_string, required=True, help="bit string in input order")
    p.set_defaults(func=_cmd_circuit_eval)
    p = circuit.add_parser("table")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_circuit_table)

    p = sub.add_parser("compile", help="compile a circuit into a PR-box protocol")
    p.add_argument("--in", dest="infile", help="circuit JSON or netlist (default stdin)")
    p.add_argument("--parties", type=_at_least(1), required=True)
    p.add_argument("--map", required=True, help="ownership, ';' between parties, ',' between bits: a,b;c,d")
    p.add_argument("--verify-target", action="store_true", help="also verify against the parity box")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="execute a protocol exactly or by sampling")
    p.add_argument("--in", dest="infile", help="protocol JSON (default stdin)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--sample", action="store_true")
    p.add_argument("--x", type=_int_list, help="comma-separated inputs; omit in exact mode for the full box")
    p.add_argument("--seed", type=int)
    p.add_argument("--runs", type=_at_least(1), default=100000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="compare a protocol's induced box to a target box")
    p.add_argument("--in", dest="infile", help="protocol JSON (default stdin)")
    p.add_argument("--target", required=True, help="target box JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cc", help="communication-complexity run over a compiled protocol")
    p.add_argument("--in", dest="infile", help="compiled protocol JSON (default stdin)")
    p.add_argument("--x", type=_int_list, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_cc)

    polytope = sub.add_parser("polytope", help="no-signaling polytope operations").add_subparsers(dest="cmd")
    p = polytope.add_parser("vertices")
    p.add_argument("--inputs", type=_int_list, required=True, help="e.g. 2,2")
    p.add_argument("--outputs", type=_int_list, required=True, help="e.g. 2,2")
    p.add_argument("--cap", type=int)
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
    p.add_argument("--boxes", type=_at_least(0), default=1)
    p.add_argument("--inverted", action="store_true", help="flip the five-party target (sanity check)")
    p.add_argument("--cap", type=int)
    p.set_defaults(func=_cmd_cluster_search)

    return parser


def _schema_dir():
    return os.path.join(os.path.dirname(__file__), "schemas")


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull, so the
        # interpreter's final flush of what is left stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def _run(argv) -> int:
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
