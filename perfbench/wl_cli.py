"""cli: a seeded mix of the README pipelines, one `python -m boxworld`
process per call, run one after another (a closed loop with one client).

A pass is ROUNDS rounds of 21 calls plus the two cluster searches, 107
calls in all, so the 90th percentile has ten calls beyond it.  A round:

    box make pr | box check, box chsh, box local
    box make fullcorr (3 parties, seeded f) | box check, box local
    circuit synth (seeded 2-party 2-bit table) | compile (seeded split)
        | verify --target (box make fullcorr of the same function), cc,
        simulate --sample twice
    compile (seeded 3-party 2-gate netlist) | simulate --exact --x
    polytope vertices | polytope classify, polytope decompose
    cluster constraints, cluster ghz

then once per pass `cluster search --boxes 1` and the same with
--inverted.  Every call pays interpreter and numpy start-up plus argparse
and JSON I/O; this is what CLI users see, and the only home of `cluster`.
The 3-gate envelope of `simulate --exact` (25 s on the generic walk) is
left out for its cost; the 2-gate one runs the same code path.  Most
calls take start-up time plus a little; the 16 slowest of a pass (one
search, five exact and ten sampling simulations) are well above the rest,
so the 90th percentile lands inside that group rather than on the edge
between two groups, where it would jump between runs.  A call's
latency runs from process start to its exit, stdout read.  Checks parse
each payload and compare it with the references in refs.py; the
wall-clock `runtime_s` of `cluster search` is ignored.
"""

import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import boxworld.cli  # noqa: F401  (set-up includes the import cost every CLI call pays)

import refs
from cli_child import SPANS_PREFIX
from tracing import CLI_SUBCOMMANDS

IN_PROCESS = False
MIN_PASSES = 1
ALIASES = {
    "ops_per_s": "CLI calls per second",
    "call_p50_ms": "call_p50_ms: median call, process start to JSON on stdout",
    "call_p90_ms": "call_p90_ms: 90th percentile call",
}
ROUNDS = 5
SAMPLES = 2  # simulate --sample calls per round; see the module docstring
SAMPLE_RUNS = 400
CALL_TIMEOUT = 60.0
STARTUP_CALLS = 5
ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "cli_child.py"
SEARCH_STRATEGIES = 10 * 100 * 100 * 4**3  # all 10 pair assignments, one PR box


def setup(seed, smoke=False):
    rng = random.Random(seed)
    splits = refs.ownership_splits(2, 2)
    rounds = []
    for _ in range(1 if smoke else ROUNDS):
        f3 = [rng.randrange(2) for _ in range(8)]
        bits = [rng.randrange(2) for _ in range(16)]
        split = splits[rng.randrange(len(splits))]
        p, q, r = rng.sample(range(3), 3)
        rounds.append(
            {
                "f3": f3,
                "bits": bits,
                "split": split,
                "x2": (rng.randrange(4), rng.randrange(4)),
                "samples": [((rng.randrange(4), rng.randrange(4)), rng.randrange(2**31)) for _ in range(SAMPLES)],
                "gates": ((f"b{p}", f"b{q}"), ("g0", f"b{r}")),  # a 2-gate, 3-party netlist
                "x3": tuple(rng.randrange(2) for _ in range(3)),
                "vertex": rng.randrange(24),
                "mixture": (rng.sample(range(24), 2), Fraction(rng.randint(1, 4), 5)),
            }
        )
    work = ROOT / ".perfbench" / f"cli-{os.getpid()}"
    return {"rounds": rounds, "searches": not smoke, "work": work}


def teardown(inputs):
    shutil.rmtree(inputs["work"], ignore_errors=True)


def _run(argv, stdin, traced):
    """One CLI process; PYTHONPATH (set by run.py) points it at ./src."""
    cmd = [sys.executable, str(CHILD)] if traced else [sys.executable, "-m", "boxworld"]
    proc = subprocess.run(cmd + argv, input=stdin, capture_output=True, timeout=CALL_TIMEOUT, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def _skipped(kind):
    raise RuntimeError(f"not run: its input comes from a failed {kind} call")


def _expect_code(code, check_payload):
    def check(result, expect):
        reason = expect.same(result[0], code, "exit code")
        if reason is not None:
            return f"{reason} (stderr: {result[2].decode(errors='replace').strip()[-200:]})"
        return check_payload(json.loads(result[1]), expect) if check_payload else None

    return check


def _same_table(want):
    """Check of a box payload; `want` builds the expected table when the
    check runs, outside the timed pass."""
    return lambda payload, expect: expect.same(refs.json_table(payload), want(), "box table")


def _local_verdict(want, sizes, local):
    outputs = (2,) * len(sizes)

    def check(payload, expect):
        reason = expect.same(payload["local"], local, "locality verdict")
        if reason or not local:
            # the payload gives the witness's values but not its coefficients,
            # so only their order can be checked here
            return reason or expect.holds(
                Fraction(payload["witness"]["box_value"]) > Fraction(payload["witness"]["local_max"]),
                "witness separates",
            )
        weights = {tuple(map(tuple, w["responses"])): Fraction(w["w"]) for w in payload["weights"]}
        return refs.check_local_weights(want(), sizes, outputs, weights)

    return check


def _ghz_from(constraints_payload):
    """Own brute force of the GHZ-type constraints: (satisfying, max)."""
    best, satisfying = 0, 0
    for answers in itertools.product(itertools.product((0, 1), repeat=2), repeat=constraints_payload["n_parties"]):
        met = sum(
            (sum(answers[p][s] for p, s in c["terms"]) & 1) == c["target"] for c in constraints_payload["constraints"]
        )
        best = max(best, met)
        satisfying += met == len(constraints_payload["constraints"])
    return satisfying, best


def _round(cli, skip, rnd, target_path):
    """One round of the README pipelines; each pipeline feeds the stdout
    of one call to the next, as a shell pipe would."""
    no_signaling = lambda p, e: e.same(p, {"no_signaling": True}, "payload")  # noqa: E731

    pr_json = cli("box_make", ["box", "make", "pr"], check_payload=_same_table(refs.pr_table))
    for kind, argv, code, check_payload in (
        ("box_check", ["box", "check"], 0, no_signaling),
        ("box_chsh", ["box", "chsh"], 0, lambda p, e: e.same(p, {"chsh": "4/1"}, "payload")),
        ("box_local", ["box", "local"], 1, _local_verdict(refs.pr_table, (2, 2), False)),
    ):
        if pr_json is None:
            skip(kind, "box_make")
        else:
            cli(kind, argv, pr_json, code, check_payload)

    f3 = rnd["f3"]
    fc3 = lambda: refs.parity_table(3, (2, 2, 2), lambda x: f3[x[0] | x[1] << 1 | x[2] << 2])  # noqa: E731
    local3 = refs.separable(3, f3)
    fc3_json = cli(
        "box_make",
        ["box", "make", "fullcorr", "--parties", "3", "--bits", "1", "--function", "".join(map(str, f3))],
        check_payload=_same_table(fc3),
    )
    for kind, argv, code, check_payload in (
        ("box_check", ["box", "check"], 0, no_signaling),
        ("box_local", ["box", "local"], 0 if local3 else 1, _local_verdict(fc3, (2, 2, 2), local3)),
    ):
        if fc3_json is None:
            skip(kind, "box_make")
        else:
            cli(kind, argv, fc3_json, code, check_payload)

    bits, split = rnd["bits"], rnd["split"]
    f_of_x = lambda x: bits[refs.owned_row(split, x)]  # noqa: E731
    names = ["b0", "b1", "b2", "b3"]
    circuit_json = cli(
        "circuit_synth",
        ["circuit", "synth", "--names", ",".join(names)],
        json.dumps({"n_vars": 4, "bits": bits}).encode(),
        check_payload=lambda p, e: refs.first_failure(
            (
                e.same(refs.circuit_table(refs.json_circuit_parts(p), names), bits, "synthesized table"),
                e.same(p["gate_count"], len(p["gates"]), "gate count"),
            )
        ),
    )
    envelope = None
    if circuit_json is None:
        skip("compile", "circuit_synth")
    else:
        envelope = cli(
            "compile",
            ["compile", "--parties", "2", "--map", ";".join(",".join(g) for g in split)],
            circuit_json,
            check_payload=lambda p, e: e.same(
                (p["type"], p["parties"], p["pr_boxes"]), ("compiled", 2, 2 * p["k"]), "envelope"
            ),
        )
    owned_bits = "".join(str(f_of_x((r & 3, r >> 2))) for r in range(16))
    target_json = cli(
        "box_make",
        ["box", "make", "fullcorr", "--parties", "2", "--bits", "2", "--function", owned_bits],
        check_payload=_same_table(lambda: refs.parity_table(2, (4, 4), f_of_x)),
    )
    if envelope is None or target_json is None:
        for kind in ("verify", "cc") + ("simulate_sample",) * SAMPLES:
            skip(kind, "compile or box_make")
    else:
        target_path.write_bytes(target_json)
        cli(
            "verify",
            ["verify", "--target", str(target_path)],
            envelope,
            check_payload=lambda p, e: e.same(p, {"verified": True}, "payload"),
        )
        x = rnd["x2"]
        cli(
            "cc",
            ["cc", "--x", f"{x[0]},{x[1]}"],
            envelope,
            check_payload=lambda p, e: e.same((p["value"], p["bits_communicated"]), (f_of_x(x), 1), "cc value"),
        )
        for xs, seed in rnd["samples"]:

            def check_sample(p, e, xs=xs):
                want = {a: refs.parity_prob(2, f_of_x(xs), a) for a in itertools.product((0, 1), repeat=2)}
                counts = {tuple(c["a"]): c["n"] for c in p["counts"]}
                reason = refs.within_five_sigma(counts, {a: w for a, w in want.items() if w}, SAMPLE_RUNS)
                return e.same(reason, None, "sampled counts")

            cli(
                "simulate_sample",
                ["simulate", "--sample", "--x", f"{xs[0]},{xs[1]}"]
                + ["--seed", str(seed), "--runs", str(SAMPLE_RUNS)],
                envelope,
                check_payload=check_sample,
            )

    netlist = "input b0\ninput b1\ninput b2\n" + "".join(
        f"g{i} = NAND({left}, {right})\n" for i, (left, right) in enumerate(rnd["gates"])
    ) + "output g1\n"
    envelope3 = cli(
        "compile",
        ["compile", "--parties", "3", "--map", "b0;b1;b2"],
        netlist.encode(),
        check_payload=lambda p, e: e.same((p["k"], p["pr_boxes"]), (2, 12), "gates and PR boxes"),
    )
    x3 = rnd["x3"]

    def check_exact(p, e):
        f_x3 = refs.eval_nand(rnd["gates"], "g1", {}, {f"b{i}": x3[i] for i in range(3)})
        want = {a: refs.parity_prob(3, f_x3, a) for a in itertools.product((0, 1), repeat=3)}
        got = {tuple(o["a"]): Fraction(o["p"]) for o in p["distribution"]["outcomes"]}
        return e.same(got, {a: w for a, w in want.items() if w}, "exact distribution")

    if envelope3 is None:
        skip("simulate_exact", "compile")
    else:
        cli("simulate_exact", ["simulate", "--exact", "--x", ",".join(map(str, x3))], envelope3, check_payload=check_exact)

    def check_vertices(p, e):
        classes = {}
        for v in p["vertices"]:
            own = refs.vertex_class(refs.json_table(v["box"]), (2, 2), (2, 2))
            if own != v["class"]:
                return f"vertex class {v['class']!r}, own classification {own!r}"
            classes[own] = classes.get(own, 0) + 1
        return e.same((p["count"], classes), (24, {"local-deterministic": 16, "pr-equivalent": 8}), "census")

    vertices_json = cli(
        "polytope_vertices",
        ["polytope", "vertices", "--inputs", "2,2", "--outputs", "2,2"],
        check_payload=check_vertices,
    )
    if vertices_json is None:
        skip("polytope_classify", "polytope_vertices")
        skip("polytope_decompose", "polytope_vertices")
    else:
        boxes = [v["box"] for v in json.loads(vertices_json)["vertices"]]
        vertex = boxes[rnd["vertex"]]
        cli(
            "polytope_classify",
            ["polytope", "classify"],
            json.dumps(vertex).encode(),
            check_payload=lambda p, e: e.same(
                p["class"], refs.vertex_class(refs.json_table(vertex), (2, 2), (2, 2)), "class"
            ),
        )
        (i, j), w = rnd["mixture"]
        mixture = refs.mix_tables([(w, refs.json_table(boxes[i])), (1 - w, refs.json_table(boxes[j]))])
        mixture_json = {"parties": 2, "inputs": [2, 2], "outputs": [2, 2], "table": refs.table_json(mixture)}

        def check_decomposition(p, e):
            weights = [(Fraction(t["w"]), refs.json_table(t["vertex"])) for t in p["weights"]]
            return refs.first_failure(
                (
                    e.holds(all(w >= 0 for w, _ in weights), "weights are nonnegative"),
                    e.same(sum((w for w, _ in weights), Fraction(0)), Fraction(1), "weights sum"),
                    e.same(refs.mix_tables(weights), mixture, "re-expanded mixture"),
                )
            )

        cli(
            "polytope_decompose",
            ["polytope", "decompose"],
            json.dumps(mixture_json).encode(),
            check_payload=check_decomposition,
        )

    constraints_json = cli(
        "cluster_constraints",
        ["cluster", "constraints"],
        check_payload=lambda p, e: e.same(
            (p["n_parties"], refs.json_constraints(p)), (5, refs.ring_cluster_constraints()), "constraint set"
        ),
    )
    if constraints_json is None:
        skip("cluster_ghz", "cluster_constraints")
    else:

        def check_ghz(p, e):
            satisfying, best = _ghz_from(json.loads(constraints_json))
            want = {"satisfying_assignments": satisfying, "max_simultaneous": best, "space": 1024}
            return e.same(p, want, "payload")

        cli("cluster_ghz", ["cluster", "ghz"], check_payload=check_ghz)


def _searches(cli):
    cli(
        "cluster_search",
        ["cluster", "search", "--boxes", "1"],
        check_payload=lambda p, e: e.same(
            (p["boxes"], p["assignments_tested"], p["strategies_tested"], p["success"]),
            (1, 10, SEARCH_STRATEGIES, False),
            "search report",
        ),
    )
    cli(
        "cluster_search_inverted",
        ["cluster", "search", "--boxes", "1", "--inverted"],
        code=1,
        check_payload=lambda p, e: e.same(p["success"], True, "search finds a counterexample")
        or refs.check_one_box_counterexample(p["counterexample"], refs.ring_cluster_constraints(inverted=True)),
    )


def run_pass(inputs, call, tracer=None):
    traced = tracer is not None
    ops = []

    def cli(kind, argv, stdin=None, code=0, check_payload=None):
        op = call(
            kind, _run, (argv, stdin, traced), check=_expect_code(code, check_payload), timeout=CALL_TIMEOUT + 10
        )
        if traced and op.error is None:
            last = op.result[2].decode(errors="replace").rstrip().rsplit("\n", 1)[-1]
            if last.startswith(SPANS_PREFIX):
                data = json.loads(last[len(SPANS_PREFIX):])
                tracer.absorb(data["spans"], data["counts"])
        ops.append(op)
        return op.result[1] if op.error is None and op.result[0] == code else None

    def skip(kind, cause):
        ops.append(call(kind, _skipped, (cause,)))

    inputs["work"].mkdir(parents=True, exist_ok=True)
    for index, rnd in enumerate(inputs["rounds"]):
        _round(cli, skip, rnd, inputs["work"] / f"target-{index}.json")
    if inputs["searches"]:
        _searches(cli)
    return ops


def throughput(timed, wall):
    """Calls per second over [(seconds, op)]."""
    return len(timed) / wall


def layer_extras(inputs, plain):
    """cli.startup_ms (`--version`) and cli.<subcommand>.p50_ms from the
    untraced passes."""
    startup = []
    for _ in range(STARTUP_CALLS):
        start = time.perf_counter()
        _run(["--version"], None, traced=False)
        startup.append((time.perf_counter() - start) * 1000.0)
    values = {"cli.startup_ms": statistics.median(startup)}
    for kind in CLI_SUBCOMMANDS:
        times = [op.seconds * 1000.0 for _, ops in plain for op in ops if op.kind == kind]
        values[f"cli.{kind}.p50_ms"] = statistics.median(times) if times else 0.0
    return values
