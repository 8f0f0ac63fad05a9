"""Self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Checks, in order:
  1. the independent references agree with a few facts from the paper;
  2. every workload's smoke run (one small pass) attempts ops, fails none
     and reports exactly the end-to-end metrics of BENCHMARK.json;
  3. with --corrupt (one expected value corrupted) every workload counts
     a failed op and reports correct = false;
  4. traced smoke runs report exactly the per-layer metrics, and their
     work counters repeat identically from run to run;
  5. in a directory holding only BENCHMARK.json and the benchmark's files
     the benchmark exits non-zero without printing a result.
"""

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", *extra],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    return proc


def expect(ok, what):
    if not ok:
        raise SystemExit(f"FAIL {what}")


def result_of(proc):
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_references():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import boxworld as bw

    import refs

    expect(refs.separable(2, [0, 1, 1, 0]) and not refs.separable(2, [0, 0, 0, 1]), "separable")
    pr = refs.pr_table()
    for x in refs.x_tuples((2, 2)):
        dist = refs.table_protocol_distribution(bw.identity_wiring(bw.pr_box()), x, bw.STOP)
        expect(dist == {a: p for (xx, a), p in pr.items() if xx == x}, f"identity PR wiring at x={x}")
    classes = [refs.vertex_class(refs.deterministic_table((2, 2), r), (2, 2), (2, 2))
               for r in itertools.product(itertools.product((0, 1), repeat=2), repeat=2)]
    expect(classes == ["local-deterministic"] * 16, "deterministic vertices")
    expect(refs.vertex_class(pr, (2, 2), (2, 2)) == "pr-equivalent", "PR vertex")
    noisy = refs.mix_tables([(Fraction(1, 2), pr), (Fraction(1, 2), refs.uniform_table(2, (2, 2)))])
    expect(refs.vertex_class(noisy, (2, 2), (2, 2)) == "other", "noisy PR is no vertex")
    half = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    expect(refs.within_five_sigma({(0, 0): 5, (1, 1): 5}, half, 10) is None, "fair counts pass")
    expect(refs.within_five_sigma({(0, 1): 1}, {(0, 0): Fraction(1)}, 1) is not None, "forbidden outcome fails")
    still = [[False, 0, [0, 0]]] * 2
    zeros = {"assignment": [0, 1], "owner_strategies": {"0": still, "1": still},
             "outputs": {str(p): [0, 0] for p in range(2, 5)}}
    expect(refs.check_one_box_counterexample(zeros, refs.ring_cluster_constraints(inverted=True)) is None,
           "all-zero outputs meet the inverted cluster constraints")
    expect(refs.check_one_box_counterexample(zeros, refs.ring_cluster_constraints()) is not None,
           "all-zero outputs break the cluster constraints")
    print("PASS references agree with the definitions")


def main():
    check_references()
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for w in SPEC["workloads"]:
        name = w["name"]
        res = result_of(bench(name, "--smoke"))
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{name} smoke run: {res}")
        expect(list(res["metrics"]) == end_to_end, f"{name} end-to-end metrics: {list(res['metrics'])}")
        bad = result_of(bench(name, "--smoke", "--corrupt"))
        expect(not bad["correct"] and bad["failed"] >= 1, f"{name} corrupted run: {bad}")
        print(f"PASS {name}: smoke run clean ({res['attempted']} ops); corrupted expectation counted as failed")
    counts = [m for m, spec in zip(per_layer, SPEC["per_layer"]) if spec["unit"] == "count"]
    for name in (w["name"] for w in SPEC["workloads"]):
        first = result_of(bench(name, "--smoke", "--trace", "1"))
        second = result_of(bench(name, "--smoke", "--trace", "1"))
        expect(list(first["metrics"]) == per_layer, f"{name} per-layer metrics: {list(first['metrics'])}")
        expect(all(first["metrics"][m]["value"] == second["metrics"][m]["value"] for m in counts), f"{name} counters")
        print(f"PASS {name}: traced smoke run reports every per-layer metric; counters repeat exactly")
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout, f"bare directory run: exit {proc.returncode}")
    print("PASS without the sources the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    main()
