"""Repeat the benchmark over seeds and write a run record.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/record.json
    python3 perfbench/record.py --seeds 1 --trace --out perfbench/record-trace.json

Runs perfbench/run.py once per (workload, seed) for every workload in
BENCHMARK.json, with its run_seconds, one run at a time.  It records for
every metric its values, median, quartiles and spread (the distance
between the quartiles of statistics.quantiles(values, n=4) as a share of
the median) next to the bound in BENCHMARK.json, together with the
machine (nproc, CPU model, Python and numpy versions), the commit and the
seeds.  With --trace it records the per-layer metrics instead.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
    ).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy or "unknown",
        "commit": commit or "unknown",
    }


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    record = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "trace": int(args.trace),
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"])]
            proc = subprocess.run(
                spec["command"] + argv + ["--trace", str(int(args.trace))],
                capture_output=True,
                text=True,
                cwd=ROOT,
            )
            took = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(
                f"{workload} seed={seed} took={took:.1f}s attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry = {"unit": runs[0]["metrics"][name]["unit"], "n": len(values), "values": values}
            entry["median"] = statistics.median(values)
            if len(values) >= 2 and entry["median"]:
                entry["q1"], entry["q3"], entry["spread"] = spread(values)
            if name in bounds:
                entry["bound"] = bounds[name]
                flag = "ok" if entry.get("spread", 0) < bounds[name] / 3 else "WIDE"
                print(f"  {workload:<7} {name:<12} median={entry['median']:.6g} spread={entry.get('spread', 0):.4f} "
                      f"bound={bounds[name]} {flag}", flush=True)
            metrics[name] = entry
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
