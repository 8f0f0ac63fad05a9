"""boxworld benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run builds its inputs from --seed, repeats timed passes over
them for --seconds and at least the workload's MIN_PASSES (a cli pass
always runs in full, so that its 90th percentile has at least ten calls
beyond it; census makes three passes), checks every
output against the independent references in refs.py outside the timed
region, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a fixed speed of a reference kernel timed during the
run (reference.py).  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones (tracing.py).  --smoke runs one small pass; --corrupt also corrupts one
expected value, which must show up as a failed operation (selftest.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import REF_SECONDS, Reference, trimmed_mean  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
WORKLOADS = ("sweep", "census", "sample", "cli")
SETUP_SAMPLES = 5  # this process plus four probe processes

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class OpTimeout(Exception):
    pass


class Op:
    """One timed call into the program and what came back."""

    __slots__ = ("kind", "seconds", "result", "error", "check", "work", "key")

    def __init__(self, kind, check, work, key):
        self.kind = kind
        self.check = check
        self.work = work
        self.key = key
        self.result = None
        self.error = None
        self.seconds = 0.0


def _on_alarm(signum, frame):
    raise OpTimeout()


def call(kind, fn, args=(), kwargs=None, check=None, work=1, timeout=60.0, key=None, *, ref):
    """Time fn(*args, **kwargs) under a timeout; an exception or a timeout
    is recorded on the Op and counted as a failed operation.  `check`
    (result, expectations) -> reason or None runs later, untimed.  Calls
    with the same `key` do the same work (by default: the same position
    in every pass), and their times are pooled (typical_pass).  `ref`
    takes a sample of the reference kernel before the call, if one is due."""
    ref.tick()
    op = Op(kind, check, work, key)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        op.result = fn(*args, **(kwargs or {}))
    except OpTimeout:
        op.error = f"timeout after {timeout:g}s"
    except Exception as exc:  # any program error is a failed op, not a crash
        op.error = f"{type(exc).__name__}: {exc}"
    finally:
        op.seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return op


def check_ops(ops, expect):
    """Reasons for every failed op (errors first, then wrong outputs)."""
    reasons = []
    for op in ops:
        if op.error is not None:
            reasons.append(f"{op.kind}: {op.error}")
            continue
        if op.check is None:
            continue
        try:
            reason = op.check(op.result, expect)
        except Exception as exc:  # a malformed output is a wrong output
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            reasons.append(f"{op.kind}: {reason}")
    return reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pin_to_one_cpu():
    """Run this process, and the processes it starts, on one CPU.

    The host's neighbours load each CPU differently, and the load moves
    between them.  On one CPU the reference kernel meets the same
    neighbours as the program, cli children and set-up probes included."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not allowed: run unpinned
        pass


def setup_probe(workload, seed):
    """Set-up time of a fresh process (import plus input generation)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(wl, inputs, seconds, expect, smoke, traced_too, ref, probe=None):
    """Timed passes until `seconds` have elapsed and the workload's
    MIN_PASSES are done.  With traced_too, untraced and traced passes
    alternate.  `probe`, if given, is called SETUP_SAMPLES - 1 times
    between passes, spread over the run, and its results are returned."""
    from tracing import Tracer, instrument, summarize

    plain, traced = [], []  # (wall, ops) / (wall, ops, summary, counts, spans)
    attempted = 0
    reasons = []
    probes = []
    due = [seconds * k / SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)] if probe else []
    timed = functools.partial(call, ref=ref)
    start = time.perf_counter()
    while True:
        gc.collect()  # every pass starts from the same heap, whatever the last one left
        t0 = time.perf_counter()
        ops = wl.run_pass(inputs, timed)
        plain.append((time.perf_counter() - t0, ops))
        if traced_too:
            tracer = Tracer()
            scope = instrument(tracer) if wl.IN_PROCESS else nullcontext()
            gc.collect()
            with scope:
                t0 = time.perf_counter()
                tops = wl.run_pass(inputs, timed, tracer=tracer)
                wall = time.perf_counter() - t0
            traced.append((wall, tops, summarize(tracer.spans), dict(tracer.counts), list(tracer.spans)))
        for pass_ops in [plain[-1][1]] + ([traced[-1][1]] if traced_too else []):
            attempted += len(pass_ops)
            reasons += check_ops(pass_ops, expect)
            for op in pass_ops:  # keep memory flat across passes
                op.result = op.check = None
        while due and time.perf_counter() - start >= due[0]:
            probed = time.perf_counter()
            probes.append(probe())
            due.pop(0)
            start += time.perf_counter() - probed  # probes take no time from the passes
        if smoke or (len(plain) >= wl.MIN_PASSES and time.perf_counter() - start >= seconds):
            break
    probes += [probe() for _ in due]
    return plain, traced, attempted, reasons, probes


def typical_pass(plain):
    """The first pass with every call at its typical time over the run.

    Calls with the same key do the same work: the call at the same
    position in every pass, or the calls a workload keys alike (several
    calls per pass of the same kind on the same input).  A call's typical
    time is the trimmed mean of its group's times, the statistic the
    reference kernel is summarised by (reference.py)."""
    groups = {}
    for _, ops in plain:
        for i, op in enumerate(ops):
            groups.setdefault(op.key if op.key is not None else (op.kind, i), []).append(op.seconds)
    return [
        (trimmed_mean(groups[op.key if op.key is not None else (op.kind, i)]), op)
        for i, op in enumerate(plain[0][1])
    ]


def end_to_end(wl, plain, scale):
    """Metrics of the typical pass, its times scaled (reference.py)."""
    typical = [(seconds * scale, op) for seconds, op in typical_pass(plain)]
    wall = sum(seconds for seconds, _ in typical)
    latencies = [seconds * 1000.0 for seconds, _ in typical]
    who = resource.RUSAGE_CHILDREN if not wl.IN_PROCESS else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    walls = [w * scale for w, _ in plain]
    return {
        "wall_s": (wall, walls),
        "ops_per_s": (
            wl.throughput(typical, wall),
            [wl.throughput([(op.seconds * scale, op) for op in ops], w * scale) for w, ops in plain],
        ),
        "call_p50_ms": (statistics.median(latencies), latencies),
        "call_p90_ms": (percentile(latencies, 90), latencies),
        "peak_rss_mb": (peak_mb, [peak_mb]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass (self-test)")
    parser.add_argument("--corrupt", action="store_true", help="corrupt one expected value (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "boxworld" / "__init__.py").is_file():
        print(f"error: no boxworld sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    # child processes (set-up probes, cli calls) import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    signal.signal(signal.SIGALRM, _on_alarm)

    wl = importlib.import_module(f"wl_{args.workload}")
    inputs = wl.setup(args.seed, smoke=args.smoke)
    setup_here = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    from refs import Expectations

    expect = Expectations()
    expect.corrupt_next = args.corrupt
    # set-ups are sampled in fresh processes between passes, so that they
    # meet the host at several moments of the run
    probe = None if args.smoke or args.trace else lambda: setup_probe(args.workload, args.seed)
    ref = Reference()
    try:
        plain, traced, attempted, reasons, probes = run_passes(
            wl, inputs, args.seconds, expect, args.smoke, traced_too=bool(args.trace), ref=ref, probe=probe
        )
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown(inputs)
    failed = len(reasons)
    if len(ref.samples) < 20:  # a short run (smoke) has few samples
        ref.burst()
    scale = ref.scale()

    metrics = {}
    numpy = sys.modules.get("numpy")
    lines = [
        f"boxworld bench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(plain)}" + (f"+{len(traced)} traced" if traced else "") + f" attempted={attempted} "
        f"failed={failed} fail_frac={failed / attempted:.6g} ({failed}/{attempted} ops)",
        f"  machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={getattr(numpy, '__version__', 'not loaded')}",
        f"  reference kernel: {len(ref.samples)} samples, trimmed mean {REF_SECONDS / scale * 1000:.4g} ms; "
        f"times are scaled by {scale:.4g} to {REF_SECONDS * 1000:g} ms (reference.py)",
    ]
    if args.trace == 0:
        values = end_to_end(wl, plain, scale)
        setups = [seconds * scale for seconds in [setup_here] + probes]
        values["setup_s"] = (statistics.median(setups), setups)
        for name, unit in END_TO_END:
            value, samples = values[name]
            q1, q3 = quartiles(samples)
            metrics[name] = {"value": value, "unit": unit}
            alias = wl.ALIASES.get(name)
            lines.append(
                f"  {name:<12} {value:14.6g} {unit:<6} n={len(samples):<5} q1={q1:.6g} q3={q3:.6g}"
                + (f"  ({alias})" if alias else "")
            )
    else:
        from tracing import LAYER_METRICS, layer_values

        summaries = [s for _, _, s, _, _ in traced]
        values = layer_values(summaries, traced[0][3])
        if hasattr(wl, "layer_extras"):
            values.update(wl.layer_extras(inputs, plain))
        untraced_wall = statistics.median(w for w, _ in plain)
        traced_wall = statistics.median(w for w, _, _, _, _ in traced)
        values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        for name, unit, _, moves in LAYER_METRICS:
            value = values.get(name, 0)
            if unit in ("s", "ms"):
                value *= scale
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<44} {value:14.6g} {unit:<6} -> {moves}")
        WORK_DIR.mkdir(exist_ok=True)
        with open(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump([spans for _, _, _, _, spans in traced], fh)
    for reason in reasons[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
