"""sweep: a seeded slice of acceptance criterion 1 (compile and verify).

Every 2-party and 3-party 1-bit Boolean function plus a seeded sample of
the 65,536 2-party 2-bit truth tables, each over every ownership split,
through synthesize_nand -> affine_outcome_counts -> cc_values; a seeded
subsample is also compiled in full and run through induced_box_fast and
solve_cc on every input.  compiler and circuits do almost all the work;
polytope, exactlp and wiring stay idle, so a change there must show
nothing here.  An op is one function (all its splits) or one compiled
case; ops_per_s counts verified (function, split) cases per second.
"""

import random
from dataclasses import dataclass

import boxworld as bw
from boxworld import compiler

import refs

IN_PROCESS = True
MIN_PASSES = 1
ALIASES = {"ops_per_s": "cases_per_s: verified (function, split) cases per second"}
SAMPLE_2X2 = 300  # seeded 2-party 2-bit truth tables per pass
COMPILED = 6  # seeded functions compiled in full per pass
SMOKE = {"2x1": 16, "3x1": 8, "2x2": 4, "compiled": 1}


@dataclass(frozen=True)
class Function:
    n: int
    m: int
    mask: int
    table: object  # boxworld TruthTable
    names: tuple
    splits: tuple


def setup(seed, smoke=False):
    rng = random.Random(seed)
    functions = []
    for n, m, count in ((2, 1, 16), (3, 1, 256), (2, 2, SAMPLE_2X2)):
        n_vars = n * m
        space = 2 ** (2 ** n_vars)
        if smoke:
            count = SMOKE[f"{n}x{m}"]
        masks = range(space) if count == space else rng.sample(range(space), count)
        splits = refs.ownership_splits(n, m)
        names = tuple(f"b{i}" for i in range(n_vars))
        for mask in masks:
            table = bw.TruthTable.from_int(n_vars, mask)
            functions.append(Function(n, m, mask, table, names, splits))
    compiled = [
        (fn, fn.splits[rng.randrange(len(fn.splits))])
        for fn in rng.sample([f for f in functions if f.n * f.m > 2], SMOKE["compiled"] if smoke else COMPILED)
    ]
    return {"functions": functions, "compiled": compiled}


def _sweep_one(fn):
    circuit = bw.synthesize_nand(fn.table, list(fn.names))
    counts, denom = compiler.affine_outcome_counts(circuit, fn.n, fn.splits)
    values = compiler.cc_values(circuit, fn.n, fn.splits, seed=fn.mask & 0xFFFF)
    return circuit, counts, denom, values


def _compile_one(fn, split):
    circuit = bw.synthesize_nand(fn.table, list(fn.names))
    compiled = bw.compile_circuit(circuit, fn.n, split)
    box = bw.induced_box_fast(compiled)
    sizes = (2 ** fn.m,) * fn.n
    runs = [bw.solve_cc(compiled, x=x, seed=i) for i, x in enumerate(refs.x_tuples(sizes))]
    return compiled, box, runs


def _check_sweep(fn):
    def check(result, expect):
        circuit, counts, denom, values = result
        n, bits = fn.n, fn.table.bits
        xs = refs.x_tuples((2 ** fn.m,) * n)
        f_rows = [[bits[refs.owned_row(split, x)] for x in xs] for split in fn.splits]
        weight = denom >> (n - 1)
        want_counts = [
            [[weight if refs.parity(a) == f else 0 for a in range(2 ** n)] for f in rows] for rows in f_rows
        ]
        got_counts = [[[int(c) for c in row] for row in per_split] for per_split in counts]
        return refs.first_failure(
            (
                expect.same(refs.circuit_table(refs.circuit_parts(circuit), fn.names), list(bits), "synthesized table"),
                expect.holds(denom >= 2 ** (n - 1) and denom & (denom - 1) == 0, "denominator is a power of 2"),
                expect.same(got_counts, want_counts, "outcome counts vs parity table"),
                expect.same([int(v) for v in values], [f for rows in f_rows for f in rows], "cc values"),
            )
        )

    return check


def _check_compiled(fn, split):
    def check(result, expect):
        compiled, box, runs = result
        n = fn.n
        sizes = (2 ** fn.m,) * n
        f_of_x = lambda x: fn.table.bits[refs.owned_row(split, x)]  # noqa: E731
        boxes = len(compiled.circuit.gates) * n * (n - 1)
        return refs.first_failure(
            [expect.same(refs.box_table(box), refs.parity_table(n, sizes, f_of_x), "induced box vs parity box")]
            + [
                expect.same(
                    (r.value, r.bits_communicated, r.boxes_consumed), (f_of_x(x), n - 1, boxes), f"solve_cc at x={x}"
                )
                for r, x in zip(runs, refs.x_tuples(sizes))
            ]
        )

    return check


def run_pass(inputs, call, tracer=None):
    ops = [
        call("function", _sweep_one, (fn,), check=_check_sweep(fn), work=len(fn.splits))
        for fn in inputs["functions"]
    ]
    ops += [
        call("compiled", _compile_one, (fn, split), check=_check_compiled(fn, split), work=0)
        for fn, split in inputs["compiled"]
    ]
    return ops


def throughput(timed, wall):
    """Verified (function, split) cases per second over [(seconds, op)]."""
    return sum(op.work for _, op in timed) / wall
