"""sample: the 20-protocol corpus of acceptance criterion 8.

Per pass, for every corpus entry: CALLS_PER_ENTRY execute_sample calls at a
fixed number of runs (RUNS_COMPILED for the ten compiled circuits,
RUNS_TABLE for the decision-table protocols), plus the exact distribution
through the generic execute_exact where its branch walk is tractable and
compiled_distribution elsewhere.  The wiring branch walk and the exact
sampler do the work; compiled protocols run through per-party sessions,
not the affine sweep, so compiler is used differently than in sweep.
The seed picks the sampling seeds, the compiled entries' inputs and the
five-party constant outputs.  The circuits, the table protocols and their
inputs are those of criterion 8 and stay fixed: the cost of a table
protocol depends on the branch its input takes, and a seeded choice would
make runs disagree.  Each pass works on fresh copies of the protocols,
so validation is paid every pass, as in a fresh process.  A pass makes
the sampling calls round by round over the entries, so that an entry's
calls, whose times are pooled (run.typical_pass), fall at times spread
across the pass.  ops_per_s is
the geometric mean over entries of sampled runs per second.
"""

import dataclasses
import itertools
import math
import random

import boxworld as bw
from boxworld import compiler

import refs

IN_PROCESS = True
MIN_PASSES = 1
ALIASES = {"ops_per_s": "runs_per_s: geometric mean over corpus entries of sampled runs per second"}
CALLS_PER_ENTRY = 5  # 100 sampling calls per pass, so p90 has ten beyond it
RUNS_COMPILED = 100  # runs per call
RUNS_TABLE = 2000
DETERMINISM_ENTRIES = 4  # entries whose first call is re-drawn with the same seed
ENUMERATED_STRIDE = 2081  # five of the 10,000 one-box strategy profiles, as in criterion 8
TRACTABLE_SIDES = 14  # execute_exact on compiled protocols with at most this many box sides

COMPILED_SPECS = (
    ("AND", 2, 1, lambda b: b[0] & b[1]),
    ("NAND", 2, 1, lambda b: (b[0] & b[1]) ^ 1),
    ("XOR", 2, 1, lambda b: b[0] ^ b[1]),
    ("OR", 2, 1, lambda b: b[0] | b[1]),
    ("const1", 2, 1, lambda b: 1),
    ("projection", 2, 1, lambda b: b[0]),
    ("majority", 3, 1, lambda b: 1 if sum(b) >= 2 else 0),
    ("parity3", 3, 1, lambda b: b[0] ^ b[1] ^ b[2]),
    ("and3", 3, 1, lambda b: b[0] & b[1] & b[2]),
    ("2bit-eq", 2, 2, lambda b: 1 if (b[0], b[1]) == (b[2], b[3]) else 0),
)


@dataclasses.dataclass
class Entry:
    label: str
    protocol: object  # WiringProtocol
    x: tuple
    seeds: list  # one sampling seed per call
    runs: int  # per call
    compiled: object = None  # CompiledProtocol for compiled entries
    f_of_x: object = None  # parity function for compiled entries

    @property
    def sides(self):
        return 2 * len(self.protocol.bank.instances)


def _stop_table(n_parties, outputs):
    """A protocol with no boxes: party p outputs outputs[p][x]."""
    strategies = []
    for party in range(n_parties):
        moves = {(0, x, ()): bw.STOP for x in (0, 1)}
        outs = {(0, x, ()): outputs[party][x] for x in (0, 1)}
        strategies.append(bw.TableStrategy(party, moves, outs))
    return bw.WiringProtocol(
        n_parties=n_parties,
        randomness=bw.SharedRandomness.singleton(0),
        bank=bw.BoxBank(()),
        strategies=tuple(strategies),
        input_sizes=(2,) * n_parties,
        output_sizes=(2,) * n_parties,
    )


def _one_sided():
    moves0, outputs0 = {}, {}
    for x in (0, 1):
        moves0[(0, x, ())] = ("use", 0, x)
        for alpha in (0, 1):
            moves0[(0, x, (alpha,))] = bw.STOP
            outputs0[(0, x, (alpha,))] = alpha
    return bw.WiringProtocol(
        n_parties=2,
        randomness=bw.SharedRandomness.singleton(0),
        bank=bw.BoxBank((bw.pr_instance((0, 1)),)),
        strategies=(
            bw.TableStrategy(0, moves0, outputs0),
            bw.TableStrategy(1, {(0, x, ()): bw.STOP for x in (0, 1)}, {(0, x, ()): 0 for x in (0, 1)}),
        ),
        input_sizes=(2, 2),
        output_sizes=(2, 2),
    )


def _shared_coin():
    strategies = [
        bw.TableStrategy(
            party, {(lam, 0, ()): bw.STOP for lam in (0, 1)}, {(lam, 0, ()): lam for lam in (0, 1)}
        )
        for party in (0, 1)
    ]
    return bw.WiringProtocol(
        n_parties=2,
        randomness=bw.SharedRandomness.uniform((0, 1)),
        bank=bw.BoxBank(()),
        strategies=tuple(strategies),
        input_sizes=(1, 1),
        output_sizes=(2, 2),
    )


def setup(seed, smoke=False):
    rng = random.Random(seed)

    def entry(label, protocol, x, runs=RUNS_TABLE, **extra):
        seeds = [rng.randrange(2**31) for _ in range(CALLS_PER_ENTRY)]
        return Entry(label, protocol, x, seeds, runs, **extra)

    entries = [
        entry("identity PR", bw.identity_wiring(bw.pr_box()), (1, 1)),
        entry("identity parity box", bw.identity_wiring(bw.full_correlation_box(2, 1, lambda b: b[0] ^ b[1])), (1, 0)),
    ]
    for label, n, m, f in COMPILED_SPECS:
        names = [f"b{i}" for i in range(n * m)]
        table = bw.TruthTable.from_function(n * m, f)
        split = [[f"b{party * m + slot}" for slot in range(m)] for party in range(n)]
        compiled = bw.compile_circuit(bw.synthesize_nand(table, names), n, split)
        f_of_x = (lambda tb, sp: lambda x: tb.bits[refs.owned_row(sp, x)])(table, split)
        x = tuple(rng.randrange(2**m) for _ in range(n))
        entries.append(
            entry(f"compiled {label}", compiled.protocol, x, RUNS_COMPILED, compiled=compiled, f_of_x=f_of_x)
        )
    entries += [entry("shared coin", _shared_coin(), (0, 0)), entry("one-sided use", _one_sided(), (1, 0))]
    bank = bw.BoxBank((bw.pr_instance((0, 1)),))
    stream = bw.enumerate_strategies(2, bank, (2, 2), (2, 2))
    for idx, proto in enumerate(itertools.islice(stream, 0, 10000, ENUMERATED_STRIDE)):
        entries.append(entry(f"enumerated #{ENUMERATED_STRIDE * idx}", proto, (idx % 2, (idx // 2) % 2)))
    outputs = [[rng.randrange(2) for _ in (0, 1)] for _ in range(5)]
    entries.append(entry("five-party constant outputs", _stop_table(5, outputs), (0,) * 5))
    if smoke:
        entries = entries[:3] + entries[-2:]
        for e in entries:
            e.runs = min(e.runs, 100)
    return {"entries": entries, "references": {}}


def _reference(inputs, e):
    """Exact distribution of an entry at its input, from the definitions."""
    cache = inputs["references"]
    if e.label not in cache:
        if e.compiled is not None:
            n = e.compiled.n_parties
            fx = e.f_of_x(e.x)
            cache[e.label] = {
                a: refs.parity_prob(n, fx, a) for a in itertools.product((0, 1), repeat=n) if refs.parity_prob(n, fx, a)
            }
        else:
            cache[e.label] = refs.table_protocol_distribution(e.protocol, e.x, bw.STOP)
    return cache[e.label]


def _check_exact(inputs, e):
    def check(dist, expect):
        got = {tuple(a): p for a, p in dist.outcomes.items() if p}
        return expect.same(got, _reference(inputs, e), f"{e.label}: exact distribution")

    return check


def _check_sample(inputs, e, redraw_seed):
    def check(counts, expect):
        reason = refs.within_five_sigma(counts, _reference(inputs, e), e.runs)
        if reason is not None:
            return f"{e.label}: {reason}"
        if redraw_seed is not None:
            again = bw.execute_sample(e.protocol, e.x, seed=redraw_seed, n_runs=e.runs)
            return expect.same(again, counts, f"{e.label}: same seed, same counts")
        return None

    return check


def run_pass(inputs, call, tracer=None):
    ops = []
    entries = inputs["entries"]
    protocols = [dataclasses.replace(e.protocol) for e in entries]  # fresh identities: validated again
    for k in range(CALLS_PER_ENTRY):
        for index, (e, protocol) in enumerate(zip(entries, protocols)):
            redraw = e.seeds[k] if k == 0 and index < DETERMINISM_ENTRIES else None
            ops.append(
                call(
                    "execute_sample",
                    bw.execute_sample,
                    (protocol, e.x),
                    {"seed": e.seeds[k], "n_runs": e.runs},
                    check=_check_sample(inputs, e, redraw),
                    work=e.runs,
                    key=("execute_sample", index, k == 0),  # the first call also validates
                )
            )
    for e, protocol in zip(entries, protocols):
        if e.compiled is not None and e.sides > TRACTABLE_SIDES:
            exact = ("compiled_distribution", compiler.compiled_distribution, (e.compiled, e.x))
        else:
            exact = ("execute_exact", bw.execute_exact, (protocol, e.x))
        ops.append(call(*exact, check=_check_exact(inputs, e), work=0))
    return ops


def throughput(timed, wall):
    """Geometric mean of runs/s over the sampling calls in [(seconds, op)];
    every entry makes the same number of calls, so this weighs the entries
    equally."""
    rates = [op.work / seconds for seconds, op in timed if op.kind == "execute_sample"]
    return math.exp(sum(math.log(r) for r in rates) / len(rates))
