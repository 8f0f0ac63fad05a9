"""census: the no-signaling vertex census, exact decomposition, locality.

Per pass: enumerate and classify the (2,2)/(2,2) and (3,3)/(2,2) vertices
(24 and 1408), decompose a mixture of two (3,3) vertices with a seeded
weight over all 1408, and run is_local on a seeded ladder of 2- to 4-party
boxes: PR/uniform mixtures on both sides of CHSH = 2, a seeded 3-party
parity box and a noisy one, and the 4-party majority parity box mixed 1/16
with uniform noise.  The decomposed vertices and the 4-party box are fixed
because the cost of those two calls depends on them (decompose 0.9-2.3 s,
4-party is_local 4-10 s across parity functions), and a seeded choice
would make the run-to-run spread wider than the bounds.  Double
description with its vertex re-verification and the exactlp simplex do
almost all the work; compiler and wiring stay idle.  An op is one API
call (each vertex classification is one), so ops_per_s is calls/s.
Each vertex is classified three times per pass, between the long
calls (about 0.25 s of work a round).  call_p50_ms and call_p90_ms fall
among the classifications, and a classification's typical time is taken
over its repeats at times spread across the run: with one classification
per pass, three repeats a run, those two spread by up to 32% between
runs.

is_local(cluster_box()) is left out: it does not finish in 500 s.
"""

import random
from fractions import Fraction

import boxworld as bw
from boxworld import locality, polytope

import refs

IN_PROCESS = True
MIN_PASSES = 3  # a pass is three long calls; their typical time needs repeats
ALIASES = {"ops_per_s": "API calls per second (one per vertex classification)"}
SHAPES = ((2, 2), (3, 3))
EXPECTED_CLASSES = {
    (2, 2): {"local-deterministic": 16, "pr-equivalent": 8},
    (3, 3): {"local-deterministic": 64, "full-correlation": 480, "reducible": 864},
}
LOCAL_PR_WEIGHTS = [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)]  # CHSH = 4w <= 2
NONLOCAL_PR_WEIGHTS = [Fraction(5, 8), Fraction(3, 4), Fraction(7, 8), Fraction(1)]
# the decomposed mixture: a deterministic vertex and the parity vertex of
# f(x, y) = [x == y], which is not g(x) xor h(y), so genuinely nonlocal
MIXTURE_RESPONSES = ((0, 1, 1), (1, 0, 0))
MIXTURE_F = {(x, y): int(x == y) for x in range(3) for y in range(3)}
FOUR_PARTY_F = [int(bin(row).count("1") >= 2) for row in range(16)]  # majority
FOUR_PARTY_SIGNAL = Fraction(1, 16)


def _box(n, table, sizes):
    return bw.make_box(n, sizes, (2,) * n, table, sparse=True)


def setup(seed, smoke=False):
    rng = random.Random(seed)
    w = Fraction(rng.randint(1, 4), 5)
    mixture = refs.mix_tables(
        [
            (w, refs.deterministic_table((3, 3), MIXTURE_RESPONSES)),
            (1 - w, refs.parity_table(2, (3, 3), lambda x: MIXTURE_F[x])),
        ]
    )
    ladder = []  # (box, table, expected verdict or None)
    pr, uniform2 = refs.pr_table(), refs.uniform_table(2, (2, 2))
    for lam in rng.sample(LOCAL_PR_WEIGHTS, 2) + rng.sample(NONLOCAL_PR_WEIGHTS, 2):
        table = refs.mix_tables([(lam, pr), (1 - lam, uniform2)])
        ladder.append((table, (2, 2), lam <= Fraction(1, 2)))
    parties = (3,) if smoke else (3, 4)
    for n in parties:
        sizes = (2,) * n
        bits = FOUR_PARTY_F
        while n == 3:
            bits = [rng.randrange(2) for _ in range(2 ** n)]
            if not refs.separable(n, bits):
                break
        fc = refs.parity_table(n, sizes, lambda x: bits[sum(b << i for i, b in enumerate(x))])
        if n == 3:
            ladder.append((fc, sizes, False))
            lam = Fraction(rng.randint(1, 3), 4)
        else:
            lam = FOUR_PARTY_SIGNAL
        ladder.append((refs.mix_tables([(lam, fc), (1 - lam, refs.uniform_table(n, sizes))]), sizes, None))
    return {
        "shapes": SHAPES[:1] if smoke else SHAPES,
        "mixture": (_box(2, mixture, (3, 3)), mixture),
        "ladder": [(_box(len(sizes), table, sizes), table, sizes, verdict) for table, sizes, verdict in ladder],
    }


def _enumerate(shape):
    h = polytope.build_h_rep(shape, (2, 2))
    return h, polytope.enumerate_vertices(h)


def _check_enumeration(shape):
    def check(result, expect):
        _, vertices = result
        classes = {}
        for v in vertices:
            c = refs.vertex_class(refs.box_table(v), shape, (2, 2))
            classes[c] = classes.get(c, 0) + 1
        tables = {frozenset(refs.box_table(v).items()) for v in vertices}
        return refs.first_failure(
            (
                expect.same(classes, EXPECTED_CLASSES[shape], f"{shape} vertex classes from the tables"),
                expect.same(len(tables), len(vertices), "distinct vertices"),
            )
        )

    return check


def _check_class(vertex, shape):
    def check(report, expect):
        return expect.same(
            report.classification, refs.vertex_class(refs.box_table(vertex), shape, (2, 2)), "vertex class"
        )

    return check


def _check_decomposition(table, vertices):
    def check(weights, expect):
        nonzero = [(w, refs.box_table(v)) for w, v in zip(weights, vertices) if w]
        return refs.first_failure(
            (
                expect.same(len(weights), len(vertices), "one weight per vertex"),
                expect.holds(all(w >= 0 for w in weights), "weights are nonnegative"),
                expect.same(sum(weights, Fraction(0)), Fraction(1), "weights sum"),
                expect.same(refs.mix_tables(nonzero), table, "re-expanded mixture"),
            )
        )

    return check


def _check_locality(table, sizes, verdict):
    outputs = (2,) * len(sizes)

    def check(result, expect):
        if verdict is not None:
            reason = expect.same(result.local, verdict, "locality verdict")
            if reason:
                return reason
        if result.local:
            return refs.check_local_weights(table, sizes, outputs, result.weights)
        if result.witness.get("kind") != "linear":
            return f"unexpected witness kind {result.witness.get('kind')!r}"
        return refs.check_linear_witness(table, sizes, outputs, result.witness)

    return check


def run_pass(inputs, call, tracer=None):
    ops = []
    censuses = {}  # shape -> (h_rep, vertices)
    for shape in inputs["shapes"]:
        op = call("enumerate_vertices", _enumerate, (shape,), check=_check_enumeration(shape))
        ops.append(op)
        if op.error is None:
            censuses[shape] = op.result

    def classify_all():
        for shape, (h, vertices) in censuses.items():
            for index, v in enumerate(vertices):
                ops.append(
                    call("classify_vertex", polytope.classify_vertex, (v, h), {"check": False},
                         check=_check_class(v, shape), key=("classify_vertex", shape, index))
                )

    classify_all()
    if (3, 3) in censuses:
        vertices = censuses[(3, 3)][1]
        box, table = inputs["mixture"]
        ops.append(call("decompose", polytope.decompose, (box, vertices), check=_check_decomposition(table, vertices)))
    classify_all()
    for box, table, sizes, verdict in inputs["ladder"]:
        ops.append(
            call("is_local", locality.is_local, (box,), check=_check_locality(table, sizes, verdict), timeout=120)
        )
    classify_all()
    return ops


def throughput(timed, wall):
    """Calls per second over [(seconds, op)]."""
    return len(timed) / wall
