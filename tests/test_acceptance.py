"""Acceptance suite: one test per headline criterion, each printing a
PASS line (run with -s to see them).

Every comparison is exact rational equality unless the criterion itself
is statistical (criterion 8, which uses the stated five-standard-error
band).  Expected values are built independently of the code paths they
check: parity-box tables come straight from the definition, the vertex
census is cross-checked against a tight-constraint brute-force oracle,
and the compiled-protocol sweep is spot-verified through the generic
branch-tree executor.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import boxworld as bw
from boxworld.circuits import TruthTable, gate_count, synthesize_nand
from boxworld.cluster import (
    _build_protocol,
    _OWNER_OPTIONS,
    cluster_constraints,
    ghz_local_search,
    inverted_cluster_constraints,
    simulation_search,
)
from boxworld.compiler import (
    CompiledProtocol,
    _x_tuples,
    affine_outcome_counts,
    cc_values,
    compile_circuit,
    compiled_distribution,
    induced_box_fast,
    solve_cc,
)
from boxworld.locality import all_deterministic_boxes
from boxworld.polytope import build_h_rep, classify_vertex, enumerate_vertices
from boxworld.wiring import (
    STOP,
    BoxBank,
    BoxInstance,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    enumerate_strategies,
    execute_exact,
    execute_sample,
    identity_wiring,
    induced_box,
    pr_instance,
)

pytestmark = pytest.mark.slow  # minutes in all; `pytest -m "not slow"` skips the module

RNG_SEED = 20240601
PROTOCOL_REGISTRY = []  # (label, protocol) pairs checked again in criterion 9
SWEEP_STATS = {}


def register(label, protocol):
    PROTOCOL_REGISTRY.append((label, protocol))
    return protocol


def ownership_splits(n, m):
    """All ways to hand each party m input bits (ascending slot order)."""
    names = [f"b{i}" for i in range(n * m)]
    seen = []
    for perm in itertools.permutations(range(n * m)):
        groups = tuple(tuple(sorted(perm[i * m:(i + 1) * m])) for i in range(n))
        if groups not in seen:
            seen.append(groups)
    return [[[names[i] for i in group] for group in groups] for groups in seen]


def split_row_indices(n, m, splits):
    """For each split: map from joint-input index to truth-table row."""
    sizes = (2 ** m,) * n
    n_x = 2 ** (n * m)
    arrays = []
    for split in splits:
        arr = np.zeros(n_x, dtype=np.int64)
        for x_idx, x in enumerate(_x_tuples(sizes)):
            row = 0
            for party, group in enumerate(split):
                for slot, name in enumerate(group):
                    bit_pos = int(name[1:])
                    row |= ((x[party] >> slot) & 1) << bit_pos
            arr[x_idx] = row
        arrays.append(arr)
    return np.stack(arrays)


def counts_nonsignaling(counts, n, m):
    """Exact no-signaling check on stacked outcome counts.

    counts: (n_splits, n_x, 2^n) with joint inputs party-0-fastest."""
    n_splits = counts.shape[0]
    per = 2 ** m
    shaped = counts.reshape((n_splits,) + (per,) * n + (2,) * n)
    # axes: 1..n are inputs x_{n-1}..x_0 (slowest..fastest);
    # axes n+1..2n are output bits a_{n-1}..a_0
    for party in range(n):
        x_axis = 1 + (n - 1 - party)
        out_axes = tuple(
            1 + n + (n - 1 - other) for other in range(n) if other != party
        )
        marg = shaped.sum(axis=1 + n + (n - 1 - party))
        # after summing party's output axis, the others' joint distribution
        # must not depend on party's input axis
        ref = np.take(marg, 0, axis=x_axis)
        for value in range(1, per):
            if not np.array_equal(np.take(marg, value, axis=x_axis), ref):
                return False
    return True


def make_owned_function(tt, split, n, m):
    """The function on ownership-ordered bits matching a split."""

    def func(bits):
        row = 0
        pos = 0
        for party, group in enumerate(split):
            for slot, name in enumerate(group):
                row |= bits[pos] << int(name[1:])
                pos += 1
        return tt.bits[row]

    return func


def test_c1_c2_compiler_sweep_exact_and_resource_accounting():
    """Criteria 1+2: every Boolean function on <= 4 total input bits, every
    party count in {2, 3}, every bit-ownership split: the compiled protocol's
    induced box equals the parity box exactly, PR usage is gate_count*n(n-1),
    and the n-1-bit communication protocol computes f on every input."""
    t_start = time.monotonic()
    rng = random.Random(RNG_SEED)
    cases = [(2, 1), (3, 1), (2, 2)]
    total_checked = 0
    ns_checked = 0
    subsample_box_checks = 0
    reference_checks = 0

    for n, m in cases:
        nm = n * m
        names = [f"b{i}" for i in range(nm)]
        splits = ownership_splits(n, m)
        row_index = split_row_indices(n, m, splits)
        parity_of_a = np.array([bin(a).count("1") & 1 for a in range(2 ** n)], dtype=np.int64)
        n_x = 2 ** nm
        n_splits = len(splits)

        for mask in range(2 ** (2 ** nm)):
            tt = TruthTable.from_int(nm, mask)
            circuit = synthesize_nand(tt, names)
            k = gate_count(circuit)

            counts_nested, denom = affine_outcome_counts(circuit, n, splits)
            counts = np.array(counts_nested, dtype=np.int64)
            f_bits = np.array(tt.bits, dtype=np.int64)
            parities = f_bits[row_index]  # (n_splits, n_x)
            weight = denom // 2 ** (n - 1)
            expected = np.where(
                parity_of_a[None, None, :] == parities[:, :, None], weight, 0
            )
            assert np.array_equal(counts, expected), (n, m, mask)

            assert counts_nonsignaling(counts, n, m), (n, m, mask)
            ns_checked += n_splits

            # criterion 2: communication protocol value on all inputs, and
            # the resource identities (boxes = k*n*(n-1), bits = n-1)
            values = np.array(
                cc_values(circuit, n, splits, seed=mask & 0xFFFF), dtype=np.int64
            ).reshape(n_splits, n_x)
            assert np.array_equal(values, parities), (n, m, mask)
            assert denom == (2 ** ((n - 1) * k) if k else 2 ** (n - 1))
            total_checked += n_splits

            # subsample: materialize the full protocol object, compare boxes
            # at the Box level, run the literal per-input solve_cc, and (for
            # tiny circuits) the generic branch-tree executor
            take = 1.0 if nm == 2 else (0.08 if nm == 3 else 0.002)
            if rng.random() < take:
                split = splits[rng.randrange(n_splits)]
                compiled = compile_circuit(circuit, n, split)
                assert compiled.pr_box_count == k * n * (n - 1)
                f_owned = make_owned_function(tt, split, n, m)
                target = bw.full_correlation_box(n, m, f_owned)
                box = induced_box_fast(compiled)
                assert box == target
                for seed, x in enumerate(_x_tuples(compiled.protocol.input_sizes)):
                    result = solve_cc(compiled, x=x, seed=seed)
                    bits = []
                    for party, group in enumerate(split):
                        for slot in range(len(group)):
                            bits.append((x[party] >> slot) & 1)
                    assert result.value == f_owned(tuple(bits))
                    assert result.bits_communicated == n - 1
                    assert result.boxes_consumed == compiled.pr_box_count
                subsample_box_checks += 1
                register(f"compiled {n}p {m}b mask={mask}", compiled)
                if (n == 2 and k <= 3) or (n == 3 and k <= 1):
                    assert induced_box(compiled.protocol) == target
                    reference_checks += 1

    elapsed = time.monotonic() - t_start
    SWEEP_STATS["cases"] = total_checked
    SWEEP_STATS["ns_checked"] = ns_checked
    assert total_checked == 16 * 2 + 256 * 6 + 65536 * 6
    assert subsample_box_checks >= 20
    assert reference_checks >= 3
    assert elapsed < 300, f"sweep took {elapsed:.1f}s, expected under 5 minutes"
    print(
        f"\nACCEPTANCE 1: PASS - {total_checked} (function, split) cases exact "
        f"({subsample_box_checks} full-box subsamples, {reference_checks} reference-executor checks, "
        f"{elapsed:.1f}s)"
    )
    print(
        f"ACCEPTANCE 2: PASS - resource accounting and n-1-bit communication value "
        f"exact on all {total_checked} cases"
    )


def test_c3_pr_box_properties():
    """Criterion 3: PR box is nonsignaling, nonlocal, CHSH 4; all 16
    deterministic boxes stay within |CHSH| <= 2."""
    pr = bw.pr_box()
    assert bw.check_no_signaling(pr).ok
    assert not bw.is_local(pr).local
    assert bw.chsh_value(pr) == 4
    values = [bw.chsh_value(box) for box in all_deterministic_boxes((2, 2), (2, 2))]
    assert len(values) == 16
    assert max(abs(v) for v in values) == 2
    register("identity PR wiring", identity_wiring(pr))
    print("\nACCEPTANCE 3: PASS - PR nonsignaling, nonlocal, CHSH=4; 16 deterministic boxes |CHSH|<=2")


def test_c4_uniform_marginals_randomized():
    """Criterion 4: 50 random parity boxes (n <= 4, m <= 2): every strict
    subset marginal exactly uniform."""
    rng = random.Random(RNG_SEED + 4)
    shapes = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)]
    checked = 0
    for i in range(50):
        n, m = shapes[i % len(shapes)]
        tt = TruthTable.from_int(n * m, rng.randrange(2 ** (2 ** (n * m))))
        box = bw.full_correlation_box(n, m, tt)
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                marg = bw.marginal(box, subset)
                w = Fraction(1, 2 ** size)
                for x in itertools.product(*(range(2 ** m) for _ in subset)):
                    for a in itertools.product((0, 1), repeat=size):
                        assert marg.prob(x, a) == w
        checked += 1
    assert checked == 50
    print("\nACCEPTANCE 4: PASS - 50 randomized parity boxes, all strict-subset marginals exactly uniform")


def test_c5_polytope_census_and_classification():
    """Criterion 5: 2-input binary polytope has exactly 16 local + 8
    PR-equivalent vertices, matching the brute-force oracle; in the 3-input
    scenario every genuine nonlocal vertex has parity-correlated form."""
    t0 = time.monotonic()
    h = build_h_rep((2, 2), (2, 2))
    vertices = enumerate_vertices(h)
    census = {}
    for v in vertices:
        rep = classify_vertex(v, h, check=False)
        census[rep.classification] = census.get(rep.classification, 0) + 1
    assert census == {"local-deterministic": 16, "pr-equivalent": 8}
    for v in vertices:
        rep = classify_vertex(v, h, check=False)
        if rep.classification == "pr-equivalent":
            assert bw.relabel(v, rep.relabeling) == bw.pr_box()

    from test_polytope import brute_force_vertices

    assert set(vertices) == brute_force_vertices(h)

    h3 = build_h_rep((3, 3), (2, 2))
    vertices3 = enumerate_vertices(h3)
    genuine_nonlocal = 0
    for v in vertices3:
        rep = classify_vertex(v, h3, check=False)
        assert rep.classification in {"local-deterministic", "full-correlation", "reducible"}
        if rep.classification == "full-correlation":
            genuine_nonlocal += 1
    elapsed = time.monotonic() - t0
    assert genuine_nonlocal == 480
    assert elapsed < 600, f"polytope run took {elapsed:.1f}s, expected under 10 minutes"
    print(
        f"\nACCEPTANCE 5: PASS - 24 vertices (16 local + 8 PR-equivalent) matching the "
        f"oracle; 3-input scenario: {len(vertices3)} vertices, all {genuine_nonlocal} genuine "
        f"nonlocal ones in parity form ({elapsed:.1f}s)"
    )


def test_c6_ghz_paradox():
    """Criterion 6: no local deterministic assignment satisfies all six
    constraints (exhaustive over 1024)."""
    t0 = time.monotonic()
    report = ghz_local_search()
    elapsed = time.monotonic() - t0
    assert report.space == 1024
    assert report.satisfying_assignments == 0
    assert report.max_simultaneous == 5
    print(
        f"\nACCEPTANCE 6: PASS - 0 of 1024 assignments satisfy all six constraints "
        f"(max simultaneous 5, {elapsed * 1000:.0f}ms)"
    )


def test_c7_one_box_search_and_sanity_inversion():
    """Criterion 7: the full deterministic adaptive strategy space over one
    shared PR box (all 10 pair assignments) contains no protocol reproducing
    the constraints; flipping the five-party target makes the searcher
    return a verified counterexample."""
    t0 = time.monotonic()
    report = simulation_search(1)
    assert not report.success
    assert report.assignments_tested == 10
    assert report.strategies_tested == 10 * 100 * 100 * 4 ** 3
    inverted = simulation_search(1, constraints=inverted_cluster_constraints())
    assert inverted.success
    assert inverted.counterexample is not None
    zero_box = simulation_search(0)
    assert not zero_box.success
    assert zero_box.strategies_tested == ghz_local_search().space
    elapsed = time.monotonic() - t0
    assert elapsed < 1800, f"search took {elapsed:.1f}s, expected under 30 minutes"
    print(
        f"\nACCEPTANCE 7: PASS - no protocol among {report.strategies_tested} over 1 PR box; "
        f"inverted constraints produce a verified counterexample ({elapsed:.1f}s)"
    )


def _corpus():
    """20 varied protocols for the executor-consistency criterion."""
    rng = random.Random(RNG_SEED + 8)
    protocols = []

    protocols.append(("identity PR", identity_wiring(bw.pr_box()), (1, 1)))
    fc = bw.full_correlation_box(2, 1, lambda b: b[0] ^ b[1])
    protocols.append(("identity parity box", identity_wiring(fc), (1, 0)))

    compiled_specs = [
        ("AND", 2, 1, lambda b: b[0] & b[1], (1, 1)),
        ("NAND", 2, 1, lambda b: (b[0] & b[1]) ^ 1, (1, 0)),
        ("XOR", 2, 1, lambda b: b[0] ^ b[1], (0, 1)),
        ("OR", 2, 1, lambda b: b[0] | b[1], (1, 0)),
        ("const1", 2, 1, lambda b: 1, (0, 0)),
        ("projection", 2, 1, lambda b: b[0], (1, 0)),
        ("majority", 3, 1, lambda b: 1 if sum(b) >= 2 else 0, (1, 0, 1)),
        ("parity3", 3, 1, lambda b: b[0] ^ b[1] ^ b[2], (1, 1, 0)),
        ("and3", 3, 1, lambda b: b[0] & b[1] & b[2], (1, 1, 1)),
        ("2bit-eq", 2, 2, lambda b: 1 if (b[0], b[1]) == (b[2], b[3]) else 0, (2, 3)),
    ]
    for label, n, m, f, x in compiled_specs:
        tt = TruthTable.from_function(n * m, f)
        circuit = synthesize_nand(tt, [f"b{i}" for i in range(n * m)])
        split = [[f"b{party * m + slot}" for slot in range(m)] for party in range(n)]
        compiled = compile_circuit(circuit, n, split)
        protocols.append((f"compiled {label}", compiled, x))

    # shared-randomness-only protocol
    strategies = []
    for party in (0, 1):
        moves = {}
        outputs = {}
        for lam in (0, 1):
            moves[(lam, 0, ())] = STOP
            outputs[(lam, 0, ())] = lam
        strategies.append(TableStrategy(party, moves, outputs))
    protocols.append(
        (
            "shared-coin",
            WiringProtocol(
                n_parties=2,
                randomness=SharedRandomness.uniform((0, 1)),
                bank=BoxBank(()),
                strategies=tuple(strategies),
                input_sizes=(1, 1),
                output_sizes=(2, 2),
            ),
            (0, 0),
        )
    )

    # one-sided box use
    moves0 = {}
    outputs0 = {}
    for x in (0, 1):
        moves0[(0, x, ())] = ("use", 0, x)
        for alpha in (0, 1):
            moves0[(0, x, (alpha,))] = STOP
            outputs0[(0, x, (alpha,))] = alpha
    stop1_moves = {(0, x, ()): STOP for x in (0, 1)}
    stop1_outputs = {(0, x, ()): 0 for x in (0, 1)}
    protocols.append(
        (
            "one-sided use",
            WiringProtocol(
                n_parties=2,
                randomness=SharedRandomness.singleton(0),
                bank=BoxBank((pr_instance((0, 1)),)),
                strategies=(
                    TableStrategy(0, moves0, outputs0),
                    TableStrategy(1, stop1_moves, stop1_outputs),
                ),
                input_sizes=(2, 2),
                output_sizes=(2, 2),
            ),
            (1, 0),
        )
    )

    # assorted enumerated one-box strategies
    bank = BoxBank((pr_instance((0, 1)),))
    stream = enumerate_strategies(2, bank, (2, 2), (2, 2))
    for idx, proto in enumerate(itertools.islice(stream, 0, 10000, 2081)):
        protocols.append((f"enumerated #{idx}", proto, (idx % 2, (idx // 2) % 2)))

    # cluster-search profiles (all-stop and a random owner profile)
    protocols.append(
        ("cluster all-zeros", _build_protocol(None, None, None, {p: (0, 0) for p in range(5)}, 5), (0,) * 5)
    )
    s_p = (rng.choice(_OWNER_OPTIONS), rng.choice(_OWNER_OPTIONS))
    s_q = (rng.choice(_OWNER_OPTIONS), rng.choice(_OWNER_OPTIONS))
    outputs = {k: (rng.randint(0, 1), rng.randint(0, 1)) for k in (1, 2, 4)}
    protocols.append(
        ("cluster owner profile", _build_protocol((0, 3), s_p, s_q, outputs, 5), (0, 1, 0, 1, 0))
    )

    return protocols[:20]


def _exact_distribution(entry, x):
    """Exact side for criterion 8: the generic branch-tree executor where
    its branch count is tractable, the (equality-tested) affine core for
    larger compiled protocols."""
    if isinstance(entry, CompiledProtocol):
        sides = 2 * len(entry.protocol.bank.instances)
        if sides <= 14:
            return execute_exact(entry.protocol, x)
        return compiled_distribution(entry, x)
    return execute_exact(entry, x)


def _protocol_of(entry):
    return entry.protocol if isinstance(entry, CompiledProtocol) else entry


def test_c8_sampling_matches_exact():
    """Criterion 8: 10^5-run sampling matches the exact distribution within
    five binomial standard errors, never hits forbidden outcomes, and is
    seed-deterministic."""
    corpus = _corpus()
    assert len(corpus) == 20
    n_runs = 100000
    for label, entry, x in corpus:
        register(f"corpus: {label}", entry)
        proto = _protocol_of(entry)
        exact = _exact_distribution(entry, x)
        counts = execute_sample(proto, x, seed=RNG_SEED, n_runs=n_runs)
        support = {a for a, p in exact.outcomes.items() if p > 0}
        assert set(counts) <= support, label
        for outcome, p in exact.outcomes.items():
            p_f = float(p)
            sigma = math.sqrt(p_f * (1 - p_f) * n_runs)
            delta = abs(counts.get(outcome, 0) - p_f * n_runs)
            assert delta <= 5 * sigma or sigma == 0, (label, outcome, delta, sigma)
    # seed determinism on a few protocols
    for label, entry, x in corpus[:4]:
        proto = _protocol_of(entry)
        c1 = execute_sample(proto, x, seed=977, n_runs=5000)
        c2 = execute_sample(proto, x, seed=977, n_runs=5000)
        assert c1 == c2, label
    print(f"\nACCEPTANCE 8: PASS - 20-protocol corpus, {n_runs} runs each within 5 sigma, "
          "forbidden outcomes never sampled, seeds deterministic")


def test_c9_no_signaling_closure():
    """Criterion 9: the induced box of every protocol the suite generated is
    exactly nonsignaling (the compiler sweep checked its 395k cases inline;
    this re-checks every registered protocol, through the generic executor
    whenever its branch count is tractable)."""
    assert PROTOCOL_REGISTRY, "registry must be populated by earlier criteria"
    checked = 0
    via_generic = 0
    for label, entry in PROTOCOL_REGISTRY:
        if isinstance(entry, CompiledProtocol):
            sides = 2 * len(entry.protocol.bank.instances)
            if sides <= 14:
                box = induced_box(entry.protocol)  # asserts no-signaling internally
                via_generic += 1
            else:
                box = induced_box_fast(entry)
        else:
            box = induced_box(entry)
            via_generic += 1
        assert bw.check_no_signaling(box).ok, label
        checked += 1
    swept = SWEEP_STATS.get("ns_checked", 0)
    assert swept >= 16 * 2 + 256 * 6 + 65536 * 6
    print(
        f"\nACCEPTANCE 9: PASS - no-signaling closure: {checked} registered protocols "
        f"({via_generic} via the generic executor) plus {swept} compiled sweep cases"
    )
