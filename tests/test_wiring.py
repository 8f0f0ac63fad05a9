import ast
import dataclasses
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import boxworld as bw
from boxworld import wiring
from boxworld.errors import ShapeMismatch, TooLarge, Unvalidated
from boxworld.wiring import (
    STOP,
    BoxBank,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    count_strategies,
    enumerate_strategies,
    execute_exact,
    execute_sample,
    identity_wiring,
    induced_box,
    pr_instance,
    validate_protocol,
)

HALF = Fraction(1, 2)


def stop_strategy(party, outputs_by_x):
    moves = {}
    outputs = {}
    for x, out in outputs_by_x.items():
        moves[(0, x, ())] = STOP
        outputs[(0, x, ())] = out
    return TableStrategy(party, moves, outputs)


def test_identity_wiring_reproduces_pr():
    proto = identity_wiring(bw.pr_box())
    assert validate_protocol(proto).ok
    dist = execute_exact(proto, (1, 1))
    assert dist.outcomes == {(0, 1): HALF, (1, 0): HALF}
    assert induced_box(proto) == bw.pr_box()


def test_zero_box_shared_randomness_protocol():
    randomness = SharedRandomness.uniform((0, 1))
    strategies = []
    for party in (0, 1):
        moves = {}
        outputs = {}
        for lam in (0, 1):
            moves[(lam, 0, ())] = STOP
            outputs[(lam, 0, ())] = lam
        strategies.append(TableStrategy(party, moves, outputs))
    proto = WiringProtocol(
        n_parties=2,
        randomness=randomness,
        bank=BoxBank(()),
        strategies=tuple(strategies),
        input_sizes=(1, 1),
        output_sizes=(2, 2),
    )
    dist = execute_exact(proto, (0, 0))
    assert dist.outcomes == {(0, 0): HALF, (1, 1): HALF}
    box = induced_box(proto)
    assert bw.is_local(box).local


def test_single_block_protocol_matches_parity_box():
    tt = bw.TruthTable.from_function(2, lambda b: (b[0] & b[1]) ^ 1)
    circuit = bw.synthesize_nand(tt, ["u", "v"])
    compiled = bw.compile_circuit(circuit, 2, [["u"], ["v"]])
    # through the generic branch-tree executor, not the affine core: a copy
    # with a fresh strategy tuple is not the compiled protocol's own
    walked = dataclasses.replace(compiled.protocol, strategies=tuple(list(compiled.protocol.strategies)))
    box = induced_box(walked)
    assert box == bw.full_correlation_box(2, 1, lambda b: (b[0] & b[1]) ^ 1)


def _one_box_protocol(owner_moves):
    """Two parties, one PR box; owner_moves customizes party 0's table."""
    bank = BoxBank((pr_instance((0, 1)),))
    moves0, outputs0 = owner_moves
    party1_moves = {}
    party1_outputs = {}
    for x in (0, 1):
        party1_moves[(0, x, ())] = ("use", 0, x)
        for alpha in (0, 1):
            party1_moves[(0, x, (alpha,))] = STOP
            party1_outputs[(0, x, (alpha,))] = alpha
    return WiringProtocol(
        n_parties=2,
        randomness=SharedRandomness.singleton(0),
        bank=bank,
        strategies=(
            TableStrategy(0, moves0, outputs0),
            TableStrategy(1, party1_moves, party1_outputs),
        ),
        input_sizes=(2, 2),
        output_sizes=(2, 2),
    )


def test_validate_double_use():
    moves = {}
    outputs = {}
    for x in (0, 1):
        moves[(0, x, ())] = ("use", 0, x)
        for a in (0, 1):
            moves[(0, x, (a,))] = ("use", 0, a)  # same instance again
            for b in (0, 1):
                moves[(0, x, (a, b))] = STOP
                outputs[(0, x, (a, b))] = a
    proto = _one_box_protocol((moves, outputs))
    verdict = validate_protocol(proto)
    assert not verdict.ok
    assert "twice" in verdict.violation["reason"]


def test_validate_not_owner():
    bank = BoxBank((pr_instance((1, 2)),))
    moves = {(0, 0, ()): ("use", 0, 0)}
    outputs = {}
    strategies = [TableStrategy(0, moves, outputs)] + [
        stop_strategy(p, {0: 0}) for p in (1, 2)
    ]
    proto = WiringProtocol(
        n_parties=3,
        randomness=SharedRandomness.singleton(0),
        bank=bank,
        strategies=tuple(strategies),
        input_sizes=(1, 1, 1),
        output_sizes=(2, 2, 2),
    )
    verdict = validate_protocol(proto)
    assert not verdict.ok
    assert "own" in verdict.violation["reason"]


def test_validate_unknown_instance():
    moves = {(0, 0, ()): ("use", 5, 0), (0, 1, ()): STOP}
    outputs = {(0, 1, ()): 0}
    proto = _one_box_protocol((moves, outputs))
    assert not validate_protocol(proto).ok


def test_execute_rejects_invalid():
    moves = {(0, 0, ()): ("use", 5, 0)}
    proto = _one_box_protocol((moves, {}))
    with pytest.raises(Unvalidated):
        execute_exact(proto, (0, 0))


def test_unused_far_side_gives_uniform_marginal():
    # party 0 uses the box; party 1 never touches it
    moves0 = {}
    outputs0 = {}
    for x in (0, 1):
        moves0[(0, x, ())] = ("use", 0, x)
        for alpha in (0, 1):
            moves0[(0, x, (alpha,))] = STOP
            outputs0[(0, x, (alpha,))] = alpha
    bank = BoxBank((pr_instance((0, 1)),))
    proto = WiringProtocol(
        n_parties=2,
        randomness=SharedRandomness.singleton(0),
        bank=bank,
        strategies=(
            TableStrategy(0, moves0, outputs0),
            stop_strategy(1, {0: 0, 1: 0}),
        ),
        input_sizes=(2, 2),
        output_sizes=(2, 2),
    )
    for x in itertools.product((0, 1), repeat=2):
        dist = execute_exact(proto, x)
        assert dist.outcomes == {(0, 0): HALF, (1, 0): HALF}


def test_execution_normalizes_for_every_input():
    proto = identity_wiring(bw.pr_box())
    for x in itertools.product((0, 1), repeat=2):
        assert execute_exact(proto, x).total() == 1


class TestSampling:
    def test_seed_determinism(self):
        proto = identity_wiring(bw.pr_box())
        c1 = execute_sample(proto, (1, 1), seed=42, n_runs=2000)
        c2 = execute_sample(proto, (1, 1), seed=42, n_runs=2000)
        assert c1 == c2
        c3 = execute_sample(proto, (1, 1), seed=43, n_runs=2000)
        assert c1 != c3

    def test_forbidden_outcomes_never_sampled(self):
        proto = identity_wiring(bw.pr_box())
        counts = execute_sample(proto, (1, 1), seed=7, n_runs=20000)
        assert set(counts) == {(0, 1), (1, 0)}

    def test_frequencies_within_five_sigma(self):
        proto = identity_wiring(bw.pr_box())
        n = 20000
        counts = execute_sample(proto, (1, 1), seed=3, n_runs=n)
        exact = execute_exact(proto, (1, 1))
        for outcome, p in exact.outcomes.items():
            sigma = math.sqrt(float(p) * (1 - float(p)) * n)
            assert abs(counts.get(outcome, 0) - float(p) * n) <= 5 * sigma

    def test_repeated_calls_leave_no_module_level_growth(self):
        # per-call precomputation only: nothing module-level may grow with
        # the number of calls, nor with the number of template objects seen
        proto = identity_wiring(bw.pr_box())
        execute_sample(proto, (1, 1), seed=0, n_runs=10)

        def sizes():
            return {
                name: len(value)
                for name, value in vars(wiring).items()
                if not name.startswith("__") and isinstance(value, (dict, set, list))
            }

        before = sizes()
        for seed in range(200):
            execute_sample(proto, (1, 1), seed=seed, n_runs=10)
            execute_exact(identity_wiring(bw.pr_box()), (1, 1))
            execute_sample(identity_wiring(bw.pr_box()), (1, 1), seed=seed, n_runs=10)
        assert sizes() == before

    def test_seeded_counts_are_golden(self):
        # recorded before the branch-weight tables became per call; the
        # sampler must keep drawing the same branches for a seed
        counts = execute_sample(identity_wiring(bw.pr_box()), (1, 1), seed=7, n_runs=1000)
        assert counts == {(0, 1): 511, (1, 0): 489}
        bank = BoxBank((pr_instance((0, 1)),))
        proto = next(itertools.islice(enumerate_strategies(2, bank, (2, 2), (2, 2)), 304, None))
        for party in (0, 1):  # both sides of the box are drawn at x = (1, 1)
            assert proto.strategies[party].moves[(0, 1, ())] == ("use", 0, 0)
        counts = execute_sample(proto, (1, 1), seed=7, n_runs=1000)
        assert counts == {(0, 1): 511, (1, 0): 489}

    def test_zero_weight_randomness_never_sampled(self):
        strategies = tuple(
            TableStrategy(party, {(lam, 0, ()): STOP for lam in (0, 1)}, {(lam, 0, ()): lam for lam in (0, 1)})
            for party in (0, 1)
        )
        proto = WiringProtocol(
            n_parties=2,
            randomness=SharedRandomness((0, 1), (Fraction(0), Fraction(1))),
            bank=BoxBank(()),
            strategies=strategies,
            input_sizes=(1, 1),
            output_sizes=(2, 2),
        )
        assert execute_exact(proto, (0, 0)).outcomes == {(1, 1): 1}
        assert execute_sample(proto, (0, 0), seed=1, n_runs=50) == {(1, 1): 50}


def _shared_coin_protocol():
    strategies = tuple(
        TableStrategy(party, {(lam, 0, ()): STOP for lam in (0, 1)}, {(lam, 0, ()): lam for lam in (0, 1)})
        for party in (0, 1)
    )
    return WiringProtocol(2, SharedRandomness.uniform((0, 1)), BoxBank(()), strategies, (1, 1), (2, 2))


def test_protocol_json_round_trip():
    protocols = [identity_wiring(bw.pr_box()), _shared_coin_protocol()]
    protocols += itertools.islice(enumerate_strategies(2, BoxBank((pr_instance((0, 1)),)), (2, 2), (2, 2)), 0, 10000, 1999)
    for proto in protocols:
        data = proto.to_json_dict()
        back = WiringProtocol.from_json_dict(json.loads(json.dumps(data)))
        assert back.to_json_dict() == data
        for x in proto.inputs():
            assert execute_exact(back, x) == execute_exact(proto, x)
    assert _shared_coin_protocol().to_json_dict()["randomness"] == {"support": [0, 1], "weights": ["1/2", "1/2"]}
    # a missing "randomness" is the singleton 0
    data = identity_wiring(bw.pr_box()).to_json_dict()
    del data["randomness"]
    assert WiringProtocol.from_json_dict(data).randomness == SharedRandomness.singleton(0)


def test_only_table_protocols_have_a_json_form():
    compiled = bw.compile_circuit(
        bw.synthesize_nand(bw.TruthTable.from_function(2, lambda b: b[0] & b[1]), ["u", "v"]), 2, [["u"], ["v"]]
    )
    with pytest.raises(ShapeMismatch, match="TableStrategy"):
        compiled.protocol.to_json_dict()
    with pytest.raises(ShapeMismatch, match="PR-box"):
        identity_wiring(bw.uniform_box((2, 2), (2, 2))).to_json_dict()
    with pytest.raises(ShapeMismatch, match="integer shared randomness"):
        dataclasses.replace(_shared_coin_protocol(), randomness=SharedRandomness.uniform(("a", "b"))).to_json_dict()
    data = identity_wiring(bw.pr_box()).to_json_dict()
    data["bank"][0]["template"] = "noise"
    with pytest.raises(bw.BoxworldError, match="unknown bank template 'noise'"):
        WiringProtocol.from_json_dict(data)


def test_swapped_bank_of_compiled_protocol_is_walked():
    # a copy of the compiler's own protocol with another bank is not the
    # compiler's protocol: validation walks it and reports the violation
    tt = bw.TruthTable.from_function(2, lambda b: b[0] & b[1])
    compiled = bw.compile_circuit(bw.synthesize_nand(tt, ["u", "v"]), 2, [["u"], ["v"]])
    one_input = bw.uniform_box((1, 1), (2, 2))
    bank = BoxBank(tuple(bw.BoxInstance(one_input, inst.owners) for inst in compiled.protocol.bank.instances))
    swapped = dataclasses.replace(compiled.protocol, bank=bank)
    verdict = validate_protocol(swapped)
    assert not verdict.ok
    assert "input 1 out of range" in verdict.violation["reason"]
    with pytest.raises(Unvalidated, match="out of range"):
        execute_sample(swapped, (1, 1), seed=0, n_runs=10)


def test_bank_checks_each_template_object_once(monkeypatch):
    calls = []

    def counting_check(box):
        calls.append(box)
        return bw.check_no_signaling(box)

    monkeypatch.setattr(wiring, "check_no_signaling", counting_check)
    pr = bw.pr_box()
    # party 0's output copies party 1's input
    signaling = bw.make_box(
        2, (2, 2), (2, 2), {((x0, x1), (x1, 0)): 1 for x0 in (0, 1) for x1 in (0, 1)}, sparse=True
    )
    bank = BoxBank(tuple(bw.BoxInstance(t, (0, 1)) for t in (pr, pr, pr, signaling, pr)))
    proto = dataclasses.replace(identity_wiring(pr), bank=bank)
    verdict = validate_protocol(proto)
    assert not verdict.ok
    assert verdict.violation["instance"] == 3
    assert calls == [pr, signaling]


def test_pr_template_is_checked_once_when_wiring_builds_it():
    # check_no_signaling is wrapped before wiring imports it: building the
    # module checks its shared template once, validation never again
    script = """
import boxworld.boxes as boxes
calls = []
check = boxes.check_no_signaling
boxes.check_no_signaling = lambda box: calls.append(box) or check(box)
import boxworld as bw
from boxworld import wiring
assert calls == [wiring._PR_TEMPLATE], calls
bank = bw.BoxBank(tuple(bw.pr_instance((0, 1)) for _ in range(3)))
proto = bw.WiringProtocol(2, bw.SharedRandomness.singleton(), bank, bw.identity_wiring(bw.pr_box()).strategies, (2, 2), (2, 2))
assert bw.validate_protocol(proto).ok
print(len(calls))
"""
    src = os.path.dirname(os.path.dirname(bw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_shared_pr_template_is_read_only():
    # validation skips the shared template, so no instance may edit it
    template = bw.pr_instance((0, 1)).template
    assert template is wiring._PR_TEMPLATE and template == bw.pr_box()
    with pytest.raises(TypeError):
        template.table[((0, 0), (0, 1))] = Fraction(1, 2)
    assert template == bw.pr_box()


def test_checks_survive_python_O():
    # the exact checks raise VerificationFailed, which -O cannot strip: one
    # in the executor, one in the locality LP's re-expansion
    script = """
import dataclasses, sys
from fractions import Fraction
import boxworld as bw
from boxworld import locality
from boxworld.exactlp import FeasibilityResult
half = bw.SharedRandomness.singleton()
object.__setattr__(half, "weights", (Fraction(1, 2),))  # skips the constructor's check
proto = dataclasses.replace(bw.identity_wiring(bw.pr_box()), randomness=half)
try:
    bw.execute_exact(proto, (0, 0))
except bw.VerificationFailed as err:
    print(sys.flags.optimize, err)
# all weight on the first strategy orbit, the 8 strategies at CHSH 2: not a
# decomposition of a box at CHSH 1 (the uniform box is one orbit, whose
# average it is)
locality.solve_equality_feasibility = lambda A, b: FeasibilityResult(True, [1] + [0] * (len(A[0]) - 1))
try:
    bw.is_local(bw.mix_boxes([(Fraction(1, 4), bw.pr_box()), (Fraction(3, 4), bw.uniform_box((2, 2), (2, 2)))]))
except bw.VerificationFailed as err:
    print(sys.flags.optimize, err)
"""
    src = os.path.dirname(os.path.dirname(bw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "1 branch weights sum to 1/2, not 1\n"
        "1 local decomposition failed exact re-expansion\n"
    )


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may live in one
    package = pathlib.Path(bw.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Module-level containers the package may hold, each with its reason.  There
# are none: every executor call validates what it walks, and a compiled
# protocol is validated once, when compile_circuit builds it.
MODULE_STATE_ALLOWED: set = set()
_CONTAINER_NODES = (ast.Set, ast.Dict, ast.List, ast.SetComp, ast.DictComp, ast.ListComp)
_CONTAINER_CALLS = {
    "set", "dict", "list", "defaultdict", "OrderedDict", "Counter", "deque",
    "WeakSet", "WeakKeyDictionary", "WeakValueDictionary",
}


def test_package_keeps_no_module_level_state():
    # no `global` rebinding, and no mutable container assigned at module
    # level: a result must not depend on what ran earlier in the process
    package = pathlib.Path(bw.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}:{node.lineno} global" for node in ast.walk(tree) if isinstance(node, ast.Global)]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            func = value.func if isinstance(value, ast.Call) else None
            call = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(value, _CONTAINER_NODES) or call in _CONTAINER_CALLS:
                names = [f"{path.stem}.{ast.unparse(target)}" for target in targets]
                found += [name for name in names if name not in MODULE_STATE_ALLOWED]
    assert found == []


class TestEnumeration:
    def test_count_matches_hand_closed_form_one_pr_box(self):
        # per side, per input: stop with either output (2) or feed either bit
        # and answer by any function of the outcome (2*4); 10^2 per side
        bank = BoxBank((pr_instance((0, 1)),))
        assert count_strategies(2, bank, (2, 2), (2, 2)) == 100 * 100

    def test_count_zero_boxes(self):
        bank = BoxBank(())
        assert count_strategies(2, bank, (2, 2), (2, 2)) == 16  # (2^2)^2

    def test_enumeration_is_exhaustive_and_duplicate_free(self):
        bank = BoxBank(())
        protos = list(enumerate_strategies(2, bank, (2, 2), (2, 2)))
        assert len(protos) == 16
        seen = set()
        for proto in protos:
            key = tuple(
                tuple(sorted(s.outputs.items())) for s in proto.strategies
            )
            assert key not in seen
            seen.add(key)

    def test_cap_enforced(self):
        bank = BoxBank((pr_instance((0, 1)),))
        with pytest.raises(TooLarge) as err:
            list(enumerate_strategies(2, bank, (2, 2), (2, 2), cap=100))
        assert err.value.count == 10000

    def test_enumerated_sample_counts_and_induced_boxes_nonsignaling(self):
        bank = BoxBank((pr_instance((0, 1)),))
        stream = enumerate_strategies(2, bank, (2, 2), (2, 2))
        checked = 0
        for proto in itertools.islice(stream, 0, 10000, 977):
            box = induced_box(proto)  # induced_box asserts no-signaling
            assert bw.check_no_signaling(box).ok
            checked += 1
        assert checked >= 10

    def test_enumeration_count_matches_stream_length(self):
        bank = BoxBank((pr_instance((0, 1)),))
        total = count_strategies(2, bank, (2, 2), (2, 2))
        stream = enumerate_strategies(2, bank, (2, 2), (2, 2), cap=10 ** 5)
        assert sum(1 for _ in stream) == total


def _flipping_pr_protocol(zero_weight_move=None):
    """One PR box under three lam of weights 1/2, 0, 1/2; party 0 flips its
    output under lam = 2, so the induced box is uniform noise.  Lam = 1 may
    be given a different first move for party 0."""
    moves = ({}, {})
    outputs = ({}, {})
    for lam, party, x in itertools.product((0, 1, 2), (0, 1), (0, 1)):
        moves[party][(lam, x, ())] = ("use", 0, x)
        for alpha in (0, 1):
            moves[party][(lam, x, (alpha,))] = STOP
            outputs[party][(lam, x, (alpha,))] = alpha ^ (party == 0 and lam == 2)
    if zero_weight_move is not None:
        moves[0][(1, 0, ())] = zero_weight_move
    return WiringProtocol(
        n_parties=2,
        randomness=SharedRandomness((0, 1, 2), (HALF, Fraction(0), HALF)),
        bank=BoxBank((pr_instance((0, 1)),)),
        strategies=tuple(TableStrategy(party, moves[party], outputs[party]) for party in (0, 1)),
        input_sizes=(2, 2),
        output_sizes=(2, 2),
    )


def test_first_induced_box_walks_each_branch_once(monkeypatch):
    walks = []
    real_walk = wiring._walk

    def counting_walk(protocol, lam, x, on_leaf, weight=Fraction(1)):
        walks.append((lam, x))
        return real_walk(protocol, lam, x, on_leaf, weight)

    monkeypatch.setattr(wiring, "_walk", counting_walk)
    proto = _flipping_pr_protocol()
    first = induced_box(proto)  # validates and executes in one walk per (lam, x)
    assert sorted(walks) == sorted(itertools.product((0, 1, 2), proto.inputs()))
    walks.clear()
    again = induced_box(proto)  # every call validates again, in the same walks
    assert sorted(walks) == sorted(itertools.product((0, 1, 2), proto.inputs()))
    assert first == again == bw.uniform_box((2, 2), (2, 2))
    walks.clear()
    fresh = _flipping_pr_protocol()
    assert execute_exact(fresh, (1, 1)) == execute_exact(fresh, (1, 1))
    assert len(walks) == 2 * 3 * 4  # each call walks every (lam, x) once


def test_zero_weight_lam_is_still_validated():
    proto = _flipping_pr_protocol(zero_weight_move=("use", 5, 0))
    verdict = validate_protocol(_flipping_pr_protocol(zero_weight_move=("use", 5, 0)))  # a fresh copy
    assert verdict.violation == {"lam": 1, "x": (0, 0), "reason": "party 0 referenced unknown instance 5"}
    for run in (induced_box, lambda p: execute_exact(p, (1, 1))):
        with pytest.raises(Unvalidated) as err:
            run(proto)
        assert str(err.value) == f"protocol failed validation: {verdict.violation}"


def _identity_with(party, moves=None, outputs=None):
    """The PR identity wiring with some of party's table entries replaced."""
    proto = identity_wiring(bw.pr_box())
    strategy = proto.strategies[party]
    strategy.moves.update(moves or {})
    strategy.outputs.update(outputs or {})
    return proto


@pytest.mark.parametrize(
    "moves, reason",
    [
        ({(0, 1, ()): ("usee", 0, 1)}, "party 0 move ('usee', 0, 1) is neither STOP nor ('use', int, int)"),
        ({(0, 1, ()): ("use", 0)}, "party 0 move ('use', 0) is neither STOP nor ('use', int, int)"),
        ({(0, 1, ()): ["use", 0, 1]}, "party 0 move ['use', 0, 1] is neither STOP nor ('use', int, int)"),
        ({(0, 1, ()): ("stop", 1)}, "party 0 move ('stop', 1) is neither STOP nor ('use', int, int)"),
        ({(0, 1, ()): ("use", 0, 0.5)}, "party 0 move ('use', 0, 0.5) is neither STOP nor ('use', int, int)"),
        ({(0, 1, ()): ("use", 0.0, 1)}, "party 0 move ('use', 0.0, 1) is neither STOP nor ('use', int, int)"),
    ],
    ids=["misspelled tag", "short tuple", "list", "stop with an argument", "float input", "float instance"],
)
def test_malformed_moves_are_violations(moves, reason):
    proto = _identity_with(0, moves=moves)
    verdict = validate_protocol(proto)
    assert verdict.violation == {"lam": 0, "x": (1, 0), "reason": reason}
    for run in (
        induced_box,
        lambda p: execute_exact(p, (1, 1)),
        lambda p: execute_sample(p, (1, 1), seed=0, n_runs=10),
    ):
        with pytest.raises(Unvalidated) as err:
            run(proto)
        assert str(err.value) == f"protocol failed validation: {verdict.violation}"


@pytest.mark.parametrize(
    "output, reason",
    [
        (0.5, "party 1 output 0.5 is not an int"),
        (Fraction(1), "party 1 output Fraction(1, 1) is not an int"),
        (True, "party 1 output True is not an int"),
        (2, "party 1 output 2 out of range"),
    ],
    ids=["float", "Fraction", "bool", "out of range"],
)
def test_non_integer_or_out_of_range_outputs_are_violations(output, reason):
    proto = _identity_with(1, outputs={(0, 0, (0,)): output})
    verdict = validate_protocol(proto)
    assert verdict.violation == {"lam": 0, "x": (0, 0), "reason": reason}
    for run in (
        induced_box,
        lambda p: execute_exact(p, (0, 0)),
        lambda p: execute_sample(p, (0, 0), seed=0, n_runs=10),
    ):
        with pytest.raises(Unvalidated, match="protocol failed validation"):
            run(proto)


def test_shared_randomness_weights_must_be_exact():
    # float weights would make every executor's probabilities floats
    with pytest.raises(bw.DimensionMismatch, match="must be int or Fraction, got 0.1$"):
        SharedRandomness((0, 1), (0.1, 0.9))
    for weight in (0.5, "1/2", None):
        with pytest.raises(bw.DimensionMismatch, match="must be int or Fraction"):
            SharedRandomness((0, 1), (weight, HALF))
    exact = dataclasses.replace(_shared_coin_protocol(), randomness=SharedRandomness((0, 1), (0, 1)))
    assert execute_exact(exact, (0, 0)).outcomes == {(1, 1): 1}


@pytest.mark.parametrize(
    "first_call",
    [
        lambda p: execute_sample(p, (1, 1), seed=0, n_runs=10),
        lambda p: execute_exact(p, (1, 1)),
        induced_box,
    ],
    ids=["execute_sample", "execute_exact", "induced_box"],
)
def test_protocol_edited_after_a_call_is_refused(first_call):
    # strategies are mutable: a table edited after a first call must be
    # validated again on the next call, not run unchecked
    edits = [
        ({}, {(0, 1, (0,)): 5}, "party 0 output 5 out of range"),  # an output out of range
        ({(0, 1, (0,)): ("use", 0, 1)}, {}, "party 0 used instance 0 twice"),  # a box used twice
    ]
    for moves, outputs, reason in edits:
        proto = identity_wiring(bw.pr_box())
        first_call(proto)
        proto.strategies[0].moves.update(moves)
        proto.strategies[0].outputs.update(outputs)
        for run in (
            lambda p: execute_sample(p, (1, 1), seed=0, n_runs=10),
            lambda p: execute_exact(p, (1, 1)),
            induced_box,
        ):
            with pytest.raises(Unvalidated, match=re.escape(reason)):
                run(proto)


def test_table_strategy_json_round_trip():
    proto = identity_wiring(bw.pr_box())
    s = proto.strategies[0]
    back = TableStrategy.from_json_dict(s.to_json_dict())
    assert back.moves == s.moves
    assert back.outputs == s.outputs


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_table_protocol_json_round_trip(data):
        # random banks of 0..2 PR boxes, random shared randomness and, for
        # every (lam, x), one of the party's decision trees
        n = data.draw(st.integers(2, 3))
        owners = data.draw(st.lists(st.sampled_from(list(itertools.permutations(range(n), 2))), max_size=2))
        bank = BoxBank(tuple(pr_instance(pair) for pair in owners))
        input_sizes = tuple(data.draw(st.integers(1, 2)) for _ in range(n))
        output_sizes = tuple(data.draw(st.integers(1, 2)) for _ in range(n))
        support = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
        weights = data.draw(st.lists(st.integers(1, 3), min_size=len(support), max_size=len(support)))
        strategies = []
        for party in range(n):
            moves, outputs = {}, {}
            for lam in support:
                for x in range(input_sizes[party]):
                    owned = frozenset(bank.owned_by(party))
                    trees = list(wiring._party_trees(bank, party, owned, output_sizes[party], lam, x, ()))
                    tree_moves, tree_outputs = trees[data.draw(st.integers(0, len(trees) - 1))]
                    moves.update(tree_moves)
                    outputs.update(tree_outputs)
            strategies.append(TableStrategy(party, moves, outputs))
        proto = WiringProtocol(
            n_parties=n,
            randomness=SharedRandomness(tuple(support), tuple(Fraction(w, sum(weights)) for w in weights)),
            bank=bank,
            strategies=tuple(strategies),
            input_sizes=input_sizes,
            output_sizes=output_sizes,
        )
        document = json.loads(json.dumps(proto.to_json_dict()))
        back = WiringProtocol.from_json_dict(document)
        assert back.to_json_dict() == document
        assert induced_box(back) == induced_box(proto)

except ImportError:  # pragma: no cover
    pass
