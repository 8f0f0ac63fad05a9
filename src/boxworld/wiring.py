"""Adaptive wiring protocols over a bank of shared nonsignaling boxes.

Parties share random data and a bank of two-party box instances.  Each
party, privately and adaptively, decides which of its instances to use
next and with which input, as a function of the shared randomness, its
own measurement input, and the box outputs it has already observed; at
the end it announces an output.  No communication happens anywhere.

The executors (`execute_exact`, `induced_box`, `execute_sample`), not
their callers, choose how a protocol runs: a compiled protocol's own
protocol (`compiler.compiled_owner`) through the compiler's affine core,
any other through the generic branch walk, which the tests reach on a
compiled protocol through a copy with a fresh strategy tuple.  The walk
computes the exact outcome distribution by branch enumeration: every
box-side use branches over the side's possible outputs, weighted by the
template's exact marginal (first side to act) or conditional (second
side).  Because the templates are nonsignaling and every side is used at
most once, any scheduling of the parties yields the same distribution;
the engine canonically runs parties in index order.  Branch weights are
computed per call, in a table that lives as long as one walk or one
sampling call; nothing is cached at module level.

Validation happens where a protocol's parts are fixed.  A walked protocol
is validated by every executor call, over every (lam, x) branch, since its
strategies are mutable objects: `execute_exact` and `induced_box` validate
and accumulate in the same walks, and `execute_sample` validates before it
draws.  A compiled protocol is validated once, by `compiler.compile_circuit`,
which builds its bank, randomness and strategies; `compiled_owner` proves a
protocol kept exactly those parts, so its executors go straight to the
affine core.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .boxes import Box, check_no_signaling, make_box, pr_box
from .errors import BoxworldError, DimensionMismatch, ShapeMismatch, TooLarge, Unvalidated, VerificationFailed
from .rational import format_rational, parse_rational

STOP = ("stop",)

DEFAULT_STRATEGY_CAP = 10 ** 7

# the one template every `pr_instance` shares; its table is read-only, so
# checking it here once, not per bank (`_check_bank`), stays sound
_PR_TEMPLATE = pr_box()
_PR_TEMPLATE = replace(_PR_TEMPLATE, table=MappingProxyType(_PR_TEMPLATE.table))
if not check_no_signaling(_PR_TEMPLATE):
    raise VerificationFailed("the PR-box template signals")


@dataclass(frozen=True)
class BoxInstance:
    """One shared box: `owners[s]` is the party holding template slot s."""

    template: Box
    owners: tuple[int, int]

    def __post_init__(self):
        if self.template.n_parties != 2:
            raise ShapeMismatch("bank instances must use two-party templates")
        if len(self.owners) != 2:
            raise ShapeMismatch("owners must name one party per template slot")


@dataclass(frozen=True)
class BoxBank:
    instances: tuple[BoxInstance, ...]

    def owned_by(self, party: int) -> list[int]:
        return [k for k, inst in enumerate(self.instances) if party in inst.owners]


@dataclass(frozen=True)
class SharedRandomness:
    """Finite shared-randomness source with exact rational weights (each an
    int or a Fraction; a float is refused, as it would make every
    probability computed from it inexact)."""

    support: tuple
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        inexact = [w for w in self.weights if not isinstance(w, (int, Fraction))]
        if inexact:
            raise DimensionMismatch(f"shared-randomness weights must be int or Fraction, got {inexact[0]!r}")
        if len(self.support) != len(self.weights):
            raise DimensionMismatch("support and weights differ in length")
        if sum(self.weights, Fraction(0)) != 1:
            raise DimensionMismatch("shared-randomness weights must sum to 1")
        if any(w < 0 for w in self.weights):
            raise DimensionMismatch("shared-randomness weights must be nonnegative")

    @staticmethod
    def singleton(value=0) -> "SharedRandomness":
        return SharedRandomness((value,), (Fraction(1),))

    @staticmethod
    def uniform(values) -> "SharedRandomness":
        values = tuple(values)
        w = Fraction(1, len(values))
        return SharedRandomness(values, (w,) * len(values))


class TableStrategy:
    """Extensional party strategy: explicit decision tables.

    `moves` maps (lam, x, history) to ("use", instance_index, input) or
    STOP; `outputs` maps (lam, x, history) at stopping points to the final
    output.  History is the tuple of box outputs observed so far, in the
    order the party made its moves.
    """

    def __init__(self, party: int, moves: Mapping, outputs: Mapping):
        self.party = party
        self.moves = dict(moves)
        self.outputs = dict(outputs)

    def next_move(self, lam, x, history):
        return self.moves[(lam, x, tuple(history))]

    def final_output(self, lam, x, history):
        return self.outputs[(lam, x, tuple(history))]

    def to_json_dict(self) -> dict:
        def key_str(key):
            lam, x, hist = key
            return f"{lam},{x},{''.join(str(a) for a in hist)}"

        moves = {}
        for key, mv in self.moves.items():
            moves[key_str(key)] = list(mv) if mv != STOP else ["stop"]
        outputs = {key_str(key): out for key, out in self.outputs.items()}
        return {"party": self.party, "moves": moves, "outputs": outputs}

    @staticmethod
    def from_json_dict(data: dict) -> "TableStrategy":
        def parse_key(text):
            lam, x, hist = text.split(",")
            return (int(lam), int(x), tuple(int(c) for c in hist))

        moves = {}
        for key, mv in data["moves"].items():
            moves[parse_key(key)] = STOP if mv[0] == "stop" else ("use", int(mv[1]), int(mv[2]))
        outputs = {parse_key(key): int(out) for key, out in data["outputs"].items()}
        return TableStrategy(data["party"], moves, outputs)


@dataclass(frozen=True, eq=False)
class WiringProtocol:
    """Everything needed to run one round: randomness, bank, one strategy per party."""

    n_parties: int
    randomness: SharedRandomness
    bank: BoxBank
    strategies: tuple
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]

    def inputs(self):
        return itertools.product(*(range(s) for s in self.input_sizes))

    def to_json_dict(self) -> dict:
        """The table-protocol document that `from_json_dict` reads back; only
        PR-box templates, TableStrategy strategies and integer shared
        randomness have one (anything else raises ShapeMismatch)."""
        if any(inst.template != _PR_TEMPLATE for inst in self.bank.instances):
            raise ShapeMismatch("only PR-box bank templates have a JSON form")
        if not all(isinstance(s, TableStrategy) for s in self.strategies):
            raise ShapeMismatch("only TableStrategy strategies have a JSON form")
        if not all(isinstance(lam, int) for lam in self.randomness.support):
            raise ShapeMismatch("only integer shared randomness has a JSON form")
        weights = [format_rational(w) for w in self.randomness.weights]
        return {
            "parties": self.n_parties,
            "input_sizes": list(self.input_sizes),
            "output_sizes": list(self.output_sizes),
            "randomness": {"support": list(self.randomness.support), "weights": weights},
            "bank": [{"template": "PR", "owners": list(inst.owners)} for inst in self.bank.instances],
            "strategies": [s.to_json_dict() for s in self.strategies],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "WiringProtocol":
        """A table protocol from its JSON document (no "randomness": singleton 0)."""
        instances = []
        for inst in data["bank"]:
            if inst.get("template", "PR") != "PR":
                raise BoxworldError(f"unknown bank template {inst.get('template')!r}")
            instances.append(pr_instance(inst["owners"]))
        randomness = data.get("randomness", {"support": [0], "weights": ["1/1"]})
        return WiringProtocol(
            n_parties=int(data["parties"]),
            randomness=SharedRandomness(
                tuple(int(lam) for lam in randomness["support"]),
                tuple(parse_rational(w) for w in randomness["weights"]),
            ),
            bank=BoxBank(tuple(instances)),
            strategies=tuple(TableStrategy.from_json_dict(s) for s in data["strategies"]),
            input_sizes=tuple(int(size) for size in data["input_sizes"]),
            output_sizes=tuple(int(size) for size in data["output_sizes"]),
        )


@dataclass(frozen=True)
class ProtocolVerdict:
    ok: bool
    violation: Optional[dict] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact distribution over joint outputs for one fixed input tuple."""

    x: tuple[int, ...]
    outcomes: Mapping[tuple[int, ...], Fraction] = field(hash=False)

    def prob(self, a) -> Fraction:
        return self.outcomes.get(tuple(a), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.outcomes.values(), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.x),
            "outcomes": [
                {"a": list(a), "p": format_rational(p)}
                for a, p in sorted(self.outcomes.items())
                if p != 0
            ],
        }


def _side_weights(template: Box, slot: int, y: int, other) -> dict[int, Fraction]:
    """Branch weights for the output of template slot `slot` fed input y.

    `other` is the other slot's (input, output) record, or None if that
    side has not acted yet.  The first side to act gets its marginal,
    well-defined because bank templates are required to be nonsignaling
    (the other slot's input is pinned to 0 for the summation); the second
    side gets the joint conditioned on the first side's record.  The
    product of the two reproduces the template's joint distribution.
    """
    x_pair = [0, 0]
    x_pair[slot] = y
    weights: dict[int, Fraction] = {}
    if other is None:
        for a_pair in template.outputs():
            p = template.prob(tuple(x_pair), a_pair)
            if p != 0:
                weights[a_pair[slot]] = weights.get(a_pair[slot], Fraction(0)) + p
        return weights
    y_other, a_other = other
    denom = _side_weights(template, 1 - slot, y_other, None)[a_other]
    x_pair[1 - slot] = y_other
    a_pair = [0, 0]
    a_pair[1 - slot] = a_other
    for alpha in range(template.output_sizes[slot]):
        a_pair[slot] = alpha
        p = template.prob(tuple(x_pair), tuple(a_pair))
        if p != 0:
            weights[alpha] = p / denom
    return weights


def _check_bank(bank: BoxBank) -> Optional[dict]:
    """First instance whose template signals, or None.

    `_PR_TEMPLATE`, the one PR box every `pr_instance` and compiled bank
    shares, was checked when the module built it and its table is
    read-only, so it is skipped and a bank of PR instances costs no check.
    Any other distinct template object is checked once: boxes are frozen,
    so one object has one verdict."""
    checked: set[int] = set()
    for k, inst in enumerate(bank.instances):
        template = inst.template
        if template is _PR_TEMPLATE or id(template) in checked:
            continue
        verdict = check_no_signaling(template)
        if not verdict:
            return {"instance": k, "reason": "signaling template", "party": verdict.party}
        checked.add(id(template))
    return None


def _walk(protocol: WiringProtocol, lam, x, on_leaf, weight=Fraction(1)):
    """Shared branch-tree walk: calls on_leaf(outputs, weight) per complete branch.

    Raises Unvalidated with a precise reason on any structural violation,
    so the same traversal backs both validation and execution.
    """
    n = protocol.n_parties
    bank = protocol.bank.instances
    empty_records = tuple((None, None) for _ in bank)
    table: dict = {}  # (instance index, slot, y, other side's record) -> weights

    def run_party(i, records, w, outputs):
        if i == n:
            on_leaf(outputs, w)
            return
        strat = protocol.strategies[i]
        used: frozenset = frozenset()

        def step(history, records, w, used):
            try:
                move = strat.next_move(lam, x[i], history)
            except KeyError:
                raise Unvalidated(
                    f"party {i} has no move defined at lam={lam}, x={x[i]}, history={history}"
                )
            if move == STOP:
                try:
                    out = strat.final_output(lam, x[i], history)
                except KeyError:
                    raise Unvalidated(
                        f"party {i} has no output defined at lam={lam}, x={x[i]}, history={history}"
                    )
                if type(out) is not int:
                    raise Unvalidated(f"party {i} output {out!r} is not an int")
                if not (0 <= out < protocol.output_sizes[i]):
                    raise Unvalidated(f"party {i} output {out} out of range")
                run_party(i + 1, records, w, outputs + (out,))
                return
            if not (
                type(move) is tuple and len(move) == 3 and move[0] == "use"
                and type(move[1]) is int and type(move[2]) is int
            ):
                raise Unvalidated(f"party {i} move {move!r} is neither STOP nor ('use', int, int)")
            _, inst_idx, y = move
            if not (0 <= inst_idx < len(bank)):
                raise Unvalidated(f"party {i} referenced unknown instance {inst_idx}")
            inst = bank[inst_idx]
            if i not in inst.owners:
                raise Unvalidated(f"party {i} does not own instance {inst_idx}")
            if inst_idx in used:
                raise Unvalidated(f"party {i} used instance {inst_idx} twice")
            record = records[inst_idx]
            slot = 0 if (inst.owners[0] == i and record[0] is None) else 1
            if record[slot] is not None:
                raise Unvalidated(f"instance {inst_idx} slot {slot} already used")
            if not (0 <= y < inst.template.input_sizes[slot]):
                raise Unvalidated(f"party {i} input {y} out of range for instance {inst_idx}")
            side = (inst_idx, slot, y, record[1 - slot])
            if side not in table:
                table[side] = _side_weights(inst.template, slot, y, record[1 - slot])
            for alpha, aw in table[side].items():
                new_record = list(record)
                new_record[slot] = (y, alpha)
                new_records = records[:inst_idx] + (tuple(new_record),) + records[inst_idx + 1:]
                step(history + (alpha,), new_records, w * aw, used | {inst_idx})

        step((), records, w, used)

    run_party(0, empty_records, weight, ())


def _compiled_of(protocol: WiringProtocol):
    """(compiler module, compiled protocol) if `protocol` is a compiled
    protocol's own (`compiler.compiled_owner`), else None: the one place the
    executors learn to run it through the affine core, not the walk."""
    from . import compiler  # compiler imports this module

    compiled = compiler.compiled_owner(protocol)
    return None if compiled is None else (compiler, compiled)


def validate_protocol(protocol: WiringProtocol) -> ProtocolVerdict:
    """Check the bank and the sizes, symbolically walk every (lam, x)
    branch, and report the first violation.

    Every move must be STOP or ("use", instance, input) with int instance
    and input, every output an int in range, every box side used at most
    once.  The walk, exponential in the bank size, is skipped for a
    compiled protocol's own protocol (`compiler.compiled_owner`), whose
    strategies follow the compiler's block plan; `compile_circuit` runs
    this check once on each protocol it builds.  A copy with a swapped
    bank, randomness or strategy tuple is walked like any other protocol.
    """
    return _validate(protocol)


def _validate(protocol: WiringProtocol, leaves: Optional[dict] = None) -> ProtocolVerdict:
    """`validate_protocol`, whose walk can also do an executor's work.

    For each input tuple x that is a key of `leaves`, the walk of (lam, x)
    adds every complete branch's exact weight, lam's weight included, to
    leaves[x][outputs].  Lam of weight zero are walked all the same, for
    validation, and add nothing.
    """
    bad = _check_bank(protocol.bank)
    if bad is not None:
        return ProtocolVerdict(False, bad)
    if len(protocol.strategies) != protocol.n_parties:
        return ProtocolVerdict(False, {"reason": "one strategy per party required"})
    if not len(protocol.input_sizes) == len(protocol.output_sizes) == protocol.n_parties:
        return ProtocolVerdict(False, {"reason": "one input size and one output size per party required"})
    if _compiled_of(protocol) is None:
        for lam, w_lam in zip(protocol.randomness.support, protocol.randomness.weights):
            for x in protocol.inputs():
                outcomes = None if leaves is None else leaves.get(x)
                try:
                    _walk(protocol, lam, x, _no_leaf if outcomes is None else _accumulator(outcomes), weight=w_lam)
                except Unvalidated as err:
                    return ProtocolVerdict(False, {"lam": lam, "x": x, "reason": str(err)})
    return ProtocolVerdict(True)


def _no_leaf(outputs, w):
    pass


def _accumulator(outcomes: dict):
    """A leaf callback adding each nonzero branch weight to outcomes[outputs]."""

    def on_leaf(outputs, w):
        if w != 0:
            outcomes[outputs] = outcomes.get(outputs, Fraction(0)) + w

    return on_leaf


def _require_ok(verdict: ProtocolVerdict):
    if not verdict:
        raise Unvalidated(f"protocol failed validation: {verdict.violation}")


def _walked_outcomes(protocol: WiringProtocol, xs) -> dict:
    """x -> {outputs: exact weight} for each input tuple in xs, by the walks
    that validate the protocol: one per (lam, x) over every lam and every
    x, raising Unvalidated on the first violation."""
    leaves: dict = {x: {} for x in xs}
    _require_ok(_validate(protocol, leaves))
    return leaves


def _summing_to_one(dist: OutcomeDistribution) -> OutcomeDistribution:
    if dist.total() != 1:
        raise VerificationFailed(f"branch weights sum to {dist.total()}, not 1")
    return dist


def checked_inputs(input_sizes: Sequence[int], x) -> tuple[int, ...]:
    """x as a tuple, after checking it holds one in-range input per party."""
    x = tuple(x)
    if len(x) != len(input_sizes):
        raise DimensionMismatch(f"expected {len(input_sizes)} inputs, got {len(x)}")
    for party, (value, size) in enumerate(zip(x, input_sizes)):
        if not 0 <= value < size:
            raise DimensionMismatch(f"input {value} of party {party} is outside 0..{size - 1}")
    return x


def execute_exact(protocol: WiringProtocol, x) -> OutcomeDistribution:
    """Exact outcome distribution on input tuple x.

    A compiled protocol's own protocol (or a `dataclasses.replace` copy
    that keeps its parts) is read off the compiler's affine share forms
    (`compiler.compiled_distribution`), at any gate count; every other
    protocol is computed by full branch enumeration, in the walks that
    validate it on every call.  Either way the weights must sum to
    exactly 1.
    """
    x = checked_inputs(protocol.input_sizes, x)
    owner = _compiled_of(protocol)
    if owner is None:
        return _summing_to_one(OutcomeDistribution(x=x, outcomes=_walked_outcomes(protocol, [x])[x]))
    compiler, compiled = owner
    return _summing_to_one(compiler.compiled_distribution(compiled, x))


def induced_box(protocol: WiringProtocol) -> Box:
    """The box the protocol induces: its exact distribution on every input.

    A compiled protocol's own protocol is read off the affine share forms
    in one pass (`compiler.induced_box_fast`); any other protocol is
    assembled from the branch walk on every input tuple, the same walks
    that validate it on every call.  Each input's weights must sum to
    exactly 1, and the result is post-verified to be nonsignaling: a
    communication-free protocol cannot signal, so a failure here means an
    executor bug.
    """
    owner = _compiled_of(protocol)
    if owner is None:
        table = {}
        for x, outcomes in _walked_outcomes(protocol, protocol.inputs()).items():
            _summing_to_one(OutcomeDistribution(x=x, outcomes=outcomes))
            table.update(((x, a), p) for a, p in outcomes.items())
        box = make_box(protocol.n_parties, protocol.input_sizes, protocol.output_sizes, table, sparse=True)
    else:
        compiler, compiled = owner
        box = compiler.induced_box_fast(compiled)
    verdict = check_no_signaling(box)
    if not verdict.ok:
        raise VerificationFailed(f"induced box signals: {verdict}")
    return box


def _sampler(dist: Mapping) -> tuple[int, list[int], list]:
    """(denominator, cumulative integer thresholds, values) for exact draws.

    Values of weight zero are left out, so they can never be drawn."""
    items = sorted((value, Fraction(p)) for value, p in dist.items() if p != 0)
    denom = 1
    for _, p in items:
        denom = math.lcm(denom, p.denominator)
    thresholds = []
    acc = 0
    for _, p in items:
        acc += p.numerator * (denom // p.denominator)
        thresholds.append(acc)
    if acc != denom:
        raise VerificationFailed(f"distribution sums to {Fraction(acc, denom)}, not 1")
    return denom, thresholds, [value for value, _ in items]


def _draw(rng: random.Random, sampler: tuple[int, list[int], list]) -> object:
    """One exact draw from a `_sampler` triple, without float roundoff."""
    denom, thresholds, values = sampler
    if denom == 1:
        return values[0]
    r = rng.randrange(denom)
    for threshold, value in zip(thresholds, values):
        if r < threshold:
            return value
    raise AssertionError("unreachable")


def execute_sample(protocol: WiringProtocol, x, seed: int, n_runs: int) -> dict[tuple[int, ...], int]:
    """Empirical counts from n_runs seeded executions.

    Sampling walks the same branch tree as `execute_exact`'s generic walk
    and draws each branch with its exact rational weight, so outcomes of
    exact probability zero can never appear, and identical seeds give
    identical counts.  Every other protocol is validated by a full walk
    before each call draws.  A compiled protocol's own protocol (or a
    `dataclasses.replace` copy of it) is sampled from the compiler's affine
    share forms instead: one uniform branch vector per run, the same
    distribution.
    """
    x = checked_inputs(protocol.input_sizes, x)
    owner = _compiled_of(protocol)
    if owner is not None:
        compiler, compiled = owner
        return compiler.sample_compiled(compiled, x, seed, n_runs)
    _require_ok(validate_protocol(protocol))
    return _sample_walk(protocol, x, seed, n_runs)


def _sample_walk(protocol: WiringProtocol, x, seed: int, n_runs: int) -> dict[tuple[int, ...], int]:
    """execute_sample by the generic branch walk on a validated protocol:
    one draw per box side, each strategy asked for its move on the history
    it has observed."""
    rng = random.Random(seed)
    lam_sampler = _sampler(dict(zip(protocol.randomness.support, protocol.randomness.weights)))
    samplers: dict = {}  # (instance index, slot, y, other side's record) -> _sampler triple
    counts: dict[tuple[int, ...], int] = {}
    bank = protocol.bank.instances
    for _ in range(n_runs):
        lam = _draw(rng, lam_sampler)
        records = [[None, None] for _ in bank]
        outputs = []
        for i in range(protocol.n_parties):
            strategy = protocol.strategies[i]
            history: tuple[int, ...] = ()
            while True:
                move = strategy.next_move(lam, x[i], history)
                if move == STOP:
                    outputs.append(strategy.final_output(lam, x[i], history))
                    break
                _, inst_idx, y = move
                inst = bank[inst_idx]
                record = records[inst_idx]
                slot = 0 if (inst.owners[0] == i and record[0] is None) else 1
                side = (inst_idx, slot, y, record[1 - slot])
                if side not in samplers:
                    samplers[side] = _sampler(_side_weights(inst.template, slot, y, record[1 - slot]))
                alpha = _draw(rng, samplers[side])
                record[slot] = (y, alpha)
                history += (alpha,)
        key = tuple(outputs)
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_strategies(n_parties: int, bank: BoxBank, input_sizes, output_sizes) -> int:
    """Closed-form count of deterministic adaptive strategies (matches the generator)."""
    total = 1
    for party in range(n_parties):
        owned = tuple(bank.owned_by(party))
        per_x = _tree_count(bank, party, frozenset(owned), output_sizes[party], {})
        per_party = per_x ** input_sizes[party]
        total *= per_party
    return total


def _tree_count(bank, party, avail, out_size, memo):
    key = avail
    if key in memo:
        return memo[key]
    total = out_size
    for inst_idx in avail:
        inst = bank.instances[inst_idx]
        slot = 0 if inst.owners[0] == party else 1
        y_choices = inst.template.input_sizes[slot]
        branches = inst.template.output_sizes[slot]
        sub = _tree_count(bank, party, avail - {inst_idx}, out_size, memo)
        total += y_choices * sub ** branches
    memo[key] = total
    return total


def _party_trees(bank, party, avail, out_size, lam, x, history):
    """Yield (moves, outputs) dict fragments for one party's subtree."""
    key = (lam, x, history)
    yield from (({key: STOP}, {key: out}) for out in range(out_size))
    for inst_idx in sorted(avail):
        inst = bank.instances[inst_idx]
        slot = 0 if inst.owners[0] == party else 1
        for y in range(inst.template.input_sizes[slot]):
            branch_lists = [
                list(_party_trees(bank, party, avail - {inst_idx}, out_size, lam, x, history + (alpha,)))
                for alpha in range(inst.template.output_sizes[slot])
            ]
            for combo in itertools.product(*branch_lists):
                moves = {key: ("use", inst_idx, y)}
                outputs = {}
                for m, o in combo:
                    moves.update(m)
                    outputs.update(o)
                yield moves, outputs


def enumerate_strategies(
    n_parties: int,
    bank: BoxBank,
    input_sizes: Sequence[int],
    output_sizes: Sequence[int],
    cap: int = DEFAULT_STRATEGY_CAP,
):
    """Exhaustive, duplicate-free stream of deterministic wiring protocols.

    Every party independently ranges over all its adaptive decision trees
    (which instance next, with which input, as a function of outputs seen,
    with stopping always allowed); the stream is their product, wrapped
    into single-lambda WiringProtocol objects.  Raises TooLarge with the
    computed count if the space exceeds `cap`.
    """
    input_sizes = tuple(input_sizes)
    output_sizes = tuple(output_sizes)
    total = count_strategies(n_parties, bank, input_sizes, output_sizes)
    if total > cap:
        raise TooLarge(total, cap)
    randomness = SharedRandomness.singleton(0)

    per_party: list[list[tuple[dict, dict]]] = []
    for party in range(n_parties):
        owned = frozenset(bank.owned_by(party))
        cells = [
            list(_party_trees(bank, party, owned, output_sizes[party], 0, x, ()))
            for x in range(input_sizes[party])
        ]
        combos = []
        for combo in itertools.product(*cells):
            moves: dict = {}
            outputs: dict = {}
            for m, o in combo:
                moves.update(m)
                outputs.update(o)
            combos.append((moves, outputs))
        per_party.append(combos)

    for choice in itertools.product(*per_party):
        strategies = tuple(
            TableStrategy(party, moves, outputs)
            for party, (moves, outputs) in enumerate(choice)
        )
        yield WiringProtocol(
            n_parties=n_parties,
            randomness=randomness,
            bank=bank,
            strategies=strategies,
            input_sizes=input_sizes,
            output_sizes=output_sizes,
        )


def pr_instance(owners: tuple[int, int]) -> BoxInstance:
    """PR-box instance; all instances share one immutable template object,
    checked for no-signaling once, when the module builds it, so
    `_check_bank` skips them."""
    return BoxInstance(template=_PR_TEMPLATE, owners=tuple(owners))


def identity_wiring(template: Box) -> WiringProtocol:
    """Each party feeds its measurement input straight into its side and
    reports the box output: the induced box is the template itself."""
    bank = BoxBank((BoxInstance(template, (0, 1)),))
    strategies = []
    for party in (0, 1):
        moves = {}
        outputs = {}
        for x in range(template.input_sizes[party]):
            moves[(0, x, ())] = ("use", 0, x)
            for alpha in range(template.output_sizes[party]):
                moves[(0, x, (alpha,))] = STOP
                outputs[(0, x, (alpha,))] = alpha
        strategies.append(TableStrategy(party, moves, outputs))
    return WiringProtocol(
        n_parties=2,
        randomness=SharedRandomness.singleton(),
        bank=bank,
        strategies=tuple(strategies),
        input_sizes=template.input_sizes,
        output_sizes=template.output_sizes,
    )
