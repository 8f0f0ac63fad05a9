"""Adaptive wiring protocols over a bank of shared nonsignaling boxes.

Parties share random data and a bank of two-party box instances.  Each
party, privately and adaptively, decides which of its instances to use
next and with which input, as a function of the shared randomness, its
own measurement input, and the box outputs it has already observed; at
the end it announces an output.  No communication happens anywhere.

`execute_exact` computes the exact outcome distribution by branch
enumeration: every box-side use branches over the side's possible
outputs, weighted by the template's exact marginal (first side to act)
or conditional (second side).  Because the templates are nonsignaling
and every side is used at most once, any scheduling of the parties
yields the same distribution; the engine canonically runs parties in
index order.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .boxes import Box, check_no_signaling, make_box
from .errors import DimensionMismatch, ShapeMismatch, TooLarge, Unvalidated

STOP = ("stop",)

DEFAULT_STRATEGY_CAP = 10 ** 7


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
    """Finite shared-randomness source with exact rational weights."""

    support: tuple
    weights: tuple[Fraction, ...]

    def __post_init__(self):
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
    """Everything needed to run one round: randomness, bank, one strategy per party.

    `prevalidated` marks protocols whose move plans are correct by
    construction (the compiler's output); validation then skips the
    exhaustive branch walk, which is exponential in the bank size.  The
    executors still raise Unvalidated on any actual violation they hit.
    """

    n_parties: int
    randomness: SharedRandomness
    bank: BoxBank
    strategies: tuple
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    prevalidated: bool = False

    def inputs(self):
        return itertools.product(*(range(s) for s in self.input_sizes))


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
        from .rational import format_rational

        return {
            "x": list(self.x),
            "outcomes": [
                {"a": list(a), "p": format_rational(p)}
                for a, p in sorted(self.outcomes.items())
                if p != 0
            ],
        }


_marginal_cache: dict = {}


def _slot_marginal(template: Box, slot: int, y: int) -> dict[int, Fraction]:
    """Output distribution of one template slot given its own input.

    Well-defined because bank templates are required to be nonsignaling;
    the other slot's input is pinned to 0 for the summation.  Cache
    entries hold the template itself so a recycled id cannot alias.
    """
    key = (id(template), slot, y)
    hit = _marginal_cache.get(key)
    if hit is not None and hit[0] is template:
        return hit[1]
    dist: dict[int, Fraction] = {}
    for a_pair in template.outputs():
        x_pair = [0, 0]
        x_pair[slot] = y
        p = template.prob(tuple(x_pair), a_pair)
        if p != 0:
            dist[a_pair[slot]] = dist.get(a_pair[slot], Fraction(0)) + p
    if len(_marginal_cache) > 1 << 15:
        _marginal_cache.clear()
    _marginal_cache[key] = (template, dist)
    return dist


_alpha_cache: dict = {}


def _alpha_weights(inst: BoxInstance, slot: int, y: int, record) -> dict[int, Fraction]:
    """Branch weights for the output observed at `slot` given the instance state.

    First side to commit sees its marginal; the second side sees the joint
    conditioned on what the first side already observed.  The product of
    the two reproduces the template's joint distribution exactly.
    """
    other = record[1 - slot]
    if other is None:
        return _slot_marginal(inst.template, slot, y)
    key = (id(inst.template), slot, y, other)
    hit = _alpha_cache.get(key)
    if hit is not None and hit[0] is inst.template:
        return hit[1]
    y_other, a_other = other
    denom = _slot_marginal(inst.template, 1 - slot, y_other)[a_other]
    x_pair = [0, 0]
    x_pair[slot] = y
    x_pair[1 - slot] = y_other
    weights: dict[int, Fraction] = {}
    for alpha in range(inst.template.output_sizes[slot]):
        a_pair = [0, 0]
        a_pair[slot] = alpha
        a_pair[1 - slot] = a_other
        p = inst.template.prob(tuple(x_pair), tuple(a_pair))
        if p != 0:
            weights[alpha] = p / denom
    if len(_alpha_cache) > 1 << 15:
        _alpha_cache.clear()
    _alpha_cache[key] = (inst.template, weights)
    return weights


def _check_bank(bank: BoxBank) -> Optional[dict]:
    for k, inst in enumerate(bank.instances):
        verdict = check_no_signaling(inst.template)
        if not verdict:
            return {"instance": k, "reason": "signaling template", "party": verdict.party}
    return None


def _walk(protocol: WiringProtocol, lam, x, on_leaf, weight=Fraction(1)):
    """Shared branch-tree walk: calls on_leaf(outputs, weight) per complete branch.

    Raises Unvalidated with a precise reason on any structural violation,
    so the same traversal backs both validation and execution.
    """
    n = protocol.n_parties
    bank = protocol.bank.instances
    empty_records = tuple((None, None) for _ in bank)

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
            if move == STOP or move[0] == "stop":
                try:
                    out = strat.final_output(lam, x[i], history)
                except KeyError:
                    raise Unvalidated(
                        f"party {i} has no output defined at lam={lam}, x={x[i]}, history={history}"
                    )
                if not (0 <= out < protocol.output_sizes[i]):
                    raise Unvalidated(f"party {i} output {out} out of range")
                run_party(i + 1, records, w, outputs + (out,))
                return
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
            for alpha, aw in _alpha_weights(inst, slot, y, record).items():
                new_record = list(record)
                new_record[slot] = (y, alpha)
                new_records = records[:inst_idx] + (tuple(new_record),) + records[inst_idx + 1:]
                step(history + (alpha,), new_records, w * aw, used | {inst_idx})

        step((), records, w, used)

    run_party(0, empty_records, weight, ())


_validated_protocols: "weakref.WeakSet" = weakref.WeakSet()


def validate_protocol(protocol: WiringProtocol) -> ProtocolVerdict:
    """Symbolically walk every (lam, x) branch; report the first violation."""
    bad = _check_bank(protocol.bank)
    if bad is not None:
        return ProtocolVerdict(False, bad)
    if len(protocol.strategies) != protocol.n_parties:
        return ProtocolVerdict(False, {"reason": "one strategy per party required"})
    if protocol.prevalidated:
        _validated_protocols.add(protocol)
        return ProtocolVerdict(True)
    for lam in protocol.randomness.support:
        for x in protocol.inputs():
            try:
                _walk(protocol, lam, x, lambda outputs, w: None)
            except Unvalidated as err:
                return ProtocolVerdict(
                    False, {"lam": lam, "x": x, "reason": str(err)}
                )
    _validated_protocols.add(protocol)
    return ProtocolVerdict(True)


def _require_valid(protocol: WiringProtocol):
    if protocol in _validated_protocols:
        return
    verdict = validate_protocol(protocol)
    if not verdict:
        raise Unvalidated(f"protocol failed validation: {verdict.violation}")


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
    """Exact outcome distribution on input tuple x, by full branch enumeration."""
    x = checked_inputs(protocol.input_sizes, x)
    _require_valid(protocol)
    outcomes: dict[tuple[int, ...], Fraction] = {}

    def on_leaf(outputs, w):
        if w != 0:
            outcomes[outputs] = outcomes.get(outputs, Fraction(0)) + w

    for lam, w_lam in zip(protocol.randomness.support, protocol.randomness.weights):
        if w_lam != 0:
            _walk(protocol, lam, x, on_leaf, weight=w_lam)

    dist = OutcomeDistribution(x=x, outcomes=outcomes)
    assert dist.total() == 1, f"branch weights sum to {dist.total()}, not 1"
    return dist


def induced_box(protocol: WiringProtocol) -> Box:
    """Assemble execute_exact over every input tuple into a Box.

    The result is post-verified to be nonsignaling: a communication-free
    protocol cannot signal, so a failure here means an executor bug.
    """
    table = {}
    for x in protocol.inputs():
        dist = execute_exact(protocol, x)
        for a, p in dist.outcomes.items():
            if p != 0:
                table[(x, a)] = p
    box = make_box(
        protocol.n_parties,
        protocol.input_sizes,
        protocol.output_sizes,
        table,
        sparse=True,
    )
    verdict = check_no_signaling(box)
    assert verdict.ok, f"induced box signals: {verdict}"
    return box


_sampler_by_id: dict = {}


def _prepared_sampler(dist: Mapping):
    """(denominator, cumulative integer thresholds, values) for exact draws.

    Keyed by object identity: the executors hand in cached singleton dicts,
    so the identity hit rate is what makes sampling cheap.  The dict itself
    is kept in the cache entry so a recycled id cannot alias."""
    key = id(dist)
    hit = _sampler_by_id.get(key)
    if hit is not None and hit[0] is dist:
        return hit[1]
    items = sorted(dist.items())
    denom = 1
    for _, p in items:
        d = Fraction(p).denominator
        denom = denom * d // _gcd(denom, d)
    thresholds = []
    values = []
    acc = 0
    for value, p in items:
        p = Fraction(p)
        acc += p.numerator * (denom // p.denominator)
        thresholds.append(acc)
        values.append(value)
    assert acc == denom, "distribution does not sum to 1"
    prepared = (denom, thresholds, values)
    _sampler_by_id[key] = (dist, prepared)
    return prepared


def _sample_exact(rng: random.Random, dist: Mapping) -> object:
    """Draw from a finite rational distribution without float roundoff."""
    denom, thresholds, values = _prepared_sampler(dist)
    if denom == 1:
        return values[0]
    r = rng.randrange(denom)
    for threshold, value in zip(thresholds, values):
        if r < threshold:
            return value
    raise AssertionError("unreachable")


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class _ReplaySession:
    """Per-run strategy view; strategies may provide their own `session`
    attribute for O(1)-per-move sampling, this fallback replays history."""

    __slots__ = ("strategy", "lam", "x", "history")

    def __init__(self, strategy, lam, x):
        self.strategy = strategy
        self.lam = lam
        self.x = x
        self.history: tuple[int, ...] = ()

    def next_move(self):
        return self.strategy.next_move(self.lam, self.x, self.history)

    def observe(self, alpha):
        self.history = self.history + (alpha,)

    def final_output(self):
        return self.strategy.final_output(self.lam, self.x, self.history)


def _session_for(strategy, lam, x):
    maker = getattr(strategy, "session", None)
    if maker is not None:
        return maker(lam, x)
    return _ReplaySession(strategy, lam, x)


def execute_sample(protocol: WiringProtocol, x, seed: int, n_runs: int) -> dict[tuple[int, ...], int]:
    """Empirical counts from n_runs seeded executions.

    Sampling walks the same branch tree as execute_exact and draws each
    branch with its exact rational weight, so outcomes of exact probability
    zero can never appear, and identical seeds give identical counts.
    """
    x = checked_inputs(protocol.input_sizes, x)
    _require_valid(protocol)
    rng = random.Random(seed)
    lam_dist = dict(zip(protocol.randomness.support, protocol.randomness.weights))
    counts: dict[tuple[int, ...], int] = {}
    bank = protocol.bank.instances
    for _ in range(n_runs):
        lam = _sample_exact(rng, lam_dist)
        records = [[None, None] for _ in bank]
        outputs = []
        for i in range(protocol.n_parties):
            session = _session_for(protocol.strategies[i], lam, x[i])
            while True:
                move = session.next_move()
                if move == STOP or move[0] == "stop":
                    outputs.append(session.final_output())
                    break
                _, inst_idx, y = move
                inst = bank[inst_idx]
                record = records[inst_idx]
                slot = 0 if (inst.owners[0] == i and record[0] is None) else 1
                weights = _alpha_weights(inst, slot, y, tuple(record))
                alpha = _sample_exact(rng, weights)
                record[slot] = (y, alpha)
                session.observe(alpha)
        key = tuple(outputs)
        counts[key] = counts.get(key, 0) + 1
    return counts


def count_strategies(n_parties: int, bank: BoxBank, input_sizes, output_sizes, n_lam: int = 1) -> int:
    """Closed-form count of deterministic adaptive strategies (matches the generator)."""
    total = 1
    for party in range(n_parties):
        owned = tuple(bank.owned_by(party))
        per_x = _tree_count(bank, party, frozenset(owned), output_sizes[party], {})
        per_party = per_x ** (input_sizes[party] * n_lam)
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
    lam_values=(0,),
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
    total = count_strategies(n_parties, bank, input_sizes, output_sizes, len(lam_values))
    if total > cap:
        raise TooLarge(total, cap)
    randomness = (
        SharedRandomness.singleton(lam_values[0])
        if len(lam_values) == 1
        else SharedRandomness.uniform(lam_values)
    )

    per_party: list[list[tuple[dict, dict]]] = []
    for party in range(n_parties):
        owned = frozenset(bank.owned_by(party))
        cells = []
        for lam in lam_values:
            for x in range(input_sizes[party]):
                cells.append(list(_party_trees(bank, party, owned, output_sizes[party], lam, x, ())))
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


_pr_template: Optional[Box] = None


def pr_instance(owners: tuple[int, int]) -> BoxInstance:
    """PR-box instance; all instances share one immutable template object
    (keeps the executor's per-template caches small)."""
    global _pr_template
    if _pr_template is None:
        from .boxes import pr_box

        _pr_template = pr_box()
    return BoxInstance(template=_pr_template, owners=tuple(owners))


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
