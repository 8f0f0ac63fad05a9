"""Independent references for the benchmark's output checks.

Everything here is built from the definitions in the paper and the README,
never from the boxworld code path a workload times: parity-box tables come
straight from truth tables, circuits are evaluated gate by gate, the exact
distribution of a decision-table protocol comes from a direct walk over
the box definition, and locality certificates are re-checked against an
explicit list of deterministic strategies.  The only boxworld surface used
is data access (`Box.prob`, strategy tables, the `STOP` marker).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

HALF = Fraction(1, 2)


class Expectations:
    """Comparisons of outputs against expected values.

    `corrupt_next` makes the next comparison use a corrupted expected value
    (the self-test uses it to show that a wrong expectation is counted as a
    failed operation)."""

    def __init__(self):
        self.corrupt_next = False

    def same(self, got, want, what: str):
        """None when got == want, else a one-line failure reason."""
        if self.corrupt_next:
            self.corrupt_next = False
            want = ("corrupted expectation", want)
        if got == want:
            return None
        return f"{what}: got {_short(got)}, want {_short(want)}"

    def holds(self, ok: bool, what: str):
        return self.same(bool(ok), True, what)


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def first_failure(reasons):
    for reason in reasons:
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# truth tables, ownership splits, parity boxes
# ---------------------------------------------------------------------------


def parity(value: int) -> int:
    return bin(value).count("1") & 1


def x_tuples(sizes):
    """Joint inputs with party 0 varying fastest (the library's order)."""
    return [tuple(reversed(t)) for t in itertools.product(*(range(s) for s in reversed(sizes)))]


def ownership_splits(n: int, m: int):
    """All ways to hand each of n parties m of the bits b0..b{nm-1}."""
    names = [f"b{i}" for i in range(n * m)]
    seen = []
    for perm in itertools.permutations(range(n * m)):
        groups = tuple(tuple(sorted(perm[i * m:(i + 1) * m])) for i in range(n))
        if groups not in seen:
            seen.append(groups)
    return [[[names[i] for i in group] for group in groups] for groups in seen]


def owned_row(split, x) -> int:
    """Truth-table row for joint input x under an ownership split: slot j of
    party p carries bit j of x[p] into bit int(name[1:]) of the row."""
    row = 0
    for party, group in enumerate(split):
        for slot, name in enumerate(group):
            row |= ((x[party] >> slot) & 1) << int(name[1:])
    return row


def parity_prob(n: int, f_value: int, a) -> Fraction:
    """P(a | x) of the n-party parity box at an input where f(x) = f_value."""
    return Fraction(1, 2 ** (n - 1)) if sum(a) & 1 == f_value else Fraction(0)


def separable(n: int, bits) -> bool:
    """True when f(x) = c xor g_1(x_1) xor ... xor g_n(x_n) for 1-bit inputs,
    i.e. when the n-party parity box of f is local."""
    f0 = bits[0]
    for row in range(2 ** n):
        acc = f0
        for i in range(n):
            if (row >> i) & 1:
                acc ^= bits[1 << i] ^ f0
        if acc != bits[row]:
            return False
    return True


def parity_table(n: int, input_sizes, f_of_x):
    """{(x, a): p} of the parity box whose output parity is f_of_x(x)."""
    table = {}
    for x in x_tuples(input_sizes):
        fx = f_of_x(x)
        for a in itertools.product((0, 1), repeat=n):
            p = parity_prob(n, fx, a)
            if p:
                table[(x, a)] = p
    return table


def pr_table():
    return parity_table(2, (2, 2), lambda x: x[0] & x[1])


def uniform_table(n: int, input_sizes):
    w = Fraction(1, 2 ** n)
    return {(x, a): w for x in x_tuples(input_sizes) for a in itertools.product((0, 1), repeat=n)}


def deterministic_table(input_sizes, responses):
    return {
        (x, tuple(responses[i][x[i]] for i in range(len(x)))): Fraction(1)
        for x in x_tuples(input_sizes)
    }


def mix_tables(weighted):
    out = {}
    for w, table in weighted:
        for key, p in table.items():
            out[key] = out.get(key, Fraction(0)) + w * p
    return {k: v for k, v in out.items() if v}


def box_table(box):
    """Dense-over-support table of a Box, read through Box.prob only."""
    return {
        (x, a): box.prob(x, a)
        for x in itertools.product(*(range(s) for s in box.input_sizes))
        for a in itertools.product(*(range(s) for s in box.output_sizes))
        if box.prob(x, a) != 0
    }


def json_table(payload):
    """{(x, a): p} from the CLI's box JSON."""
    return {
        (tuple(e["x"]), tuple(e["a"])): Fraction(e["p"]) for e in payload["table"] if Fraction(e["p"])
    }


def table_json(table):
    return [
        {"x": list(x), "a": list(a), "p": f"{p.numerator}/{p.denominator}"}
        for (x, a), p in sorted(table.items())
    ]


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def eval_nand(gates, output, constants, values) -> int:
    """Evaluate a NAND netlist given as plain data; `values` maps each
    input name to its bit."""
    values = dict(values)
    values.update(constants)
    for i, (left, right) in enumerate(gates):
        values[f"g{i}"] = 1 - (values[left] & values[right])
    return values[output]


def circuit_table(parts, names):
    """Truth table of a circuit (input names, gates, output, constants) in
    which variable i is the input called names[i]."""
    _, gates, output, constants = parts
    return [
        eval_nand(gates, output, constants, {name: (row >> i) & 1 for i, name in enumerate(names)})
        for row in range(2 ** len(names))
    ]


def circuit_parts(circuit):
    """(input names, gate pairs, output, constants) of a NandCircuit object."""
    return (
        [b.name for b in circuit.inputs],
        list(circuit.gates),
        circuit.output,
        {c.name: c.value for c in circuit.constants},
    )


def json_circuit_parts(payload):
    return (
        [d["name"] for d in payload["inputs"]],
        [(g["l"], g["r"]) for g in payload["gates"]],
        payload["output"],
        {k: int(v) for k, v in payload.get("constants", {}).items()},
    )


# ---------------------------------------------------------------------------
# decision-table protocols over two-party box templates
# ---------------------------------------------------------------------------


def _side_weights(template, slot, y, other):
    """Distribution of one side's output: its marginal when it is first to
    use the box, else the joint conditioned on the other side's record."""
    weights = {}
    if other is None:
        for a_pair in itertools.product(*(range(s) for s in template.output_sizes)):
            x_pair = [0, 0]
            x_pair[slot] = y
            p = template.prob(tuple(x_pair), a_pair)
            if p:
                weights[a_pair[slot]] = weights.get(a_pair[slot], Fraction(0)) + p
        return weights
    y_other, a_other = other
    x_pair = [0, 0]
    x_pair[slot] = y
    x_pair[1 - slot] = y_other
    joint = {}
    for alpha in range(template.output_sizes[slot]):
        a_pair = [0, 0]
        a_pair[slot] = alpha
        a_pair[1 - slot] = a_other
        p = template.prob(tuple(x_pair), tuple(a_pair))
        if p:
            joint[alpha] = p
    total = sum(joint.values(), Fraction(0))
    return {alpha: p / total for alpha, p in joint.items()}


def table_protocol_distribution(protocol, x, stop):
    """Exact outcome distribution of a protocol whose strategies are plain
    decision tables (`moves`, `outputs`), parties acting in turn."""
    bank = protocol.bank.instances
    dist = {}

    def run_party(i, lam, records, weight, outputs):
        if i == protocol.n_parties:
            key = tuple(outputs)
            dist[key] = dist.get(key, Fraction(0)) + weight
            return
        strategy = protocol.strategies[i]

        def step(history, records, weight):
            key = (lam, x[i], history)
            move = strategy.moves[key]
            if move == stop or move[0] == "stop":
                run_party(i + 1, lam, records, weight, outputs + [strategy.outputs[key]])
                return
            _, k, y = move
            inst = bank[k]
            record = records[k]
            slot = 0 if (inst.owners[0] == i and record[0] is None) else 1
            for alpha, p in _side_weights(inst.template, slot, y, record[1 - slot]).items():
                new_record = list(record)
                new_record[slot] = (y, alpha)
                new_records = records[:k] + (tuple(new_record),) + records[k + 1:]
                step(history + (alpha,), new_records, weight * p)

        step((), records, weight)

    empty = tuple((None, None) for _ in bank)
    for lam, w in zip(protocol.randomness.support, protocol.randomness.weights):
        if w:
            run_party(0, lam, empty, Fraction(w), [])
    return dist


def within_five_sigma(counts, reference, n_runs):
    """None when sampled counts match the exact reference (support, total,
    five binomial standard errors per outcome), else the first reason."""
    if sum(counts.values()) != n_runs:
        return f"counts sum to {sum(counts.values())}, not {n_runs}"
    forbidden = [a for a in counts if not reference.get(a)]
    if forbidden:
        return f"forbidden outcome sampled: {forbidden[0]}"
    for a, p in reference.items():
        p_f = float(p)
        sigma = math.sqrt(p_f * (1 - p_f) * n_runs)
        delta = abs(counts.get(a, 0) - p_f * n_runs)
        if delta > 5 * sigma and sigma > 0:
            return f"outcome {a}: {counts.get(a, 0)} of {n_runs}, expected p={p}"
    return None


# ---------------------------------------------------------------------------
# locality certificates and vertex classes
# ---------------------------------------------------------------------------


def deterministic_strategies(input_sizes, output_sizes):
    per_party = [
        list(itertools.product(range(o), repeat=i)) for i, o in zip(input_sizes, output_sizes)
    ]
    return list(itertools.product(*per_party))


def marginal_prob(table, input_sizes, output_sizes, subset, x_s, a_s) -> Fraction:
    """P(a_S = a_s | x_S = x_s), the other parties' inputs pinned to 0."""
    n = len(input_sizes)
    total = Fraction(0)
    x = [0] * n
    for p, v in zip(subset, x_s):
        x[p] = v
    x = tuple(x)
    for a in itertools.product(*(range(s) for s in output_sizes)):
        if all(a[p] == v for p, v in zip(subset, a_s)):
            total += table.get((x, a), 0)
    return total


def check_local_weights(table, input_sizes, output_sizes, weights):
    """Reason a claimed local decomposition fails, or None."""
    if any(w < 0 for w in weights.values()):
        return "negative local weight"
    if sum(weights.values(), Fraction(0)) != 1:
        return "local weights do not sum to 1"
    rebuilt = mix_tables(
        (w, deterministic_table(input_sizes, responses)) for responses, w in weights.items()
    )
    if rebuilt != {k: v for k, v in table.items() if v}:
        return "local weights do not re-expand to the box"
    return None


def check_linear_witness(table, input_sizes, output_sizes, witness):
    """Reason a claimed Bell-type witness fails to separate, or None."""
    coeffs = witness["coefficients"]
    coords = witness["coordinates"]
    const = witness["constant"]

    def value(tab):
        return sum(
            (c * marginal_prob(tab, input_sizes, output_sizes, *coord) for c, coord in zip(coeffs, coords)),
            Fraction(0),
        ) + const

    if not value(table) > 0:
        return "witness does not exceed 0 on the box"
    for responses in deterministic_strategies(input_sizes, output_sizes):
        if value(deterministic_table(input_sizes, responses)) > 0:
            return f"witness exceeds 0 on deterministic strategy {responses}"
    return None


def vertex_class(table, input_sizes, output_sizes) -> str:
    """Class of a bipartite two-output vertex from its entries alone:
    deterministic (all entries 0 or 1), reducible (some party never gives
    some output on some input), otherwise genuine nonlocal."""
    if all(p == 1 for p in table.values()):
        return "local-deterministic"
    for party in range(2):
        for x_p in range(input_sizes[party]):
            for a_p in range(output_sizes[party]):
                if marginal_prob(table, input_sizes, output_sizes, (party,), (x_p,), (a_p,)) == 0:
                    return "reducible"
    if all(p == HALF for p in table.values()):
        return "pr-equivalent" if tuple(input_sizes) == (2, 2) else "full-correlation"
    return "other"


# ---------------------------------------------------------------------------
# ring-cluster constraints
# ---------------------------------------------------------------------------


def ring_cluster_constraints(inverted=False):
    """The five-party ring-cluster constraints as {(terms, target)}, with
    setting 0 measuring Z and setting 1 measuring X: the stabilizers
    Z_i X_{i+1} Z_{i+2} give parity 0, and their product, -X^5, gives
    parity 1 for all five parties at setting 1 (0 when inverted)."""
    constraints = {(tuple(sorted([(i, 0), ((i + 1) % 5, 1), ((i + 2) % 5, 0)])), 0) for i in range(5)}
    constraints.add((tuple((i, 1) for i in range(5)), 0 if inverted else 1))
    return constraints


def json_constraints(payload):
    return {(tuple(sorted(tuple(t) for t in c["terms"])), c["target"]) for c in payload["constraints"]}


def check_one_box_counterexample(cex, constraints):
    """Reason a one-PR-box protocol fails some constraint, or None.

    The PR box between the two owners returns (a, b) with a uniform and
    a xor b = y_p y_q.  An owner at setting s uses the box with input y
    and outputs h[a], or outputs its constant h[0] without it; every other
    party outputs a fixed bit per setting.  A constraint holds when the
    parity of its parties' outputs equals the target on every branch."""
    p, q = cex["assignment"]
    owners = {int(k): v for k, v in cex["owner_strategies"].items()}
    fixed = {int(k): v for k, v in cex["outputs"].items()}
    if set(owners) != {p, q} or set(owners) | set(fixed) != set(range(5)):
        return f"counterexample does not cover the five parties: {sorted(owners)} + {sorted(fixed)}"
    for terms, target in sorted(constraints):
        settings = dict(terms)
        use = {o: settings.get(o) is not None and owners[o][settings[o]][0] for o in (p, q)}
        y = {o: owners[o][settings[o]][1] if use[o] else 0 for o in (p, q)}
        for a in (0, 1):
            branch = {p: a, q: a ^ (y[p] & y[q])}
            total = 0
            for party, s in terms:
                if party in owners:
                    total ^= owners[party][s][2][branch[party] if use[party] else 0]
                else:
                    total ^= fixed[party][s]
            if total != target:
                return f"constraint {terms} -> {target} fails on branch a={a}"
    return None
