"""Exact locality decisions: is a box a mixture of deterministic strategies?

A box is local when its table is a convex combination of global
deterministic strategies (each party answering by a fixed function of its
own input).  The decision is an exact rational feasibility problem.  To
keep it tractable for several parties, the problem is posed in marginal
("one output dropped") coordinates, which parametrize nonsignaling boxes
bijectively; signaling boxes are nonlocal outright, with the signaling
witness as certificate.

Verdicts are self-verifying: local verdicts re-expand the returned
weights and compare tables exactly; nonlocal verdicts carry a separating
linear functional checked exactly against every deterministic strategy.
The witness kind is "signaling" or "linear".  Every nonsignaling box goes
through the one LP, whose size is the strategy count; a functional known
in advance, such as the cluster box's six-event sum, is checked where it
is known (`cluster`), not passed in as a hint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .boxes import (
    Box,
    check_no_signaling,
    deterministic_box,
    make_box,
    marginal_coordinates,
    marginal_point,
)
from .errors import TooLarge, VerificationFailed
from .exactlp import solve_equality_feasibility

DEFAULT_STRATEGY_CAP = 10 ** 6


def strategy_count(box: Box) -> int:
    total = 1
    for i in range(box.n_parties):
        total *= box.output_sizes[i] ** box.input_sizes[i]
    return total


def deterministic_responses(input_sizes, output_sizes):
    """All global deterministic strategies, as per-party response tuples."""
    return itertools.product(
        *(itertools.product(range(d), repeat=m) for m, d in zip(input_sizes, output_sizes))
    )


def _strategy_cg_vector(responses, coords) -> list[int]:
    vec = []
    for subset, x_s, a_s in coords:
        ok = all(responses[p][x] == a for p, x, a in zip(subset, x_s, a_s))
        vec.append(1 if ok else 0)
    return vec


@dataclass(frozen=True)
class LocalityVerdict:
    local: bool
    weights: Optional[dict] = None  # response-tuples -> Fraction
    witness: Optional[dict] = None

    def __bool__(self):
        return self.local


def expand_weights(box_shape: Box, weights: dict) -> Box:
    """Re-expand strategy weights into a box of the same shape."""
    table: dict = {}
    for responses, w in weights.items():
        if w == 0:
            continue
        for x in box_shape.inputs():
            a = tuple(responses[i][x[i]] for i in range(box_shape.n_parties))
            table[(x, a)] = table.get((x, a), Fraction(0)) + w
    return make_box(
        box_shape.n_parties, box_shape.input_sizes, box_shape.output_sizes, table, sparse=True
    )


def is_local(box: Box, cap: int = DEFAULT_STRATEGY_CAP) -> LocalityVerdict:
    """Decide locality with an exact certificate either way.

    Local: returns nonnegative rational weights over deterministic
    strategies whose mixture reproduces the table exactly (re-verified).
    Nonlocal: returns either the no-signaling violation or a linear witness
    whose value on the box exceeds its exact maximum over all deterministic
    strategies (re-verified).
    """
    count = strategy_count(box)
    if count > cap:
        raise TooLarge(count, cap)

    ns = check_no_signaling(box)
    if not ns:
        return LocalityVerdict(
            local=False,
            witness={
                "kind": "signaling",
                "party": ns.party,
                "inputs": ns.inputs_pair,
                "context": ns.context,
            },
        )

    coords = marginal_coordinates(box.input_sizes, box.output_sizes)
    strategies = list(deterministic_responses(box.input_sizes, box.output_sizes))
    columns = [_strategy_cg_vector(s, coords) for s in strategies]
    target = marginal_point(box, coords)

    # rows: one per coordinate, plus total weight = 1
    n_rows = len(coords) + 1
    A = []
    b = []
    for r in range(len(coords)):
        A.append([columns[s][r] for s in range(len(strategies))])
        b.append(target[r])
    A.append([1] * len(strategies))
    b.append(1)

    result = solve_equality_feasibility(A, b)
    if result.feasible:
        weights = {
            strategies[s]: w for s, w in enumerate(result.solution) if w != 0
        }
        rebuilt = expand_weights(box, weights)
        if rebuilt != box:
            raise VerificationFailed("local decomposition failed exact re-expansion")
        return LocalityVerdict(local=True, weights=weights)

    y = result.farkas
    # witness functional over marginal coordinates (plus constant term y[-1]);
    # a strategy's value sums y over the coordinates where its 0/1 column is 1
    box_value = sum(y[r] * target[r] for r in range(len(coords))) + y[-1]
    best = None
    for column in columns:
        val = sum((y[r] for r, bit in enumerate(column) if bit), y[-1])
        if best is None or val > best:
            best = val
    if not box_value > 0 >= best:
        raise VerificationFailed("separating witness failed exact verification")
    return LocalityVerdict(
        local=False,
        witness={
            "kind": "linear",
            "coordinates": coords,
            "coefficients": y[:-1],
            "constant": y[-1],
            "box_value": box_value,
            "local_max": best,
        },
    )


def all_deterministic_boxes(input_sizes, output_sizes):
    """Every deterministic box of the given shape."""
    for responses in deterministic_responses(input_sizes, output_sizes):
        yield deterministic_box(input_sizes, output_sizes, responses)
