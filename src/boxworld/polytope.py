"""No-signaling polytopes of any party count: exact H-representation,
vertex enumeration by double description, vertex classification, and
convex decomposition.

The polytope lives in the affine space cut out by normalization and the
no-signaling equalities; its points are parametrized by marginal
coordinates (the joint probabilities of every nonempty party subset with
each party's last output dropped, `boxes.marginal_coordinates`), in
which the only remaining constraints are the nonnegativity of every
table cell.  Vertex enumeration runs the classical double description
method on the homogenization of that parametrized polytope, with exact
integer ray arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Optional, Sequence

from .boxes import (
    Box,
    Relabeling,
    all_relabelings,
    cell_expressions,
    check_no_signaling,
    make_box,
    marginal_coordinates,
    marginal_point,
    pr_box,
    relabel,
)
from .errors import DimensionMismatch, Infeasible, NotAVertex, TooLarge, VerificationFailed
from .exactlp import exact_rank, solve_equality_feasibility, solve_linear_system

DEFAULT_DIMENSION_CAP = 15  # covers 3 inputs x 2 outputs per party


@dataclass(frozen=True, eq=False)
class HRepresentation:
    """Parametrized description of an n-party no-signaling polytope.

    `coords` are the marginal coordinates of `boxes.marginal_coordinates`,
    in which normalization and no-signaling hold identically; the only
    constraints left are the nonnegativity of the table cells.  `cells`
    lists the cells (x, a) and `cell_exprs` their exact affine forms:
    cell value = const + sum(coef * t[coord]).
    """

    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    cells: tuple
    dimension: int
    coords: tuple
    cell_exprs: tuple  # per cell: (const, ((coord_index, coef), ...))

    def box_from_point(self, t: Sequence[Fraction]) -> Box:
        table = {}
        for cell, (const, terms) in zip(self.cells, self.cell_exprs):
            value = Fraction(const)
            for idx, coef in terms:
                value += coef * t[idx]
            if value != 0:
                table[cell] = value
        return make_box(len(self.input_sizes), self.input_sizes, self.output_sizes, table, sparse=True)

    def point_from_box(self, box: Box) -> list[Fraction]:
        return marginal_point(box, self.coords)


def build_h_rep(
    input_sizes: Sequence[int],
    output_sizes: Sequence[int],
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> HRepresentation:
    """Exact constraint system for the no-signaling polytope of a shape.

    The dimension is the closed form prod(m_i(d_i-1)+1) - 1, checked
    against the exact rank of the cell expressions' linear parts.
    """
    if len(input_sizes) != len(output_sizes):
        raise DimensionMismatch(f"{len(input_sizes)} input sizes but {len(output_sizes)} output sizes")
    input_sizes = tuple(int(v) for v in input_sizes)
    output_sizes = tuple(int(v) for v in output_sizes)
    if not input_sizes or min(input_sizes + output_sizes) < 1:
        raise DimensionMismatch("need at least one party and alphabet sizes of at least 1")
    dimension = prod(m * (d - 1) + 1 for m, d in zip(input_sizes, output_sizes)) - 1
    if dimension > dimension_cap:
        raise TooLarge(dimension, dimension_cap)

    coords = marginal_coordinates(input_sizes, output_sizes)
    cells, cell_exprs = zip(*cell_expressions(input_sizes, output_sizes, coords))
    linear = [_linear_row(terms, len(coords)) for _, terms in cell_exprs]
    if len(coords) != dimension or exact_rank(linear) != dimension:
        raise VerificationFailed(f"cell expressions do not span the {dimension} marginal coordinates")
    return HRepresentation(
        input_sizes=input_sizes,
        output_sizes=output_sizes,
        cells=cells,
        dimension=dimension,
        coords=tuple(coords),
        cell_exprs=cell_exprs,
    )


def _linear_row(terms, dim: int) -> list[int]:
    """The dense coefficient row of a cell expression's linear part."""
    row = [0] * dim
    for idx, coef in terms:
        row[idx] = coef
    return row


def _inequality_rows(h_rep: HRepresentation) -> list[tuple[int, ...]]:
    """Homogenized inequality rows: row . (s, t) >= 0 for every cell,
    plus s >= 0."""
    dim = h_rep.dimension
    rows = [tuple([const] + _linear_row(terms, dim)) for const, terms in h_rep.cell_exprs]
    rows.append((1,) + (0,) * dim)
    return rows


def _gcd_reduce(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        vec = [v // g for v in vec]
    return tuple(vec)


def _initial_basis(rows: list[tuple[int, ...]], dim: int):
    """Pick dim independent rows; return (indices, inverse columns as rays)."""
    chosen = []
    mat: list[list[Fraction]] = []
    for idx, row in enumerate(rows):
        candidate = mat + [[Fraction(v) for v in row]]
        if exact_rank(candidate) == len(candidate):
            mat = candidate
            chosen.append(idx)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise VerificationFailed("inequality system is rank-deficient")
    # invert the basis matrix exactly: solve B X = I column by column
    rays = []
    B = [rows[i] for i in chosen]
    for col in range(dim):
        e = [Fraction(1) if r == col else Fraction(0) for r in range(dim)]
        sol = solve_linear_system(B, e)
        if sol is None:
            raise VerificationFailed("chosen basis matrix is singular")
        den = 1
        for v in sol:
            den = den * v.denominator // gcd(den, v.denominator)
        rays.append(_gcd_reduce([int(v * den) for v in sol]))
    return chosen, rays


def enumerate_vertices(h_rep: HRepresentation) -> list[Box]:
    """All vertices of the polytope, by exact double description.

    Every returned box is verified: exactly normalized, nonsignaling, and
    extremal (its tight nonnegativity constraints have full rank).
    """
    rows = _inequality_rows(h_rep)
    dim = h_rep.dimension + 1  # homogenized
    order, initial_rays = _initial_basis(rows, dim)
    processed = list(order)
    processed_set = set(order)

    def dot(row, ray):
        return sum(r * v for r, v in zip(row, ray))

    rays = []
    for ray in initial_rays:
        mask = 0
        for pos, row_idx in enumerate(processed):
            if dot(rows[row_idx], ray) == 0:
                mask |= 1 << row_idx
        rays.append((ray, mask))

    for row_idx, row in enumerate(rows):
        if row_idx in processed_set:
            continue
        vals = [dot(row, ray) for ray, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            new_rays = [
                (ray, mask | (1 << row_idx) if vals[i] == 0 else mask)
                for i, (ray, mask) in enumerate(rays)
            ]
            rays = new_rays
            processed.append(row_idx)
            processed_set.add(row_idx)
            continue

        kept = []
        for i in pos:
            kept.append(rays[i])
        for i in zero:
            ray, mask = rays[i]
            kept.append((ray, mask | (1 << row_idx)))

        created = []
        min_common = dim - 2
        for i in pos:
            ray_p, mask_p = rays[i]
            vp = vals[i]
            for j in neg:
                ray_n, mask_n = rays[j]
                common = mask_p & mask_n
                if common.bit_count() < min_common:
                    continue
                adjacent = True
                for k, (_, mask_k) in enumerate(rays):
                    if k == i or k == j:
                        continue
                    if common & ~mask_k == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vn = vals[j]
                new = [vp * ray_n[c] - vn * ray_p[c] for c in range(dim)]
                new_t = _gcd_reduce(new)
                new_mask = 0
                for r_idx in processed:
                    if dot(rows[r_idx], new_t) == 0:
                        new_mask |= 1 << r_idx
                new_mask |= 1 << row_idx
                created.append((new_t, new_mask))

        seen = {ray for ray, _ in kept}
        for ray, mask in created:
            if ray not in seen:
                seen.add(ray)
                kept.append((ray, mask))
        rays = kept
        processed.append(row_idx)
        processed_set.add(row_idx)

    boxes = []
    seen_points = set()
    for ray, _ in rays:
        s = ray[0]
        if not s > 0:
            raise VerificationFailed("unbounded direction found in a bounded polytope")
        t = [Fraction(v, s) for v in ray[1:]]
        key = tuple(t)
        if key in seen_points:
            continue
        seen_points.add(key)
        box = h_rep.box_from_point(t)
        verdict = check_no_signaling(box)
        if not verdict.ok:
            raise VerificationFailed("enumerated vertex signals")
        if not is_vertex(box, h_rep):
            raise VerificationFailed("enumerated point is not extremal")
        boxes.append(box)
    return boxes


def is_vertex(box: Box, h_rep: Optional[HRepresentation] = None) -> bool:
    """Extremality test: the cells at 0 must pin the point down completely."""
    if h_rep is None:
        h_rep = build_h_rep(box.input_sizes, box.output_sizes)
    tight_rows = [
        _linear_row(terms, h_rep.dimension)
        for cell, (_, terms) in zip(h_rep.cells, h_rep.cell_exprs)
        if box.prob(*cell) == 0
    ]
    if not tight_rows:
        return h_rep.dimension == 0
    return exact_rank(tight_rows) == h_rep.dimension


@dataclass(frozen=True)
class VertexReport:
    box: Box
    classification: str  # local-deterministic | pr-equivalent | full-correlation | reducible | other
    f_table: Optional[tuple] = None  # ((*x, f(x)), ...) for parity forms
    relabeling: Optional[Relabeling] = None
    reduction: Optional[dict] = None


def _is_deterministic(box: Box) -> bool:
    """Whether every party answers by a fixed function of its own input."""
    if any(p not in (0, 1) for p in box.table.values()):
        return False
    responses = [{} for _ in range(box.n_parties)]
    for (x, a), v in box.table.items():
        if v == 1:
            for resp, x_p, a_p in zip(responses, x, a):
                if resp.setdefault(x_p, a_p) != a_p:
                    return False
    return all(len(resp) == m for resp, m in zip(responses, box.input_sizes))


def _impossible_output(box: Box):
    """The first (party, input, output) that never occurs, or None.

    Each party's marginal is read with the other parties at input 0; one
    completion suffices because the box is nonsignaling."""
    seen = set()
    for (x, a), v in box.table.items():
        if v != 0:
            for p in range(box.n_parties):
                if not any(x[:p] + x[p + 1:]):
                    seen.add((p, x[p], a[p]))
    return next(
        (
            (p, x_p, a_p)
            for p in range(box.n_parties)
            for x_p in range(box.input_sizes[p])
            for a_p in range(box.output_sizes[p])
            if (p, x_p, a_p) not in seen
        ),
        None,
    )


def parity_form_of(box: Box):
    """If the box is a binary-output parity-correlated table - uniform
    weight 1/2^(n-1) on exactly the output tuples of one total parity per
    input - return {x: parity}; otherwise None.

    Works for any party count.
    """
    n = box.n_parties
    if box.output_sizes != (2,) * n:
        return None
    weight = Fraction(1, 2 ** (n - 1))
    g = {}
    for x in box.inputs():
        support = {a for a in box.outputs() if box.prob(x, a) != 0}
        if len(support) != 2 ** (n - 1):
            return None
        if {box.prob(x, a) for a in support} != {weight}:
            return None
        parities = {sum(a) % 2 for a in support}
        if len(parities) != 1:
            return None
        g[x] = parities.pop()
    return g


def classify_vertex(box: Box, h_rep: Optional[HRepresentation] = None, check: bool = True) -> VertexReport:
    """Classify a verified vertex of a no-signaling polytope.

    Order of tests: local-deterministic; genuine-two-output; for genuine
    nonlocal vertices, exact parity form (with a relabeling witness onto
    the canonical PR box in the 2-input binary case); non-genuine vertices
    get the input-removal reduction.
    """
    if h_rep is None:
        h_rep = build_h_rep(box.input_sizes, box.output_sizes)
    if check:
        verdict = check_no_signaling(box)
        if not verdict.ok or not is_vertex(box, h_rep):
            raise NotAVertex("box is not an extremal nonsignaling point")

    if _is_deterministic(box):
        return VertexReport(box=box, classification="local-deterministic")

    impossible = _impossible_output(box)
    if impossible is not None:
        party, x, a = impossible
        reduction = {
            "party": party,
            "input": x,
            "impossible_output": a,
            "note": "simulate the box obtained by removing this input",
        }
        return VertexReport(box=box, classification="reducible", reduction=reduction)

    g = parity_form_of(box)
    if g is not None:
        f_table = tuple(sorted((*x, v) for x, v in g.items()))
        if box.input_sizes == (2, 2) and box.output_sizes == (2, 2):
            target = pr_box()
            for rel in all_relabelings(box.input_sizes, box.output_sizes):
                if relabel(box, rel) == target:
                    return VertexReport(
                        box=box,
                        classification="pr-equivalent",
                        f_table=f_table,
                        relabeling=rel,
                    )
        return VertexReport(box=box, classification="full-correlation", f_table=f_table)

    return VertexReport(box=box, classification="other")


def decompose(box: Box, vertex_list: Sequence[Box]) -> list[Fraction]:
    """Exact convex weights over `vertex_list` reproducing `box`.

    Raises Infeasible (with a Farkas certificate) when the box lies outside
    the convex hull, e.g. when its table signals or is not normalized.
    """
    cells = [(x, a) for x in box.inputs() for a in box.outputs()]
    A = []
    b_vec = []
    for cell in cells:
        A.append([v.prob(*cell) for v in vertex_list])
        b_vec.append(box.prob(*cell))
    A.append([1] * len(vertex_list))
    b_vec.append(1)
    result = solve_equality_feasibility(A, b_vec)
    if not result.feasible:
        raise Infeasible("box is not a convex mixture of the given vertices", result.farkas)
    weights = result.solution
    # exact re-expansion check
    for cell_idx, cell in enumerate(cells):
        total = sum(
            (w * v.prob(*cell) for w, v in zip(weights, vertex_list)), Fraction(0)
        )
        if total != box.prob(*cell):
            raise VerificationFailed("decomposition failed re-expansion")
    return weights
