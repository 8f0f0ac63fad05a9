"""Bipartite no-signaling polytopes: exact H-representation, vertex
enumeration by double description, vertex classification, and convex
decomposition.

The polytope lives in the affine space cut out by normalization and the
no-signaling equalities; its points are parametrized by marginal
coordinates (single-party marginals with one output dropped, plus joint
probabilities with one output dropped per party), in which the only
remaining constraints are the nonnegativity of every table cell.  Vertex
enumeration runs the classical double description method on the
homogenization of that parametrized polytope, with exact integer ray
arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .boxes import (
    Box,
    Relabeling,
    all_relabelings,
    check_no_signaling,
    make_box,
    pr_box,
    relabel,
)
from .errors import DimensionMismatch, Infeasible, NotAVertex, TooLarge, VerificationFailed
from .exactlp import exact_rank, solve_equality_feasibility, solve_linear_system

DEFAULT_DIMENSION_CAP = 15  # covers 3 inputs x 2 outputs per party


@dataclass(frozen=True, eq=False)
class HRepresentation:
    """Equality/inequality description of a bipartite no-signaling polytope.

    `cells` indexes the ambient variables P(ab|xy); `eq_rows` contains the
    normalization and no-signaling equalities over those variables; the
    inequalities are nonnegativity of every cell.  `coords` and
    `cell_exprs` give the exact affine parametrization used internally:
    cell value = const + sum(coef * t[coord]).
    """

    input_sizes: tuple[int, int]
    output_sizes: tuple[int, int]
    cells: tuple
    eq_rows: tuple
    eq_rhs: tuple
    dimension: int
    coords: tuple
    cell_exprs: tuple  # per cell: (const, ((coord_index, coef), ...))

    def box_from_point(self, t: Sequence[Fraction]) -> Box:
        table = {}
        for cell, (const, terms) in zip(self.cells, self.cell_exprs):
            x, y, a, b = cell
            value = Fraction(const)
            for idx, coef in terms:
                value += coef * t[idx]
            if value != 0:
                table[((x, y), (a, b))] = value
        return make_box(2, self.input_sizes, self.output_sizes, table, sparse=True)

    def point_from_box(self, box: Box) -> list[Fraction]:
        mA, mB = self.input_sizes
        dA, dB = self.output_sizes
        t = []
        for kind, *rest in self.coords:
            if kind == "A":
                x, a = rest
                t.append(sum((box.prob((x, 0), (a, b)) for b in range(dB)), Fraction(0)))
            elif kind == "B":
                y, b = rest
                t.append(sum((box.prob((0, y), (a, b)) for a in range(dA)), Fraction(0)))
            else:
                x, y, a, b = rest
                t.append(box.prob((x, y), (a, b)))
        return t


def build_h_rep(
    input_sizes: Sequence[int],
    output_sizes: Sequence[int],
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> HRepresentation:
    """Exact constraint system for the bipartite no-signaling polytope.

    The dimension is computed by exact rank elimination on the equality
    system and checked against the closed form
    (mA(dA-1)+1)(mB(dB-1)+1) - 1.
    """
    if len(input_sizes) != 2 or len(output_sizes) != 2:
        raise DimensionMismatch("vertex enumeration supports bipartite boxes only")
    mA, mB = (int(v) for v in input_sizes)
    dA, dB = (int(v) for v in output_sizes)
    if min(mA, mB) < 1 or min(dA, dB) < 1:
        raise DimensionMismatch("alphabet sizes must be at least 1")

    cells = tuple(
        (x, y, a, b)
        for x in range(mA)
        for y in range(mB)
        for a in range(dA)
        for b in range(dB)
    )
    cell_index = {c: i for i, c in enumerate(cells)}

    eq_rows = []
    eq_rhs = []
    for x in range(mA):
        for y in range(mB):
            row = [0] * len(cells)
            for a in range(dA):
                for b in range(dB):
                    row[cell_index[(x, y, a, b)]] = 1
            eq_rows.append(tuple(row))
            eq_rhs.append(1)
    for x in range(mA):  # party A's marginal independent of y
        for a in range(dA):
            for y in range(mB - 1):
                row = [0] * len(cells)
                for b in range(dB):
                    row[cell_index[(x, y, a, b)]] += 1
                    row[cell_index[(x, y + 1, a, b)]] -= 1
                eq_rows.append(tuple(row))
                eq_rhs.append(0)
    for y in range(mB):  # party B's marginal independent of x
        for b in range(dB):
            for x in range(mA - 1):
                row = [0] * len(cells)
                for a in range(dA):
                    row[cell_index[(x, y, a, b)]] += 1
                    row[cell_index[(x + 1, y, a, b)]] -= 1
                eq_rows.append(tuple(row))
                eq_rhs.append(0)

    dimension = len(cells) - exact_rank(eq_rows)
    closed_form = (mA * (dA - 1) + 1) * (mB * (dB - 1) + 1) - 1
    if dimension != closed_form:
        raise VerificationFailed(f"dimension {dimension} differs from the closed form {closed_form}")
    if dimension > dimension_cap:
        raise TooLarge(dimension, dimension_cap)

    coords = []
    coords.extend(("A", x, a) for x in range(mA) for a in range(dA - 1))
    coords.extend(("B", y, b) for y in range(mB) for b in range(dB - 1))
    coords.extend(
        ("AB", x, y, a, b)
        for x in range(mA)
        for y in range(mB)
        for a in range(dA - 1)
        for b in range(dB - 1)
    )
    coord_index = {c: i for i, c in enumerate(coords)}
    if len(coords) != dimension:
        raise VerificationFailed(f"{len(coords)} coordinates for dimension {dimension}")

    def expr(cell):
        x, y, a, b = cell
        terms: dict[int, int] = {}

        def add(coord, coef):
            idx = coord_index[coord]
            terms[idx] = terms.get(idx, 0) + coef

        const = 0
        if a < dA - 1 and b < dB - 1:
            add(("AB", x, y, a, b), 1)
        elif a < dA - 1:
            add(("A", x, a), 1)
            for b2 in range(dB - 1):
                add(("AB", x, y, a, b2), -1)
        elif b < dB - 1:
            add(("B", y, b), 1)
            for a2 in range(dA - 1):
                add(("AB", x, y, a2, b), -1)
        else:
            const = 1
            for a2 in range(dA - 1):
                add(("A", x, a2), -1)
            for b2 in range(dB - 1):
                add(("B", y, b2), -1)
            for a2 in range(dA - 1):
                for b2 in range(dB - 1):
                    add(("AB", x, y, a2, b2), 1)
        return (const, tuple(sorted((i, c) for i, c in terms.items() if c)))

    cell_exprs = tuple(expr(c) for c in cells)
    return HRepresentation(
        input_sizes=(mA, mB),
        output_sizes=(dA, dB),
        cells=cells,
        eq_rows=tuple(eq_rows),
        eq_rhs=tuple(eq_rhs),
        dimension=dimension,
        coords=tuple(coords),
        cell_exprs=cell_exprs,
    )


def _inequality_rows(h_rep: HRepresentation) -> list[tuple[int, ...]]:
    """Homogenized inequality rows: row . (s, t) >= 0 for every cell,
    plus s >= 0."""
    dim = h_rep.dimension
    rows = []
    for const, terms in h_rep.cell_exprs:
        row = [0] * (dim + 1)
        row[0] = const
        for idx, coef in terms:
            row[idx + 1] = coef
        rows.append(tuple(row))
    s_row = [0] * (dim + 1)
    s_row[0] = 1
    rows.append(tuple(s_row))
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
    tight_rows = []
    for cell, (const, terms) in zip(h_rep.cells, h_rep.cell_exprs):
        x, y, a, b = cell
        if box.prob((x, y), (a, b)) == 0:
            row = [0] * h_rep.dimension
            for idx, coef in terms:
                row[idx] = coef
            tight_rows.append(row)
    if not tight_rows:
        return h_rep.dimension == 0
    return exact_rank(tight_rows) == h_rep.dimension


@dataclass(frozen=True)
class VertexReport:
    box: Box
    classification: str  # local-deterministic | pr-equivalent | full-correlation | reducible | other
    f_table: Optional[tuple] = None  # ((x, y, f(x,y)), ...) for parity forms
    relabeling: Optional[Relabeling] = None
    reduction: Optional[dict] = None


def _deterministic_responses_of(box: Box):
    """Extract per-party response functions if the box is deterministic."""
    if any(p not in (0, 1) for p in box.table.values()):
        return None
    mA, mB = box.input_sizes
    resp_a = {}
    resp_b = {}
    for (x, y), (a, b) in [k for k, v in box.table.items() if v == 1]:
        if resp_a.setdefault(x, a) != a or resp_b.setdefault(y, b) != b:
            return None
    if len(resp_a) != mA or len(resp_b) != mB:
        return None
    return (
        tuple(resp_a[x] for x in range(mA)),
        tuple(resp_b[y] for y in range(mB)),
    )


def _is_genuine(box: Box) -> bool:
    """Every output of every party occurs with positive probability for
    every input (marginals at one completion suffice: the box is nonsignaling)."""
    for party in range(2):
        for x in range(box.input_sizes[party]):
            for a in range(box.output_sizes[party]):
                if _single_marginal(box, party, x, a) == 0:
                    return False
    return True


def _single_marginal(box: Box, party: int, x: int, a: int) -> Fraction:
    xx = [0, 0]
    xx[party] = x
    total = Fraction(0)
    for a_pair in box.outputs():
        if a_pair[party] == a:
            total += box.prob(tuple(xx), a_pair)
    return total


def parity_form_of(box: Box):
    """If the box is a binary-output parity-correlated table - uniform
    weight 1/2^(n-1) on exactly the output tuples of one total parity per
    input - return {x: parity}; otherwise None.

    Works for any party count, so explicitly supplied multipartite boxes
    can be tested for the form even though vertex enumeration is
    bipartite-only.
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
    """Classify a verified vertex of the bipartite no-signaling polytope.

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

    responses = _deterministic_responses_of(box)
    if responses is not None:
        return VertexReport(box=box, classification="local-deterministic")

    if not _is_genuine(box):
        reduction = None
        for party in range(2):
            for x in range(box.input_sizes[party]):
                for a in range(box.output_sizes[party]):
                    if _single_marginal(box, party, x, a) == 0:
                        reduction = {
                            "party": party,
                            "input": x,
                            "impossible_output": a,
                            "note": "simulate the box obtained by removing this input",
                        }
                        break
                if reduction:
                    break
            if reduction:
                break
        return VertexReport(box=box, classification="reducible", reduction=reduction)

    g = parity_form_of(box)
    if g is not None:
        f_table = tuple(sorted((x, y, v) for (x, y), v in g.items()))
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
    cells = [
        ((x, y), (a, b))
        for x in range(box.input_sizes[0])
        for y in range(box.input_sizes[1])
        for a in range(box.output_sizes[0])
        for b in range(box.output_sizes[1])
    ]
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
