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
from math import gcd, lcm, prod
from operator import mul
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
from .errors import DimensionMismatch, Infeasible, NotAVertex, ShapeMismatch, TooLarge, VerificationFailed
from .exactlp import exact_rank, solve_equality_feasibility, solve_linear_system

DEFAULT_DIMENSION_CAP = 15  # covers 3 inputs x 2 outputs per party
# is_vertex and classify_vertex take exact ranks and never enumerate, so the
# H-representation they build may reach five binary parties (about 2 s)
RANK_CHECK_DIMENSION_CAP = 3 ** 5 - 1


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

    def _cell_values(self, s: int, t: Sequence[int]) -> list[int]:
        """Every cell's value on the integer ray (s, t): const*s + sum(coef*t[idx]),
        which is s times the cell at the point t/s."""
        return [const * s + sum(coef * t[idx] for idx, coef in terms) for const, terms in self.cell_exprs]

    def _box_on_ray(self, s: int, values: Sequence[int]) -> Box:
        """The box whose cells are values/s, through `make_box`'s range and
        normalization checks."""
        table = {cell: Fraction(v, s) for cell, v in zip(self.cells, values) if v}
        return make_box(len(self.input_sizes), self.input_sizes, self.output_sizes, table, sparse=True)

    def box_from_point(self, t: Sequence[Fraction]) -> Box:
        """The box at point t, evaluated on the integer ray (s, s*t) with s
        the common denominator of t."""
        s = lcm(*(v.denominator for v in t))
        return self._box_on_ray(s, self._cell_values(s, [v.numerator * (s // v.denominator) for v in t]))

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
    mat: list[tuple[int, ...]] = []
    for idx, row in enumerate(rows):
        candidate = mat + [row]
        if exact_rank(candidate) == len(candidate):
            mat = candidate
            chosen.append(idx)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise VerificationFailed("inequality system is rank-deficient")
    # invert the basis matrix exactly: solve B X = I column by column
    rays = []
    for col in range(dim):
        e = [Fraction(1) if r == col else Fraction(0) for r in range(dim)]
        sol = solve_linear_system(mat, e)
        if sol is None:
            raise VerificationFailed("chosen basis matrix is singular")
        den = 1
        for v in sol:
            den = den * v.denominator // gcd(den, v.denominator)
        rays.append(_gcd_reduce([int(v * den) for v in sol]))
    return chosen, rays


def enumerate_vertices(h_rep: HRepresentation) -> list[Box]:
    """All vertices of the polytope, by exact double description.

    Each ray carries the bitmask of the processed rows it is tight on,
    and no mask is ever recomputed.  Initial ray j, column j of the basis
    inverse, is tight on every basis row but row j.  Adding row r keeps
    the rays with row . ray >= 0 (those at 0 gain bit r) and joins each
    adjacent pair (p, n) with values vp > 0 > vn into vp*n - vn*p, a
    positive combination of rays that are >= 0 on every earlier row: it
    is tight on an earlier row exactly when both parents are, and on r
    by construction, so its mask is mask_p & mask_n | 1 << r (Fukuda &
    Prodon, "Double description method revisited", 1996).

    The pair is adjacent when its common tight set has at least dim - 2
    rows and no other ray is tight on all of them.  Before each row's
    pairing, every processed row gets the bitset of the rays tight on it,
    transposed from the masks in one pass; the rays tight on the whole
    common set are the AND of its rows' bitsets (all rays when it is
    empty), and the pair is adjacent exactly when that AND is the pair
    itself.

    Every vertex is verified on its integer ray (s, t): s > 0, every
    cell's integer value const*s + sum(coef*t) is >= 0, the cells at 0
    are exactly the carried mask, and their linear parts have full rank
    (extremality).  Only then is its box built, once, through
    `make_box`'s range and normalization checks, and checked to be
    nonsignaling.
    """
    rows = _inequality_rows(h_rep)
    dim = h_rep.dimension + 1  # homogenized
    order, initial_rays = _initial_basis(rows, dim)
    basis = sum(1 << row_idx for row_idx in order)
    rays = [(ray, basis & ~(1 << row_idx)) for row_idx, ray in zip(order, initial_rays)]
    width = len(rows)

    for row_idx, row in enumerate(rows):
        if basis >> row_idx & 1:
            continue
        vals = [sum(map(mul, row, ray)) for ray, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            rays = [
                (ray, mask | (1 << row_idx) if vals[i] == 0 else mask)
                for i, (ray, mask) in enumerate(rays)
            ]
            continue

        kept = []
        for i in pos:
            kept.append(rays[i])
        for i in zero:
            ray, mask = rays[i]
            kept.append((ray, mask | (1 << row_idx)))

        # tight_on[b]: bit k set when ray k is tight on row b.  Each mask
        # is written once as a binary string, last ray and highest row
        # first, and the strings' columns read back as integers.
        digits = [format(mask, f"0{width}b") for _, mask in reversed(rays)]
        tight_on = [int("".join(column), 2) for column in zip(*digits)][::-1]
        every_ray = (1 << len(rays)) - 1
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
                pair = 1 << i | 1 << j
                tight = every_ray
                rest = common
                while rest and tight != pair:
                    low = rest & -rest
                    tight &= tight_on[low.bit_length() - 1]
                    rest ^= low
                if tight != pair:
                    continue
                vn = vals[j]
                new = [vp * ray_n[c] - vn * ray_p[c] for c in range(dim)]
                created.append((_gcd_reduce(new), common | (1 << row_idx)))

        seen = {ray for ray, _ in kept}
        for ray, mask in created:
            if ray not in seen:
                seen.add(ray)
                kept.append((ray, mask))
        rays = kept

    # the rays are distinct primitive integer vectors, so no two give one point
    boxes = []
    for ray, mask in rays:
        s = ray[0]
        if not s > 0:
            raise VerificationFailed("unbounded direction found in a bounded polytope")
        values = h_rep._cell_values(s, ray[1:])
        if min(values) < 0:
            raise VerificationFailed("enumerated point violates a nonnegativity constraint")
        zero_cells = [c for c, v in enumerate(values) if v == 0]
        if sum(1 << c for c in zero_cells) != mask:
            raise VerificationFailed("enumerated point's zero cells differ from its carried tight set")
        if not _pins_point(h_rep, zero_cells):
            raise VerificationFailed("enumerated point is not extremal")
        box = h_rep._box_on_ray(s, values)
        if not check_no_signaling(box).ok:
            raise VerificationFailed("enumerated vertex signals")
        boxes.append(box)
    return boxes


def _pins_point(h_rep: HRepresentation, zero_cells: Sequence[int]) -> bool:
    """Extremality: the linear parts of the cells at 0 have full rank, so
    those cells alone pin the point down."""
    tight_rows = [_linear_row(h_rep.cell_exprs[c][1], h_rep.dimension) for c in zero_cells]
    return exact_rank(tight_rows) == h_rep.dimension


def is_vertex(box: Box, h_rep: Optional[HRepresentation] = None) -> bool:
    """Extremality test: the cells at 0 must pin the point down completely.

    Raises ShapeMismatch when the box's shape is not the polytope's."""
    if h_rep is None:
        h_rep = build_h_rep(box.input_sizes, box.output_sizes, dimension_cap=RANK_CHECK_DIMENSION_CAP)
    _require_shape(box, h_rep, "polytope")
    return _pins_point(h_rep, [c for c, cell in enumerate(h_rep.cells) if box.prob(*cell) == 0])


def _require_shape(box: Box, other, name: str) -> None:
    """ShapeMismatch unless `other` (a polytope or a box) has the box's shape."""
    if (box.input_sizes, box.output_sizes) != (other.input_sizes, other.output_sizes):
        raise ShapeMismatch(
            f"shapes differ: box {box.input_sizes}/{box.output_sizes}"
            f" vs {name} {other.input_sizes}/{other.output_sizes}"
        )


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
    get the input-removal reduction.  Raises ShapeMismatch when the box's
    shape is not the polytope's.
    """
    if h_rep is None:
        h_rep = build_h_rep(box.input_sizes, box.output_sizes, dimension_cap=RANK_CHECK_DIMENSION_CAP)
    _require_shape(box, h_rep, "polytope")
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
    the convex hull, e.g. when its table signals or is not normalized,
    and ShapeMismatch when a vertex's shape is not the box's.
    """
    for j, v in enumerate(vertex_list):
        _require_shape(box, v, f"vertex {j}")
    cells = [(x, a) for x in box.inputs() for a in box.outputs()]
    row_of = {cell: r for r, cell in enumerate(cells)}
    A = [[0] * len(vertex_list) for _ in cells]
    for j, v in enumerate(vertex_list):
        for cell, p in v.table.items():
            r = row_of.get(cell)
            if r is not None and p:
                A[r][j] = p
    A.append([1] * len(vertex_list))
    b_vec = [box.prob(*cell) for cell in cells] + [1]
    result = solve_equality_feasibility(A, b_vec)
    if not result.feasible:
        raise Infeasible("box is not a convex mixture of the given vertices", result.farkas)
    weights = result.solution
    # exact re-expansion check, on every cell; zero weights add nothing
    used = [(w, v) for w, v in zip(weights, vertex_list) if w]
    for cell in cells:
        total = sum((w * v.prob(*cell) for w, v in used), Fraction(0))
        if total != box.prob(*cell):
            raise VerificationFailed("decomposition failed re-expansion")
    return weights
