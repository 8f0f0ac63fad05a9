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
integer ray arithmetic throughout; no linear system is solved, and the
only elimination is one rank certificate per vertex, for extremality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .boxes import (
    Box,
    Relabeling,
    all_relabelings,
    cell_expressions,
    check_no_signaling,
    marginal_coordinates,
    marginal_point,
)
from .errors import (
    DimensionMismatch,
    Infeasible,
    NegativeProbability,
    NotAVertex,
    NotNormalized,
    ShapeMismatch,
    TooLarge,
    VerificationFailed,
)
from .exactlp import (
    _fraction_free_rank,
    _mod3_masks,
    _modular_full_rank,
    _odd_mask,
    exact_rank,
    solve_equality_feasibility,
)

DEFAULT_DIMENSION_CAP = 15  # covers 3 inputs x 2 outputs per party
# is_vertex and classify_vertex take exact ranks and never enumerate, so the
# H-representation they build may reach five binary parties (about 0.1 s)
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

    def _sum_groups(self):
        """The cell index groups that `_box_on_ray` sums: (rows, signaling).

        `rows` pairs each joint input x with the indices of its cells.
        `signaling` holds, for each party i and each setting (x, a) of
        the other parties' inputs and outputs (party i's own entries at
        0), the entry (i, x, a, groups), where groups[x_i] lists the
        indices of the cells at input x_i over party i's outputs."""
        index = {cell: c for c, cell in enumerate(self.cells)}
        rows = {}
        for c, (x, _) in enumerate(self.cells):
            rows.setdefault(x, []).append(c)
        signaling = []
        for i, (m, d) in enumerate(zip(self.input_sizes, self.output_sizes)):
            for x, a in self.cells:
                if x[i] == 0 and a[i] == 0:
                    groups = [
                        [index[(x[:i] + (x_i,) + x[i + 1:], a[:i] + (a_i,) + a[i + 1:])] for a_i in range(d)]
                        for x_i in range(m)
                    ]
                    signaling.append((i, x, a, groups))
        return list(rows.items()), signaling

    def _box_on_ray(self, s: int, values: Sequence[int], sum_groups) -> Box:
        """The box whose cells are values/s, for s > 0, checked on the
        integers before any Fraction is made, with `sum_groups` from
        `_sum_groups`:

        - range: 0 <= v <= s for every cell, else NegativeProbability
          for the first cell outside;
        - normalization: each joint input's cells sum to s, else
          NotNormalized(x, total/s);
        - no-signaling: for each party, each setting of the other
          parties' inputs and outputs sums to the same integer over the
          party's outputs at every input of the party, else
          VerificationFailed.

        Only then is the box built, with one Fraction(v, s) for each
        distinct nonzero value, shared by the cells that hold it.
        """
        if min(values) < 0 or max(values) > s:
            cell, v = next((cell, v) for cell, v in zip(self.cells, values) if not 0 <= v <= s)
            raise NegativeProbability(cell, Fraction(v, s))
        rows, signaling = sum_groups
        value = values.__getitem__
        for x, cells in rows:
            total = sum(map(value, cells))
            if total != s:
                raise NotNormalized(x, Fraction(total, s))
        for i, x, a, groups in signaling:
            reference = sum(map(value, groups[0]))
            for x_i, group in enumerate(groups[1:], 1):
                if sum(map(value, group)) != reference:
                    raise VerificationFailed(
                        f"box signals: party {i}'s input 0 vs {x_i} moves the others'"
                        f" outputs {a[:i] + a[i + 1:]} at their inputs {x[:i] + x[i + 1:]}"
                    )
        fraction = {v: Fraction(v, s) for v in set(values) if v}
        table = {cell: fraction[v] for cell, v in zip(self.cells, values) if v}
        return Box(len(self.input_sizes), self.input_sizes, self.output_sizes, table)

    def box_from_point(self, t: Sequence[Fraction]) -> Box:
        """The box at point t, evaluated on the integer ray (s, s*t) with s
        the common denominator of t."""
        s = lcm(*(v.denominator for v in t))
        values = self._cell_values(s, [v.numerator * (s // v.denominator) for v in t])
        return self._box_on_ray(s, values, self._sum_groups())

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
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _initial_cone(h_rep: HRepresentation):
    """The spanning cells' row indices, in order, and the columns of
    their rows' inverse as rays.

    A spanning cell (x, a) has every party p at a_p < d_p - 1 or at
    x_p = 0 (as in `locality._spanning_cells`); there are dimension + 1
    of them.  Each cell's homogenized row is the Kronecker product of
    per-party rows over (s, t(p; x_p, b)): t(p; x_p, a_p) below the last
    output, s - sum_b t(p; 0, b) at (0, d_p - 1).  So the inverse is the
    product of each party's local 0/1 inverse, whose columns are s at
    (0, d_p - 1), s + t(p; 0, a_p) at (0, a_p) and t(p; x_p, a_p)
    elsewhere.  The ray of spanning cell (x, a) thus has a 1 at s when
    x = 0, and at the coordinate (S, x_S, a_S) when every party outside
    S has x_p = 0; every other entry is 0."""
    last = [d - 1 for d in h_rep.output_sizes]
    index = {coord: i for i, coord in enumerate(h_rep.coords, 1)}
    index[(), (), ()] = 0
    order = []
    rays = []
    for c, (x, a) in enumerate(h_rep.cells):
        if any(x_p and a_p == top for x_p, a_p, top in zip(x, a, last)):
            continue
        free = [p for p, (a_p, top) in enumerate(zip(a, last)) if a_p < top]
        moved = {p for p, x_p in enumerate(x) if x_p}  # parties every S must hold
        ray = [0] * (h_rep.dimension + 1)
        for r in range(len(free) + 1):
            for subset in combinations(free, r):
                if moved.issubset(subset):
                    ray[index[subset, tuple(x[p] for p in subset), tuple(a[p] for p in subset)]] = 1
        order.append(c)
        rays.append(tuple(ray))
    return order, rays


def enumerate_vertices(h_rep: HRepresentation) -> list[Box]:
    """All vertices of the polytope, by exact double description.

    The initial cone is cut out by the rows of the spanning cells
    (`_initial_cone`); its rays are the columns of those rows' inverse,
    which in marginal coordinates is a 0/1 matrix in closed form.  One
    product certifies it before the first row is added: every spanning
    row times every ray, summed as the double description sums them,
    must give exactly the identity, else VerificationFailed.

    Each ray carries the bitmask of the processed rows it is tight on,
    and no mask is ever recomputed.  Initial ray j is tight on every
    spanning row but row j.  Adding row r keeps the rays with
    row . ray >= 0 (those at 0 gain bit r) and joins each adjacent pair
    (p, n) with values vp > 0 > vn into vp*n - vn*p, a positive
    combination of rays that are >= 0 on every earlier row: it is tight
    on an earlier row exactly when both parents are, and on r by
    construction, so its mask is mask_p & mask_n | 1 << r (Fukuda &
    Prodon, "Double description method revisited", 1996).

    The pair is adjacent when its common tight set has at least dim - 2
    rows and no other ray is tight on all of them.  Before each row's
    pairing, every processed row gets the bitset of the rays tight on it,
    transposed from the masks in one pass; the rays tight on the whole
    common set are the AND of its rows' bitsets (all rays when it is
    empty), and the pair is adjacent exactly when that AND is the pair
    itself.

    Every vertex is verified on its integer ray (s, t), and each check
    raises its own error.  VerificationFailed: s > 0, every cell's
    integer value const*s + sum(coef*t) is >= 0, the cells at 0 are
    exactly the carried mask, and their linear parts have full rank
    (extremality, the one rank certificate taken per vertex).  Every
    cell's linear part is sliced once per call into its GF(3) masks and
    its GF(2) odd-entry mask (`exactlp._mod3_masks`, `_odd_mask`); a
    vertex's certificate eliminates its zero cells' masks, mod 3 and then,
    when that falls short, mod 2 (`exactlp._modular_full_rank`).  Only
    when both fall short does fraction-free elimination run on the dense
    rows, which no vertex of the (2,2)/(2,2), (3,3)/(2,2) or (2,2)/(3,3)
    census needs (24,064 of the 53,856 (2,2,2)/(2,2,2) vertices do).  Then `HRepresentation._box_on_ray` checks, still on
    the integers, that every value is at most s (NegativeProbability),
    that each joint input's values sum to s (NotNormalized) and that
    every no-signaling sum agrees (VerificationFailed, "signals"); only
    then is the box built, one Fraction per distinct nonzero value.
    """
    rows = _inequality_rows(h_rep)
    dim = h_rep.dimension + 1  # homogenized
    order, initial_rays = _initial_cone(h_rep)
    identity = [[int(j == k) for j in range(dim)] for k in range(dim)]
    if [[sum(map(mul, rows[row_idx], ray)) for ray in initial_rays] for row_idx in order] != identity:
        raise VerificationFailed("initial rays do not invert the spanning cells' rows")
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
    linear = [row[1:] for row in rows[:-1]]  # each cell's linear part
    mod3 = [_mod3_masks(row) for row in linear]
    odd = [_odd_mask(row) for row in linear]
    sum_groups = h_rep._sum_groups()
    return [_verified_vertex(h_rep, ray, mask, linear, mod3, odd, sum_groups) for ray, mask in rays]


def _verified_vertex(h_rep: HRepresentation, ray, mask: int, linear, mod3, odd, sum_groups) -> Box:
    """The box at a final double-description ray (s, t) with its carried
    tight-set mask, through every check of `enumerate_vertices`; `linear`
    holds each cell's dense linear part, `mod3` and `odd` its GF(3) and
    GF(2) masks (`_mod3_masks`, `_odd_mask`), and `sum_groups` is
    `h_rep._sum_groups()`."""
    s = ray[0]
    if not s > 0:
        raise VerificationFailed("unbounded direction found in a bounded polytope")
    values = h_rep._cell_values(s, ray[1:])
    if min(values) < 0:
        raise VerificationFailed("enumerated point violates a nonnegativity constraint")
    zero_cells = [c for c, v in enumerate(values) if v == 0]
    if sum(1 << c for c in zero_cells) != mask:
        raise VerificationFailed("enumerated point's zero cells differ from its carried tight set")
    # extremality: the cells at 0 alone pin the point down
    dim = h_rep.dimension
    certified = _modular_full_rank(map(mod3.__getitem__, zero_cells), map(odd.__getitem__, zero_cells), dim)
    if not certified and _fraction_free_rank([linear[c] for c in zero_cells]) != dim:
        raise VerificationFailed("enumerated point is not extremal")
    return h_rep._box_on_ray(s, values, sum_groups)


def is_vertex(box: Box, h_rep: Optional[HRepresentation] = None) -> bool:
    """Extremality test: the cells at 0 must pin the point down completely.

    Raises ShapeMismatch when the box's shape is not the polytope's."""
    if h_rep is None:
        h_rep = build_h_rep(box.input_sizes, box.output_sizes, dimension_cap=RANK_CHECK_DIMENSION_CAP)
    _require_shape(box, h_rep, "polytope")
    tight_rows = [
        _linear_row(terms, h_rep.dimension)
        for cell, (_, terms) in zip(h_rep.cells, h_rep.cell_exprs)
        if box.prob(*cell) == 0
    ]
    return exact_rank(tight_rows) == h_rep.dimension


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
    if any(p != 1 for p in box.table.values()):
        return False
    responses = [{} for _ in range(box.n_parties)]
    for x, a in box.table:
        for resp, x_p, a_p in zip(responses, x, a):
            if resp.setdefault(x_p, a_p) != a_p:
                return False
    return all(len(resp) == m for resp, m in zip(responses, box.input_sizes))


def _impossible_output(box: Box):
    """The first (party, input, output) that never occurs, or None.

    Each party's marginal is read with the other parties at input 0; one
    completion suffices because the box is nonsignaling.  The table is
    read once; all triples are scanned, in order, only when fewer were
    seen than there are."""
    n = box.n_parties
    seen = set()
    for x, a in box.table:
        # all inputs at 0 complete every party's marginal; one nonzero
        # input completes only its own party's
        zeros = x.count(0)
        if zeros == n:
            seen.update(zip(range(n), x, a))
        elif zeros == n - 1:
            p = x.index(max(x))
            seen.add((p, x[p], a[p]))
    if len(seen) == sum(map(mul, box.input_sizes, box.output_sizes)):
        return None
    return next(
        (p, x_p, a_p)
        for p in range(n)
        for x_p in range(box.input_sizes[p])
        for a_p in range(box.output_sizes[p])
        if (p, x_p, a_p) not in seen
    )


def parity_form_of(box: Box):
    """If the box is a binary-output parity-correlated table - uniform
    weight 1/2^(n-1) on exactly the output tuples of one total parity per
    input - return {x: parity}; otherwise None.

    Works for any party count.  The table is read once: every entry must
    be 1/2^(n-1), compared as numerator and denominator, with the parity
    of its input's first entry.  An input has at most 2^(n-1) output
    tuples of one parity, so 2^(n-1) entries for each input leave none
    missing.
    """
    n = box.n_parties
    if box.output_sizes != (2,) * n:
        return None
    half = 2 ** (n - 1)
    g = {}
    for (x, a), p in box.table.items():
        parity = sum(a) % 2
        if p.numerator != 1 or p.denominator != half or g.setdefault(x, parity) != parity:
            return None
    if len(g) != prod(box.input_sizes) or len(box.table) != len(g) * half:
        return None
    return {x: g[x] for x in box.inputs()}


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
            # relabeled, the box is the parity box of g(x) xor each party's
            # output flip at its input, placed at input y; it is the PR box
            # when that parity is y_0 y_1 on all four inputs (the product
            # does not depend on the party order)
            for rel in all_relabelings(box.input_sizes, box.output_sizes):
                ins, outs = rel.input_perms, rel.output_perms
                if all(
                    parity ^ outs[0][x[0]][0] ^ outs[1][x[1]][0] == ins[0][x[0]] & ins[1][x[1]]
                    for x, parity in g.items()
                ):
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
            A[row_of[cell]][j] = p
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
