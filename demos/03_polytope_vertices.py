"""Enumerate and classify the vertices of small no-signaling polytopes,
and decompose interior boxes over them.

Run:  python demos/03_polytope_vertices.py
"""

from fractions import Fraction

import boxworld as bw
from boxworld.polytope import build_h_rep, classify_vertex, decompose, enumerate_vertices

# the 2-input/2-output scenario: 16 ambient cells, dimension 8
h = build_h_rep((2, 2), (2, 2))
print("ambient cells:", len(h.cells), "| polytope dimension:", h.dimension)

vertices = enumerate_vertices(h)
census = {}
for v in vertices:
    rep = classify_vertex(v, h, check=False)
    census[rep.classification] = census.get(rep.classification, 0) + 1
print("vertices:", len(vertices), census)

# every nonlocal vertex maps onto the canonical PR box by a relabeling
example = next(
    classify_vertex(v, h, check=False)
    for v in vertices
    if classify_vertex(v, h, check=False).classification == "pr-equivalent"
)
print("\none nonlocal vertex, parity function f(x,y):", dict(((x, y), f) for x, y, f in example.f_table))

# convex decomposition, exactly: 3/4 PR + 1/4 noise re-expands to itself
iso = bw.mix_boxes(
    [(Fraction(3, 4), bw.pr_box()), (Fraction(1, 4), bw.uniform_box((2, 2), (2, 2)))]
)
weights = decompose(iso, vertices)
print("\nisotropic box decomposition (nonzero weights):")
for v, w in zip(vertices, weights):
    if w:
        rep = classify_vertex(v, h, check=False)
        print(f"  {w}  on a {rep.classification} vertex")

# the 3-input scenario takes a few seconds: 1408 vertices, and every
# genuine (full-support) nonlocal vertex is again of parity form
h3 = build_h_rep((3, 3), (2, 2))
vertices3 = enumerate_vertices(h3)
census3 = {}
for v in vertices3:
    rep = classify_vertex(v, h3, check=False)
    census3[rep.classification] = census3.get(rep.classification, 0) + 1
print("\n3-input scenario:", len(vertices3), "vertices", census3)
