"""The five-party ring-cluster constraints: locally unsatisfiable, realized
by a nonsignaling box from the ring cluster state, and out of reach for
protocols over one PR box.

Run:  python demos/04_cluster_no_go.py
"""

import boxworld as bw
from boxworld.cluster import (
    box_source,
    cluster_box,
    cluster_constraints,
    ghz_local_search,
    inverted_cluster_constraints,
    satisfies,
    simulation_search,
)

cs = cluster_constraints()
print("the six parity constraints (party, setting) -> target:")
for c in cs.constraints:
    print("  ", c.terms, "->", c.target)

# summing all six left sides uses every variable twice, but the right
# sides sum to 1: no local assignment can win
report = ghz_local_search()
print(f"\nlocal assignments satisfying all six: {report.satisfying_assignments} of {report.space}")
print("maximum simultaneously satisfiable:", report.max_simultaneous)

# the 5-ring graph state measured in Z (setting 0) or X (setting 1) gives
# a nonsignaling box that does satisfy all six
cb = cluster_box()
print("\ncluster box nonsignaling:", bw.check_no_signaling(cb).ok)
src = box_source(cb)
box_value = sum(satisfies(src, c) for c in cs.constraints)
print("cluster box satisfies all six:", box_value == len(cs.constraints))
# the sum of the six events' probabilities is a Bell functional: the box
# scores 6, every local assignment at most max_simultaneous, so no local
# mixture reproduces the box
print("cluster box local?", box_value <= report.max_simultaneous,
      f"(certificate: box scores {box_value} vs local max {report.max_simultaneous})")

# the no-go at one shared PR box: exhaust all adaptive deterministic
# strategies for each of the 10 pair assignments
result = simulation_search(1)
print(f"\none PR box: tested {result.strategies_tested} strategy profiles over "
      f"{result.assignments_tested} pair assignments in {result.runtime_s:.1f}s "
      f"-> success: {result.success}")

# sanity inversion: flip the five-party target and the searcher must find
# a protocol (everyone outputs 0), proving it can see counterexamples
inverted = simulation_search(1, constraints=inverted_cluster_constraints())
print("inverted constraints, counterexample found:", inverted.success)
