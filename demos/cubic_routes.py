"""Cubic truncations: four coloring routes, one obstruction, one escape.

Cyclic truncations are 3-valent, so three colors is the best possible
outcome.  This demo shows the routes that reach it, the parity search
that decides whether any cyclic truncation reaches it, the bridge
obstruction that blocks it, and the arboreal route that sidesteps a
class II source entirely.
"""

import random

from truncolor.catalog import k4, k5, petersen, two_k5_bridge
from truncolor.coloring import EdgeColoring, chromatic_index, is_proper, solve_edge_coloring
from truncolor.cyclic_coloring import (
    color_via_enabling,
    cut_edge_class_two,
    cyclic_class_one,
    cyclic_even_valency,
    cyclic_from_class_one,
)
from truncolor.strong_arboreal import color_by_strong
from truncolor.truncation import arboreal_truncation, cyclic_truncation


def report(label, tr, coloring):
    assert is_proper(tr.graph, coloring)
    print(f"  {label}: cubic truncation on {tr.graph.order} vertices, "
          f"{coloring.palette_size} colors")


def main():
    print("== routes to three colors")
    rng = random.Random(7)
    orders = {}
    g = k5()
    for v in g.vertices:
        order = list(range(g.valency(v)))
        rng.shuffle(order)
        orders[v] = order
    tr, coloring = cyclic_even_valency(g, orders)
    report("even valencies, scrambled cycle orders (K5)", tr, coloring)

    assignment, _ = solve_edge_coloring(k4(), 3)
    tr, coloring = cyclic_from_class_one(k4(), EdgeColoring(assignment, 3))
    report("class-one source, coloring carried over (K4)", tr, coloring)

    tr, coloring = color_via_enabling(k4(), [0, 5])
    report("enabling perfect matching removed first (K4)", tr, coloring)

    tr, coloring = cyclic_class_one(k4())
    report("parity-balanced 3-coloring found by search (K4)", tr, coloring)
    assert cyclic_class_one(petersen()) is None
    print("  Petersen has no parity-balanced 3-coloring: "
          "every cyclic truncation of it is class II")

    print("== the bridge obstruction")
    tr = cyclic_truncation(two_k5_bridge())
    assert cut_edge_class_two(tr.graph)
    res = chromatic_index(tr.graph, edge_cap=70)
    print(f"  bridged cubic truncation needs {res.chi} colors "
          f"(decided in {res.nodes} nodes)")

    print("== forests rescue a class II source")
    tr = arboreal_truncation(petersen())
    coloring = color_by_strong(tr)
    assert is_proper(tr.graph, coloring)
    print(f"  path constituents on Petersen: proper with "
          f"{coloring.palette_size} colors, max valency {tr.graph.max_valency()}")


if __name__ == "__main__":
    main()
