"""Walk through complete truncations: build, color, verify, contract.

Three stops: an even-maximum-valency source (K5), an odd one with
mixed cluster sizes (two K5 copies joined by a bridge), and a source
whose truncation provably cannot be colored with its maximum valency
(Petersen).
"""

from truncolor.catalog import k5, petersen, two_k5_bridge
from truncolor.coloring import chromatic_index, is_proper
from truncolor.complete_coloring import color_complete_truncation, is_edge_feasible
from truncolor.errors import Refusal
from truncolor.truncation import complete_truncation, contract


def show(label, g):
    print(f"== {label}: order {g.order}, size {g.size}, max valency {g.max_valency()}")
    out = color_complete_truncation(g)
    if isinstance(out, Refusal):
        print(f"   refused after {out.nodes} search nodes: {out.reason}")
        return
    tr, coloring = out
    assert is_proper(tr.graph, coloring)
    print(f"   truncation: order {tr.graph.order}, size {tr.graph.size}; "
          f"proper with {coloring.palette_size} colors")
    back, back_coloring = contract(tr, coloring)
    if g.max_valency() % 2 == 1:
        # Matching-edge colors land back on the source as an
        # edge-feasible coloring: full rainbows at max-valency vertices.
        assert is_edge_feasible(back, back_coloring)
        print("   contracted matching colors are edge-feasible on the source")


def main():
    show("K5", k5())
    show("two K5 copies + bridge", two_k5_bridge())
    show("Petersen", petersen())

    tr = complete_truncation(petersen())
    res = chromatic_index(tr.graph, edge_cap=60)
    print(f"   oracle on the Petersen truncation: chi' = {res.chi} "
          f"(> max valency 3, decided in {res.nodes} nodes)")


if __name__ == "__main__":
    main()
