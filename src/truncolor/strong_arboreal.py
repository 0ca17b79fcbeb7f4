"""Sufficient class I condition via strong constituents; arboreal case.

A truncation whose maximum valency is D is class I whenever every
constituent touching a valency-D vertex is itself class I: those
constituents take D-1 colors, all others fit in D-1 colors as well
(their ends top out at D-2, so one extra color always suffices), and
the matching takes the remaining fresh color.  Forest constituents are
always class I, so arboreal truncations never fail this route.
Each other constituent is searched as a graph on its own cluster
positions, so its cost does not grow with the rest of the truncation,
and each distinct constituent is colored once: clusters that share a
constituent tuple share its coloring.  When a critical constituent is
class II the route returns a `Refusal` at its source vertex, with the
search nodes spent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .coloring import EdgeColoring, _forest_coloring, solve_edge_coloring
from .errors import Refusal
from .multigraph import Multigraph
from .truncation import Truncation

__all__ = ["color_by_strong"]


def color_by_strong(
    tr: Truncation, *, budget: Optional[int] = None
) -> Union[EdgeColoring, Refusal]:
    """Color a truncation in max-valency colors via strong constituents.

    Each cluster's constituent is colored inside palette 1..D-1 (a
    forest by the one walk that also tests it, the rest by exact search
    on the cluster alone) and the matching takes color 0.  Clusters
    holding a valency-D end must be class I for the search to fit; when
    one is not, a Refusal at its vertex reports it, with the nodes of
    every search so far.
    """
    delta = tr.max_valency()
    spent = 0
    # Clusters that share a constituent tuple share its coloring, made at
    # the first of them in vertex order, which also names a failure.
    shared: Dict[int, List[int]] = {}
    for key, v in tr.representatives().items():
        pairs = tr.constituents[v]
        if not pairs:
            continue
        size = len(tr.clusters[v])
        pair_color = _forest_coloring(size, pairs)
        if pair_color is None:
            # Edge ids of the cluster's own graph follow the pair order.
            sub = Multigraph(range(size), pairs)
            solved, nodes = solve_edge_coloring(sub, delta - 1, budget=budget)
            spent += nodes
            if solved is None:
                if delta in tr.end_valencies(v):
                    reason = (
                        f"constituent at source vertex {v} holds a valency-{delta} end "
                        f"but admits no {delta - 1}-coloring"
                    )
                    return Refusal(reason, spent, v)
                raise AssertionError(
                    f"constituent at {v} has max valency <= {delta - 2} "
                    f"yet refused {delta - 1} colors"
                )
            pair_color = {pair: solved[i] for i, pair in enumerate(pairs)}
        shared[key] = [pair_color[pair] + 1 for pair in pairs]
    return tr.color(
        dict.fromkeys(tr.matching, 0), lambda v: shared[id(tr.constituents[v])], max(delta, 1)
    )

