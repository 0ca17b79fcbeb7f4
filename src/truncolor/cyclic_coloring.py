"""Class I colorings of cyclic truncations, and the bridge obstruction.

Some cyclic truncation of x (every valency >= 3) is class I iff x has a
parity-balanced 3-coloring: each color's count at every vertex has the
parity of that vertex's valency.  Necessity is the parity lemma on each
cluster.  Sufficiency is the sun gluing of `sun`, `_glue_suns` with
`_single_cycle_sun`, which every strategy shares: the vectors are
admissible, and it puts one single-cycle sun per distinct vector on
each cluster of that vector.  That sun is a closed form: one cyclic
word of edge colors, read off the vector in time linear in its total,
with no search and no repair.  Strategies only supply the coloring:
`cyclic_from_class_one` folds a d-coloring, `color_via_enabling` walks
Euler tours, `cyclic_class_one` searches, and returns a `Refusal` with
the search's node count when there is no such coloring.
`cyclic_even_valency` glues its own coloring and keeps any cycle
orders.  A 3-valent graph with a bridge cannot be class I.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .coloring import EdgeColoring, is_proper
from .errors import GraphError, Refusal
from .multigraph import Multigraph
from .sun import SunColoring, _finish, _glue_suns, _parity_coloring_search, admissible
from .truncation import Truncation, cyclic_truncation

__all__ = [
    "vector3_admissible",
    "cyclic_even_valency",
    "cyclic_from_class_one",
    "is_enabling",
    "color_via_enabling",
    "cyclic_class_one",
    "cut_edge_class_two",
    "ADMISSIBLE",
    "TOTALLY_INADMISSIBLE",
]

ADMISSIBLE = "ADMISSIBLE"
TOTALLY_INADMISSIBLE = "TOTALLY_INADMISSIBLE"


def vector3_admissible(x1: int, x2: int, x3: int) -> Tuple[str, bool]:
    """Verdict for a three-color pendant vector, plus a universal flag.

    The verdict follows the parity rule; at three colors the dichotomy
    is complete, so the negative case is totally inadmissible.  The
    vector is universal (every cycle constituent extends it) exactly
    when one entry carries everything and the total is even.
    """
    total = x1 + x2 + x3
    if total < 3:
        raise GraphError(f"three-color vectors need total valency >= 3, got {total}")
    verdict = ADMISSIBLE if admissible((x1, x2, x3)) else TOTALLY_INADMISSIBLE
    universal = verdict == ADMISSIBLE and total % 2 == 0 and sorted((x1, x2, x3))[:2] == [0, 0]
    return verdict, universal


def _single_cycle_sun(vector3: Sequence[int]) -> SunColoring:
    """The sun for an admissible 3-color vector whose constituent is one cycle.

    Every end sees the two colors other than its pendant once on the
    cycle, so color c colors (r - x_c) / 2 <= r / 2 cycle edges.  With
    the edge colors laid out by count, most frequent first (ties by
    color), on slots 0, 2, 4, ... and then 1, 3, 5, ..., no two
    neighbouring edges share a color.  The cycle vertex between edges i-1 and i takes the third
    color as its pendant; the ends of each pendant color are numbered in
    the order the walk reaches them, inside that color's block of
    pendant_layout.
    """
    if len(vector3) != 3 or not admissible(vector3):
        raise GraphError(f"vector {tuple(vector3)} is not an admissible 3-color vector")
    r = sum(vector3)
    counts = [(r - x) // 2 for x in vector3]
    by_count = sorted(range(3), key=lambda c: (-counts[c], c))
    laid = [c for c in by_count for _ in range(counts[c])]
    word = [0] * r
    half = (r + 1) // 2
    word[0::2], word[1::2] = laid[:half], laid[half:]
    # nxt is the next free position in each pendant color's block.
    starts = [0, vector3[0], vector3[0] + vector3[1]]
    nxt = list(starts)
    pos: List[int] = []
    for i in range(r):
        pendant = 3 - word[i - 1] - word[i]
        pos.append(nxt[pendant])
        nxt[pendant] += 1
    if nxt != starts[1:] + [r]:
        raise AssertionError("the cycle walk does not meet every position once")
    # A bijection onto the positions, so the walk closes one cycle
    # through all of them.
    triples = [
        (min(pos[i - 1], pos[i]), max(pos[i - 1], pos[i]), word[i - 1]) for i in range(r)
    ]
    return _finish(vector3, triples, 3, range(r), 2)


def _require_cyclic_source(x: Multigraph) -> None:
    for v in x.vertices:
        if x.valency(v) < 3:
            raise GraphError(f"vertex {v} has valency {x.valency(v)}; need >= 3")


def cyclic_even_valency(
    x: Multigraph, cycle_orders: Optional[Mapping[int, Sequence[int]]] = None
) -> Tuple[Truncation, EdgeColoring]:
    """3-color a cyclic truncation of an all-even-valency source.

    Works for every choice of cycle orders: matching edges take color 0
    and each (even) cycle alternates colors 1 and 2 around its listed
    order.
    """
    for v in x.vertices:
        val = x.valency(v)
        if val % 2 == 1 or val < 4:
            raise GraphError(
                f"vertex {v} has valency {val}; this construction needs even valencies >= 4"
            )
    tr = cyclic_truncation(x, cycle_orders)

    def pair_color(v: int) -> Dict[Tuple[int, int], int]:
        size = x.valency(v)
        order = list(cycle_orders[v]) if cycle_orders and v in cycle_orders else list(range(size))
        return {
            ((a, b) if a < b else (b, a)): 1 + i % 2
            for i, (a, b) in enumerate(zip(order, order[1:] + order[:1]))
        }

    return tr, tr.color(dict.fromkeys(tr.matching, 0), pair_color, 3)


def cyclic_from_class_one(
    x: Multigraph, coloring: EdgeColoring
) -> Tuple[Truncation, EdgeColoring]:
    """Fold a proper d-coloring (d odd >= 3, x d-regular) to 3 colors.

    Colors 2..d-1 merge into color 2, so each vertex's vector becomes
    (1, 1, d-2), which is parity-balanced.
    """
    d = x.regular_valency()
    if d is None or d % 2 == 0 or d < 3:
        raise GraphError("source must be regular of odd valency >= 3")
    if coloring.palette_size != d or not is_proper(x, coloring):
        raise GraphError(f"need a proper coloring with exactly {d} colors")
    folded = EdgeColoring(
        {eid: min(coloring.color_of(eid), 2) for eid in x.edge_ids}, 3
    )
    return _glue_suns(x, folded, _single_cycle_sun)


def is_enabling(x: Multigraph, y_edges: Iterable[int]) -> bool:
    """Whether removing the listed edges shifts every valency class home.

    Valencies of x mod 4 must land in classes of x minus y as follows:
    0 to 0, 1 to 2, 2 to 0, 3 to 2.  This leaves every remainder
    valency even, so components of the remainder are eulerian.
    """
    y = set(y_edges)
    edges = x.edges
    for eid in y:
        if eid not in edges:
            raise GraphError(f"edge {eid} is not in the graph")
    target = {0: 0, 1: 2, 2: 0, 3: 2}
    for v in x.vertices:
        removed = sum(1 for eid in x.incident(v) if eid in y)
        after = (x.valency(v) - removed) % 4
        if after != target[x.valency(v) % 4]:
            return False
    return True


def color_via_enabling(
    x: Multigraph, y_edges: Iterable[int]
) -> Tuple[Truncation, EdgeColoring]:
    """3-color a cyclic truncation using an enabling submultigraph.

    The remainder's components must each have an even number of edges;
    their Euler tours are colored alternately 0/1 (balancing both
    colors at every vertex) and the removed edges take color 2, which
    makes the 3-coloring parity-balanced.
    """
    y = sorted(set(y_edges))
    _require_cyclic_source(x)
    if not is_enabling(x, y):
        raise GraphError("the given edge set is not enabling")
    rest = x.without_edges(y)
    assignment: Dict[int, int] = {eid: 2 for eid in y}
    for comp in rest.components():
        comp_edges = sum(rest.valency(v) for v in comp) // 2
        if comp_edges == 0:
            continue
        if comp_edges % 2 == 1:
            raise GraphError(
                f"component containing vertex {min(comp)} has odd edge count {comp_edges}"
            )
        root = min(v for v in comp if rest.valency(v) > 0)
        tour = rest.euler_tour(root)
        for i, eid in enumerate(tour):
            assignment[eid] = i % 2
    return _glue_suns(x, EdgeColoring(assignment, 3), _single_cycle_sun)


def cyclic_class_one(
    x: Multigraph, *, budget: Optional[int] = None
) -> Union[Tuple[Truncation, EdgeColoring], Refusal]:
    """A class I cyclic truncation of x with its 3-coloring, or a Refusal.

    Searches for a parity-balanced 3-coloring of x; a Refusal, with the
    search's node count, means there is none, so every cyclic truncation
    of x, whatever its cycle orders, is class II.  Raises UndecidedError
    if the search exceeds budget nodes.
    """
    _require_cyclic_source(x)
    found, nodes = _parity_coloring_search(x, 3, budget)
    if found is None:
        reason = (
            "the source has no parity-balanced 3-coloring, "
            "so no cyclic truncation of it is class I"
        )
        return Refusal(reason, nodes)
    return _glue_suns(x, found, _single_cycle_sun)


def cut_edge_class_two(g: Multigraph) -> bool:
    """Bridge test for 3-valent graphs; a bridge forces class II."""
    if g.regular_valency() != 3:
        raise GraphError("cut-edge criterion applies to 3-valent graphs only")
    return bool(g.bridges())
