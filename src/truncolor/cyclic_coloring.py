"""Class I colorings of cyclic truncations, and the bridge obstruction.

Three constructive routes produce proper 3-colorings of 3-valent cyclic
truncations: all-even valencies (any cycle orders work), a proper
d-coloring of a d-regular source folded down to three colors, and an
enabling submultigraph whose removal leaves an eulerian graph of even
component sizes.  The one structural obstruction implemented is the cut
edge: a 3-valent graph with a bridge cannot be class I.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .coloring import EdgeColoring, is_proper
from .errors import GraphError, UndecidedError
from .multigraph import Multigraph
from .sun import SunColoring, admissible, build_sun_even, build_sun_odd, _suns_to_truncation
from .truncation import Truncation, cyclic_truncation

__all__ = [
    "vector3_admissible",
    "cyclic_even_valency",
    "cyclic_from_class_one",
    "is_enabling",
    "color_via_enabling",
    "find_enabling_submultigraph",
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


def _cycle_components(r: int, edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Vertex lists of the cycles of a 2-regular graph on 0..r-1."""
    adj: Dict[int, List[int]] = {i: [] for i in range(r)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    if any(len(ns) != 2 for ns in adj.values()):
        raise AssertionError("constituent is not 2-regular")
    seen: set = set()
    comps: List[List[int]] = []
    for start in range(r):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        comps.append(cyc)
    return comps


def _single_cycle_sun(vector3: Sequence[int]) -> SunColoring:
    """A sun for a 3-color vector whose constituent is one cycle.

    The direct construction can leave several cycles; any two proper
    cycles share a color (each uses at least two of the three), so a
    same-colored pair of edges from different cycles is swapped for its
    cross pair, preserving every vertex's color multiset and merging
    the components.  Repeats until a single cycle remains.
    """
    r = sum(vector3)
    base = build_sun_odd(vector3) if r % 2 == 1 else build_sun_even(vector3)
    edges: Dict[Tuple[int, int], int] = dict(
        zip(base.constituent_edges, base.constituent_colors)
    )
    while True:
        comps = _cycle_components(r, list(edges))
        if len(comps) <= 1:
            break
        comps.sort(key=min)
        in_a = set(comps[0])
        in_b = set(comps[1])
        colors_a = {c for (p, q), c in edges.items() if p in in_a}
        colors_b = {c for (p, q), c in edges.items() if p in in_b}
        common = colors_a & colors_b
        if not common:
            raise AssertionError("two proper cycles with disjoint color sets")
        gamma = min(common)
        ea = min(e for e, c in edges.items() if c == gamma and e[0] in in_a)
        eb = min(e for e, c in edges.items() if c == gamma and e[0] in in_b)
        del edges[ea]
        del edges[eb]
        for pair in (
            tuple(sorted((ea[0], eb[0]))),
            tuple(sorted((ea[1], eb[1]))),
        ):
            if pair in edges:
                raise AssertionError("cross edge already present")
            edges[pair] = gamma
    pairs = sorted(edges)
    sun = SunColoring(
        vector=tuple(vector3),
        pendant_colors=base.pendant_colors,
        constituent_edges=tuple(pairs),
        constituent_colors=tuple(edges[p] for p in pairs),
        palette_size=base.palette_size,
    )
    sun.validate(regular=2)
    return sun


def _assert_cyclic(tr: Truncation) -> None:
    for v in tr.source.vertices:
        size = len(tr.clusters[v])
        comps = _cycle_components(size, tr.constituents[v])
        if len(comps) != 1:
            raise AssertionError(f"constituent at vertex {v} is not a single cycle")


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
        order = (
            list(cycle_orders[v])
            if cycle_orders and v in cycle_orders
            else list(range(size))
        )
        colors: Dict[Tuple[int, int], int] = {}
        for i in range(size):
            a, b = order[i], order[(i + 1) % size]
            colors[(min(a, b), max(a, b))] = 1 if i % 2 == 0 else 2
        return colors

    return tr, tr.color(dict.fromkeys(tr.matching, 0), pair_color, 3)


def cyclic_from_class_one(
    x: Multigraph, coloring: EdgeColoring
) -> Tuple[Truncation, EdgeColoring]:
    """Fold a proper d-coloring (d odd >= 3, x d-regular) to 3 colors.

    Colors 2..d-1 merge into color 2, so each vertex's vector becomes
    (1, 1, d-2); the matching keeps the folded colors and each cluster
    gets the single-cycle sun for that vector.
    """
    d = x.regular_valency()
    if d is None or d % 2 == 0 or d < 3:
        raise GraphError("source must be regular of odd valency >= 3")
    if coloring.palette_size != d or not is_proper(x, coloring):
        raise GraphError(f"need a proper coloring with exactly {d} colors")
    folded = EdgeColoring(
        {eid: min(coloring.color_of(eid), 2) for eid in x.edge_ids}, 3
    )
    sun = _single_cycle_sun((1, 1, d - 2))
    suns = {v: sun for v in x.vertices}
    tr, out = _suns_to_truncation(x, folded, suns)
    _assert_cyclic(tr)
    return tr, out


def is_enabling(x: Multigraph, y_edges: Iterable[int]) -> bool:
    """Whether removing the listed edges shifts every valency class home.

    Valencies of x mod 4 must land in classes of x minus y as follows:
    0 to 0, 1 to 2, 2 to 0, 3 to 2.  This leaves every remainder
    valency even, so components of the remainder are eulerian.
    """
    y = set(y_edges)
    for eid in y:
        if eid not in x.edges:
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
    colors at every vertex), the removed edges take color 2, and each
    cluster gets a single-cycle sun for its (now admissible) vector.
    """
    y = sorted(set(y_edges))
    for v in x.vertices:
        if x.valency(v) < 3:
            raise GraphError(f"vertex {v} has valency {x.valency(v)}; need >= 3")
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
    matching = EdgeColoring(assignment, 3)
    suns: Dict[int, SunColoring] = {}
    for v in x.vertices:
        counts = [0, 0, 0]
        for eid in x.incident(v):
            counts[assignment[eid]] += 1
        vec = tuple(counts)
        if not admissible(vec):
            raise AssertionError(f"vertex {v} got inadmissible vector {vec}")
        suns[v] = _single_cycle_sun(vec)
    tr, out = _suns_to_truncation(x, matching, suns)
    _assert_cyclic(tr)
    return tr, out


def find_enabling_submultigraph(
    x: Multigraph, *, max_size: Optional[int] = None, subset_budget: int = 500_000
) -> Optional[Tuple[int, ...]]:
    """Smallest enabling edge set leaving even-size eulerian components.

    Convenience scan in increasing size; None when none exists within
    the size range.  Raises UndecidedError if the subset count exceeds
    the budget first.
    """
    ids = sorted(x.edge_ids)
    limit = len(ids) if max_size is None else min(max_size, len(ids))
    tried = 0
    for k in range(limit + 1):
        for combo in combinations(ids, k):
            tried += 1
            if tried > subset_budget:
                raise UndecidedError(
                    f"enabling search exceeded {subset_budget} subsets", tried
                )
            if not is_enabling(x, combo):
                continue
            rest = x.without_edges(combo)
            ok = True
            for comp in rest.components():
                comp_edges = sum(rest.valency(v) for v in comp) // 2
                if comp_edges % 2 == 1:
                    ok = False
                    break
            if ok:
                return tuple(combo)
    return None


def cut_edge_class_two(g: Multigraph) -> bool:
    """Bridge test for 3-valent graphs; a bridge forces class II."""
    if g.regular_valency() != 3:
        raise GraphError("cut-edge criterion applies to 3-valent graphs only")
    return bool(g.bridges())
