"""Coloring complete truncations with exactly max-valency colors.

For even maximum valency every matching edge takes color 0 and each
cluster's complete constituent is colored canonically inside {1..D-1}.
For odd D the matching must carry an edge-feasible coloring of the
source (all colors distinct at D-valent vertices); constituents are
then colored according to their order: D via the missing-color
alignment, and D-1 via canonical classes plus an alternating repair of
the conflict paths.  A constituent of order at most D-2 is padded to
D-1 positions with dummy pendants, colored as order D-1, and restricted
to its real positions.  When no edge-feasible coloring exists the complete
truncation provably needs D+1 colors, and a witness of the exhausted
search is returned instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .canonical import class_of_pair, scheme_class, scheme_class_count
from .coloring import CLASS_I, EdgeColoring, classify, solve_edge_coloring
from .errors import GraphError
from .multigraph import Multigraph
from .truncation import Truncation, complete_truncation

__all__ = [
    "ClassIIWitness",
    "is_edge_feasible",
    "find_edge_feasible",
    "color_complete_truncation",
    "color_delta_minus_one",
    "subtruncation_coloring",
    "regular_odd_equivalence",
]


@dataclass(frozen=True)
class ClassIIWitness:
    """Record of an exhausted edge-feasibility search.

    Its existence certifies that the complete truncation needs one more
    color than the source's maximum valency."""

    delta: int
    nodes: int
    reason: str


def is_edge_feasible(x: Multigraph, coloring: EdgeColoring) -> bool:
    """True iff every maximum-valency vertex sees all distinct colors.

    Only defined for odd maximum valency; the coloring may clash freely
    at lower-valency vertices.
    """
    delta = x.max_valency()
    if delta % 2 == 0:
        raise GraphError(f"edge-feasibility is defined for odd maximum valency, got {delta}")
    if coloring.palette_size > delta:
        raise GraphError(
            f"coloring uses palette of {coloring.palette_size} > {delta} colors"
        )
    for v in x.vertices:
        if x.valency(v) != delta:
            continue
        seen = set()
        for eid in x.incident(v):
            c = coloring.color_of(eid)
            if c in seen:
                return False
            seen.add(c)
    return True


def _feasible_search(
    x: Multigraph, budget: Optional[int]
) -> Tuple[Optional[Dict[int, int]], int]:
    delta = x.max_valency()
    constrained = [v for v in x.vertices if x.valency(v) == delta]
    return solve_edge_coloring(
        x, delta, constrained_vertices=constrained, symmetric=True, budget=budget
    )


def find_edge_feasible(
    x: Multigraph, *, budget: Optional[int] = None
) -> Optional[EdgeColoring]:
    """Search for an edge-feasible coloring; None after exhaustion.

    Enforces distinctness only at maximum-valency vertices, which is
    exactly the edge-feasibility constraint.
    """
    delta = x.max_valency()
    if delta % 2 == 0:
        raise GraphError(f"edge-feasibility is defined for odd maximum valency, got {delta}")
    assignment, _ = _feasible_search(x, budget)
    if assignment is None:
        return None
    return EdgeColoring(assignment, delta)


# ---- the order D-1 constituent ---- #

def color_delta_minus_one(
    pendant_colors: Sequence[int], palette: int
) -> Dict[Tuple[int, int], int]:
    """Color the complete constituent on a cluster of size palette-1.

    pendant_colors lists the pendant color at each cluster position.
    Returns a color for every position pair.  Strategy: sort the colors
    into a multiplicity sequence s_1 <= ... <= s_t (ties by color
    index); put one end of the most frequent color at the scheme hub,
    lay the rest in ascending blocks around the cycle, give the class
    anchored inside block i (i <= t-2) that block's color, hand the
    remaining classes the non-pendant colors, then repair the conflict
    edges (color equal to a pendant at an endpoint) by alternating the
    two reserved colors c(t-1), c(t) along each conflict path.
    """
    m = len(pendant_colors)
    if m != palette - 1:
        raise GraphError(f"cluster of size {m} is not palette - 1 = {palette - 1}")
    if palette % 2 == 0 or palette < 3:
        raise GraphError(f"this constituent case needs an odd palette >= 3, got {palette}")
    for c in pendant_colors:
        if not 0 <= c < palette:
            raise GraphError(f"pendant color {c} outside palette of {palette}")
    a = m - 1  # cycle length, odd
    mult: Dict[int, int] = {}
    for c in pendant_colors:
        mult[c] = mult.get(c, 0) + 1
    sequence = sorted(mult.items(), key=lambda kv: (kv[1], kv[0]))  # (color, count)
    seq_colors = [c for c, _ in sequence]
    seq_sizes = [s for _, s in sequence]
    t = len(sequence)
    c_last = seq_colors[-1]
    c_prev = seq_colors[-2] if t >= 2 else None

    # Scheme labels: hub 0 is the first position carrying c(t); cycle
    # labels 1..a hold the blocks of c(1)..c(t-1) and then the rest of
    # c(t), each block in ascending position order.
    positions_by_color: Dict[int, List[int]] = {c: [] for c in seq_colors}
    for pos, c in enumerate(pendant_colors):
        positions_by_color[c].append(pos)
    hub_pos = positions_by_color[c_last][0]
    label_to_pos: List[int] = [hub_pos]
    for c in seq_colors[:-1]:
        label_to_pos.extend(positions_by_color[c])
    label_to_pos.extend(positions_by_color[c_last][1:])
    if len(label_to_pos) != m:
        raise AssertionError("block layout lost a position")
    pend_at_label = [pendant_colors[p] for p in label_to_pos]

    class_color: Dict[int, int] = {}
    n_classes = scheme_class_count(m)  # = a
    if t <= 2:
        avoid = {c_last} if c_prev is None else {c_prev, c_last}
        free = [c for c in range(palette) if c not in avoid]
        for idx in range(n_classes):
            class_color[idx] = free[idx]
    else:
        inv2 = (a + 1) // 2
        taken: set = set()
        b = 1
        for i in range(t - 2):
            s = seq_sizes[i]
            sigma = (2 * b + s) % a if s % 2 == 1 else (2 * b + s - 1) % a
            idx = ((sigma - 2) * inv2) % a
            if idx in taken:
                raise AssertionError("two blocks claimed the same class")
            taken.add(idx)
            class_color[idx] = seq_colors[i]
            b += s
        rest_colors = sorted(set(range(palette)) - set(seq_colors))
        free_classes = [idx for idx in range(n_classes) if idx not in taken]
        if len(rest_colors) != len(free_classes):
            raise AssertionError("class/color accounting is off")
        for idx, c in zip(free_classes, rest_colors):
            class_color[idx] = c

    edge_color: Dict[Tuple[int, int], int] = {}
    for idx in range(n_classes):
        for pair in scheme_class(m, idx):
            edge_color[pair] = class_color[idx]

    # Literal conflict scan: an edge clashing with a pendant at either
    # endpoint.  The construction guarantees these form disjoint paths
    # with at most one c(t-1)-pendant terminal each; assert all of it.
    conflicts = [
        pair
        for pair, c in edge_color.items()
        if c == pend_at_label[pair[0]] or c == pend_at_label[pair[1]]
    ]
    if conflicts:
        if t <= 2:
            raise AssertionError("conflicts cannot arise when t <= 2")
        adj: Dict[int, List[Tuple[int, int]]] = {}
        for pair in conflicts:
            adj.setdefault(pair[0], []).append(pair)
            adj.setdefault(pair[1], []).append(pair)
        if any(len(es) > 2 for es in adj.values()):
            raise AssertionError("conflict subgraph has a vertex of degree > 2")
        seen: set = set()
        for start_pair in sorted(conflicts):
            if start_pair in seen:
                continue
            # Collect this component's edges, then check path shape.
            comp_edges = {start_pair}
            frontier = [start_pair]
            while frontier:
                e = frontier.pop()
                for lbl in e:
                    for nxt in adj[lbl]:
                        if nxt not in comp_edges:
                            comp_edges.add(nxt)
                            frontier.append(nxt)
            seen |= comp_edges
            degree: Dict[int, int] = {}
            for e in comp_edges:
                for lbl in e:
                    degree[lbl] = degree.get(lbl, 0) + 1
            ends = sorted(lbl for lbl, dg in degree.items() if dg == 1)
            if len(ends) != 2 or len(comp_edges) != len(degree) - 1:
                raise AssertionError("conflict component is not a path")
            prev_pendants = [lbl for lbl in ends if pend_at_label[lbl] == c_prev]
            if len(prev_pendants) > 1:
                raise AssertionError("both path terminals demand the reserved color")
            if prev_pendants:
                startv = prev_pendants[0]
                first = c_last
            else:
                startv = ends[0]
                first = c_prev
            cur = startv
            color_now = first
            walked: set = set()
            while True:
                nxt_edges = [e for e in adj[cur] if e in comp_edges and e not in walked]
                if not nxt_edges:
                    break
                e = nxt_edges[0]
                edge_color[e] = color_now
                walked.add(e)
                cur = e[0] if e[1] == cur else e[1]
                color_now = c_last if color_now == c_prev else c_prev

    # Final local check before translating back to positions.
    at_label: Dict[int, set] = {lbl: {pend_at_label[lbl]} for lbl in range(m)}
    for (p, q), c in edge_color.items():
        if c in at_label[p] or c in at_label[q]:
            raise AssertionError("constituent coloring clashes after repair")
        at_label[p].add(c)
        at_label[q].add(c)

    return {
        tuple(sorted((label_to_pos[p], label_to_pos[q]))): c
        for (p, q), c in edge_color.items()
    }


# ---- the full construction ---- #

def color_complete_truncation(
    x: Multigraph, *, budget: Optional[int] = None
) -> Union[Tuple[Truncation, EdgeColoring], ClassIIWitness]:
    """Color the complete truncation of x with exactly max-valency colors.

    Returns the truncation and coloring, or a ClassIIWitness when the
    maximum valency is odd and no edge-feasible coloring of x exists
    (then no such coloring of the truncation exists either).
    """
    tr = complete_truncation(x)
    delta = x.max_valency()
    if delta % 2 == 0:
        # Even D: the matching takes color 0 and each cluster gets the
        # canonical classes shifted into 1..D-1.
        def pair_color(v: int) -> Dict[Tuple[int, int], int]:
            size = len(tr.clusters[v])
            shift = size % 2
            return {
                (i, j): 1 + class_of_pair(size, (i + shift, j + shift))
                for i, j in tr.constituents[v]
            }

        return tr, tr.color(dict.fromkeys(tr.matching, 0), pair_color, delta)

    feas, nodes = _feasible_search(x, budget)
    if feas is None:
        return ClassIIWitness(
            delta=delta,
            nodes=nodes,
            reason=(
                "exhaustive search found no coloring with all colors distinct "
                f"at valency-{delta} vertices; the complete truncation needs "
                f"{delta + 1} colors"
            ),
        )

    def pair_color(v: int) -> Dict[Tuple[int, int], int]:
        pend = [feas[end // 2] for end in tr.clusters[v]]
        size = len(pend)
        if size == delta:
            # All pendant colors distinct: align each end with the
            # scheme vertex missing exactly its pendant color.
            return {
                (i, j): class_of_pair(size, (pend[i] + 1, pend[j] + 1))
                for i, j in tr.constituents[v]
            }
        # Pad smaller clusters to D-1 positions with dummy pendant
        # color 0; restricting to the real positions stays proper.
        return color_delta_minus_one(pend + [0] * (delta - 1 - size), delta)

    return tr, tr.color(feas, pair_color, delta)


def subtruncation_coloring(
    x: Multigraph,
    tr: Truncation,
    *,
    budget: Optional[int] = None,
    assume_class_one: bool = False,
) -> EdgeColoring:
    """Color any truncation of a class I source with max-valency colors.

    Every truncation embeds in the complete one, so the coloring is the
    restriction of color_complete_truncation's output.  The source must
    be class I and the truncation must preserve the maximum valency.
    """
    if tr.source.edges != x.edges or tr.source.vertices != x.vertices:
        raise GraphError("truncation was not built from the given source graph")
    delta = x.max_valency()
    if tr.graph.max_valency() != delta:
        raise GraphError(
            f"truncation has maximum valency {tr.graph.max_valency()}, source has {delta}"
        )
    if not assume_class_one:
        cap = max(x.size, 40)
        if classify(x, budget=budget, edge_cap=cap) != CLASS_I:
            raise GraphError("source graph is not class I")
    full = color_complete_truncation(x, budget=budget)
    if isinstance(full, ClassIIWitness):
        raise AssertionError("class I source yielded no complete-truncation coloring")
    comp, coloring = full

    def pair_color(v: int) -> Dict[Tuple[int, int], int]:
        ids = comp.constituent_edge_ids(v)
        return {pair: coloring.color_of(eid) for pair, eid in zip(comp.constituents[v], ids)}

    return tr.color(coloring.assignment, pair_color, delta)


def regular_odd_equivalence(
    x: Multigraph, *, budget: Optional[int] = None
) -> Tuple[bool, bool]:
    """Whether x and its complete truncation are class I; always equal.

    Both sides are decided by the exact oracle (edge caps sized to the
    instances); disagreement would falsify the construction and raises.
    """
    d = x.regular_valency()
    if d is None:
        raise GraphError("graph is not regular")
    if d % 2 == 0:
        raise GraphError(f"valency {d} is even; this equivalence needs odd valency")
    side_x = classify(x, budget=budget, edge_cap=max(x.size, 40))
    tr = complete_truncation(x)
    side_tr = classify(tr.graph, budget=budget, edge_cap=max(tr.graph.size, 40))
    if (side_x == CLASS_I) != (side_tr == CLASS_I):
        raise AssertionError("source and complete truncation disagree on class")
    return side_x == CLASS_I, side_tr == CLASS_I
