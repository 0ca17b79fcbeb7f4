"""Coloring complete truncations with exactly max-valency colors.

For even maximum valency every matching edge takes color 0 and each
cluster's complete constituent is colored canonically inside {1..D-1}.
For odd D the matching must carry an edge-feasible coloring of the
source (all colors distinct at D-valent vertices).  One exists exactly
when the core, the subgraph on the D-valent vertices, is D-colorable: an
edge outside the core has at most one D-valent end, and the colors free
there finish the coloring.  So only the core is searched.  Constituents
are then colored according to their order, each as a list in
constituent order.  Order D takes the missing-color alignment in closed
form.  Every smaller order s takes one rule: relabel the colors present,
pad with dummy pendants to order P-1 for the least odd palette P >= s+1,
color that by the D-1 lemma (each pair's canonical class in closed form
from its scheme labels, the conflict edges read off in O(P) at the
labels, one alternating walk along each conflict path), keep the real
positions, and map P back to the colors present, then the absent ones.
At s = D-1 this is the D-1 lemma itself, with no padding.  So each
constituent costs time linear in its size.  Without an edge-feasible
coloring the complete truncation provably needs D+1 colors, and a
`Refusal` with the exhausted search's node count is returned instead.
Checks run per cluster (cluster_clash).

`subtruncation_coloring` reads the same per-cluster rule on the clusters
of any truncation that keeps D, so it applies to every even-D source and
to every odd-D source with an edge-feasible coloring; like the full
construction, it builds no flat graph (nor the complete truncation).
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, combinations, cycle, islice
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .canonical import class_of_pair
from .coloring import EdgeColoring, _clash_error, cluster_clash, solve_edge_coloring
from .errors import GraphError, Refusal
from .multigraph import Multigraph
from .truncation import Truncation, complete_truncation

__all__ = [
    "is_edge_feasible",
    "find_edge_feasible",
    "color_complete_truncation",
    "color_delta_minus_one",
    "subtruncation_coloring",
]


# bench/workloads.py still imports this name; ROADMAP item 1's bench
# change deletes it.
ClassIIWitness = Refusal


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
    color = coloring.color_of
    ids_at = map(x.incident, x.vertices)
    return all(len(set(map(color, ids))) == delta for ids in ids_at if len(ids) == delta)


def _feasible_search(x: Multigraph, budget: Optional[int]) -> Tuple[Optional[Dict[int, int]], int]:
    """(edge-feasible coloring of x or None, nodes) from a search of the
    core.  Each core vertex gives its free colors, ascending, to its other
    edges in id order; edges with no max-valency end take 0."""
    delta = x.max_valency()
    core = [v for v in x.vertices if x.valency(v) == delta]
    in_core = set(core)
    pairs = x.edges
    core_edges = {eid: pairs[eid] for eid in pairs if in_core.issuperset(pairs[eid])}
    found, nodes = solve_edge_coloring(Multigraph(core, core_edges), delta, budget=budget)
    if found is None:
        return None, nodes
    assignment = dict.fromkeys(pairs, 0)
    assignment.update(found)
    for v in core:
        ids = x.incident(v)
        free = iter(sorted(set(range(delta)).difference(map(found.get, ids))))
        for eid in ids:
            if eid not in found:
                assignment[eid] = next(free)
    return assignment, nodes


def find_edge_feasible(
    x: Multigraph, *, budget: Optional[int] = None
) -> Optional[EdgeColoring]:
    """Search for an edge-feasible coloring; None after exhaustion.

    Searches only the core, the subgraph induced by the maximum-valency
    vertices, and completes its coloring with the free colors.
    """
    delta = x.max_valency()
    if delta % 2 == 0:
        raise GraphError(f"edge-feasibility is defined for odd maximum valency, got {delta}")
    assignment, _ = _feasible_search(x, budget)
    if assignment is None:
        return None
    return EdgeColoring(assignment, delta)


# ---- the order D-1 constituent ---- #

def color_delta_minus_one(pendant_colors: Sequence[int], palette: int) -> List[int]:
    """Color the complete constituent on a cluster of size palette-1.

    pendant_colors lists the pendant color at each position; returns the
    position pairs' colors in combinations order.  Sort the colors into
    multiplicities s_1 <= ... <= s_t (ties by color); one end of the
    most frequent goes to the scheme hub, the rest in ascending blocks
    around the cycle.  The class anchored inside block i (i <= t-2)
    takes that block's color, the other classes the absent colors (for
    t = 1 one is left over); a pair's class is class_of_pair's closed
    form on its labels.  The conflict edges (color equal to a pendant at
    an endpoint), found in O(m), form paths; one walk along each
    recolors it alternately with the reserved colors c(t-1), c(t), from
    c(t) at a c(t-1) end.
    """
    m = len(pendant_colors)
    if m != palette - 1:
        raise GraphError(f"cluster of size {m} is not palette - 1 = {palette - 1}")
    if palette % 2 == 0 or palette < 3:
        raise GraphError(f"this constituent case needs an odd palette >= 3, got {palette}")
    mult = Counter(pendant_colors)
    for c in mult:
        if not 0 <= c < palette:
            raise GraphError(f"pendant color {c} outside palette of {palette}")
    sequence = sorted(mult.items(), key=lambda kv: (kv[1], kv[0]))  # (color, count)
    t = len(sequence)
    c_last = sequence[-1][0]
    c_prev = sequence[-2][0] if t >= 2 else None

    # Scheme labels: a stable sort by rank lays out the blocks of
    # c(1)..c(t), each in ascending position order; then the first
    # position carrying c(t) moves to the hub, label 0.
    rank = {c: i for i, (c, _) in enumerate(sequence)}
    label_to_pos = sorted(range(m), key=lambda p: rank[pendant_colors[p]])
    label_to_pos.insert(0, label_to_pos.pop(m - sequence[-1][1]))
    if len(label_to_pos) != m:
        raise AssertionError("block layout lost a position")
    pend = [pendant_colors[p] for p in label_to_pos]  # by label

    # The block on labels b..b+s-1 takes the class of the cycle edge
    # (lo, lo + 1) at its middle, lo rounded down.
    class_color: Dict[int, int] = {}
    b = 1
    for c, s in sequence[: t - 2]:
        lo = b + (s - 1) // 2
        idx = class_of_pair(m, (lo, lo + 1))
        if idx in class_color:
            raise AssertionError("two blocks claimed the same class")
        class_color[idx] = c
        b += s
    rest = sorted(set(range(palette)) - mult.keys())
    free_classes = [idx for idx in range(m - 1) if idx not in class_color]
    if len(rest) != len(free_classes) + (t == 1):
        raise AssertionError("class/color accounting is off")
    class_color.update(zip(free_classes, rest))

    # Class t is the hub edge (0, 1+t) and the chords with label sum 2+2t
    # modulo mod = m-1.  A conflict edge is, at a label, its edge in the
    # class of its pendant color.  The construction guarantees disjoint
    # paths with at most one c(t-1)-pendant terminal each; assert it all.
    mod = m - 1
    class_of = {c: idx for idx, c in class_color.items()}
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for p, idx in enumerate(map(class_of.get, pend)):
        if idx is not None:
            q = 1 + idx if p == 0 else 0 if p == 1 + idx else (1 + 2 * idx - p) % mod + 1
            e = (p, q) if p < q else (q, p)
            if e not in adj.get(p, ()):  # not already found at q
                adj.setdefault(p, []).append(e)
                adj.setdefault(q, []).append(e)
    if adj and t <= 2:
        raise AssertionError("conflicts cannot arise when t <= 2")
    if any(len(es) > 2 for es in adj.values()):
        raise AssertionError("conflict subgraph has a vertex of degree > 2")
    # Walk each path from its lower terminal, leaving each inner label by its
    # other edge and dropping the labels passed; any left lie on cycles.
    repaired: Dict[Tuple[int, int], int] = {}
    for end in sorted(lbl for lbl, es in adj.items() if len(es) == 1):
        if end not in adj:
            continue
        e = adj.pop(end)[0]
        path = [e]
        cur = e[0] + e[1] - end
        while len(adj[cur]) == 2:
            es = adj.pop(cur)
            e = es[es[0] == e]
            path.append(e)
            cur = e[0] + e[1] - cur
        del adj[cur]
        terminals = (pend[end], pend[cur])
        if terminals == (c_prev, c_prev):
            raise AssertionError("both path terminals demand the reserved color")
        if terminals[1] == c_prev:
            path.reverse()
        colors = (c_last, c_prev) if c_prev in terminals else (c_prev, c_last)
        repaired.update(zip(path, cycle(colors)))
    if adj:
        raise AssertionError("conflict component is not a path")

    # By position pair: a hub edge (0, b) is in class b-1, a chord
    # (a, b) in class (a + b - 2) / 2 modulo mod; repaired edges over them.
    half = m // 2  # 1/2 modulo the odd mod
    lab = sorted(range(m), key=label_to_pos.__getitem__)  # label by position
    out = [
        class_color[lb - 1 if la == 0 else la - 1 if lb == 0 else (la + lb - 2) * half % mod]
        for la, lb in combinations(lab, 2)
    ]
    for (p, q), c in repaired.items():
        i, j = sorted((label_to_pos[p], label_to_pos[q]))
        out[i * (2 * m - i - 1) // 2 + j - i - 1] = c  # (i, j) in combinations order
    clash = cluster_clash(pendant_colors, tuple(combinations(range(m), 2)), out, palette)
    if clash is not None:
        raise _clash_error("constituent coloring after repair", *clash)
    return out


def _small_cluster_colors(
    pend: Sequence[int], palette: int, memo: Dict[Tuple[int, ...], List[int]]
) -> List[int]:
    """Color the complete constituent on a cluster of order s <= palette-1
    in time linear in its size, in combinations order.  Relabel the q
    pendant colors present, ascending, to 0..q-1, pad with dummy color 0
    to order P-1 for the least odd P >= s+1, color that as order P-1 in
    palette P, keep the real positions (still proper), and map P back to
    the colors present, then the absent ones ascending.  At s = palette-1
    (odd palette) nothing is padded and this is color_delta_minus_one.
    memo shares the padded coloring between clusters."""
    present = sorted(set(pend))
    label = {c: k for k, c in enumerate(present)}
    s = len(pend)
    small = s + 1 | 1
    padded = tuple(label[c] for c in pend) + (0,) * (small - 1 - s)
    if padded not in memo:
        memo[padded] = color_delta_minus_one(padded, small)
    full = memo[padded]
    # Row i of the padded pairs opens with the real (i, i+1)..(i, s-1).
    starts = accumulate(range(small - 2, 0, -1), initial=0)
    rows = (full[k : k + s - 1 - i] for i, k in enumerate(starts))
    absent = (c for c in range(palette) if c not in label)
    back = present + list(islice(absent, small - len(present)))
    return list(map(back.__getitem__, chain.from_iterable(rows)))


# ---- the full construction ---- #

def _complete_colors(
    tr: Truncation, budget: Optional[int]
) -> Union[Tuple[Dict[int, int], Callable], Refusal]:
    """The complete truncation's coloring rule, read on tr's clusters:
    (matching colors, pair_color) for Truncation.color with the source's
    maximum valency as palette, or a Refusal.  pair_color(v) lists the
    colors of v's constituent, whatever subgraph of the complete one it
    is, in constituent order."""
    delta = tr.source.max_valency()
    if delta % 2 == 0:
        # Even D: the matching takes color 0 and each cluster gets the
        # canonical classes shifted into 1..D-1.  Clusters that share a
        # constituent tuple (so a size) share one list.
        tables: Dict[int, List[int]] = {}

        def pair_color(v: int) -> List[int]:
            pairs = tr.constituents[v]
            if id(pairs) not in tables:
                size = len(tr.clusters[v])
                s = size % 2  # odd sizes take the names 1..size
                tables[id(pairs)] = [1 + class_of_pair(size, (i + s, j + s)) for i, j in pairs]
            return tables[id(pairs)]

        return dict.fromkeys(tr.matching, 0), pair_color

    feas, nodes = _feasible_search(tr.source, budget)
    if feas is None:
        reason = (
            "exhaustive search found no coloring with all colors distinct at "
            f"valency-{delta} vertices; the complete truncation needs {delta + 1} colors"
        )
        return Refusal(reason, nodes)

    # Clusters of order below D share colorings by the padded vector they
    # pass to color_delta_minus_one, whose length fixes the palette P.
    colorings: Dict[Tuple[int, ...], List[int]] = {}
    half = (delta + 1) // 2

    def pair_color(v: int) -> List[int]:
        pend = tr.pendant_colors(v, feas)
        pairs = tr.constituents[v]
        size = len(pend)
        if size == delta:
            # All pendant colors distinct: align each end with the
            # scheme vertex missing exactly its pendant color.  This is
            # class_of_pair(D, (a+1, b+1)) inlined: for odd D the chord
            # {a+1, b+1} has residue sum 2 + 2t, so t = (a + b) / 2 mod D.
            return [(pend[i] + pend[j]) * half % delta for i, j in pairs]
        full = _small_cluster_colors(pend, delta, colorings)
        if len(full) == len(pairs):  # the complete constituent itself
            return full
        return list(map(dict(zip(combinations(range(size), 2), full)).__getitem__, pairs))

    return feas, pair_color


def color_complete_truncation(
    x: Multigraph, *, budget: Optional[int] = None
) -> Union[Tuple[Truncation, EdgeColoring], Refusal]:
    """Color the complete truncation of x with exactly max-valency colors.

    Returns the truncation and coloring, or a Refusal when the maximum
    valency is odd and no edge-feasible coloring of x exists (then no
    such coloring of the truncation exists either).
    """
    tr = complete_truncation(x)
    rule = _complete_colors(tr, budget)
    if isinstance(rule, Refusal):
        return rule
    return tr, tr.color(*rule, x.max_valency())


def subtruncation_coloring(tr: Truncation, *, budget: Optional[int] = None) -> EdgeColoring:
    """Color a truncation with its source's max-valency colors.

    Every truncation embeds in the complete one, so the coloring is the
    restriction of color_complete_truncation's output, read cluster by
    cluster without building the complete truncation.  It applies when
    the truncation keeps the source's maximum valency D and the complete
    truncation is D-colorable: always for even D, and for odd D exactly
    when the source has an edge-feasible coloring (every class I source
    has one).  Otherwise raises GraphError with the Refusal's reason and
    the search nodes it spent, or UndecidedError if that search exceeds
    budget nodes.
    """
    delta = tr.source.max_valency()
    if tr.max_valency() != delta:
        raise GraphError(f"truncation has maximum valency {tr.max_valency()}, source has {delta}")
    rule = _complete_colors(tr, budget)
    if isinstance(rule, Refusal):
        raise GraphError(f"{rule.reason} ({rule.nodes} search nodes)")
    return tr.color(*rule, delta)
