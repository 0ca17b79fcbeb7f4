"""Edge colorings, properness checking, and exact search.

first_clash checks a graph (for `verify`, is_proper and the oracle).
An end of a truncation meets only its matching edge and its cluster's
constituent edges, so truncation colorings and suns are checked one
cluster at a time by cluster_clash, with no flat graph.  Forests need
no search: one walk of _forest_coloring colors a forest, or finds the
cycle that shows it is none.

One backtracking kernel, solve_edge_coloring, serves three jobs: the
exact chromatic index oracle, list edge coloring, and the core searches
behind edge-feasible colorings (complete_coloring).

Set-up is one pass over the edges: endpoint pairs by edge index, the
edge indices at each vertex, a neighbor list per edge (edges sharing an
endpoint), and a static rank (decreasing endpoint valency sum, then edge
id).  The search keeps a bitmask of allowed colors per edge, always
branches on a most-constrained edge (fewest allowed colors by
int.bit_count, ties broken by the static rank), forward-checks
neighbors after every assignment, and, whenever no lists are given,
breaks color symmetry by allowing at most one fresh color per branch
point.  It runs on an explicit stack of frames (edge, colors left to
try, current color, neighbors it pruned), so its depth is bounded by
memory, not by the interpreter's recursion limit.  Exhausting the
search space is a proof of UNSAT; exhausting the node budget is
reported as undecided, never as an answer.

Every color class is a matching, so no palette below the overfull bound
ceil(|E| / floor(|V|/2)) fits: the kernel refutes one before any set-up,
and the oracle starts at max(D, that bound).  An overfull simple graph
needs no search at all: a Misra-Gries coloring with D + 1 colors is its
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import GraphError, UndecidedError
from .multigraph import Multigraph

__all__ = [
    "EdgeColoring",
    "OracleResult",
    "first_clash",
    "cluster_clash",
    "is_proper",
    "solve_edge_coloring",
    "chromatic_index",
    "CLASS_I",
    "CLASS_II",
    "list_edge_coloring",
    "DEFAULT_EDGE_CAP",
]

CLASS_I = "CLASS_I"
CLASS_II = "CLASS_II"

# Exact search is exponential in the worst case; refuse silently huge
# instances unless the caller raises the cap on purpose.
DEFAULT_EDGE_CAP = 40


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of palette colors {0..palette_size-1} to edge ids.

    assignment is given as a mapping or as (edge id, color) pairs, and
    kept as the one dict built from it: a mapping is copied, never
    shared, and pairs build it directly, with no throwaway dict.
    """

    assignment: Mapping[int, int]
    palette_size: int

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        if not _colors_fit(self.assignment.values(), self.palette_size):
            if type(self.palette_size) is not int or self.palette_size < 0:
                raise GraphError(f"palette size {self.palette_size!r} is not a nonnegative int")
            for eid, c in self.assignment.items():
                if type(c) is not int:
                    raise GraphError(f"edge {eid} has color {c!r}, not an int")
                if not 0 <= c < self.palette_size:
                    raise GraphError(
                        f"edge {eid} has color {c} outside palette of size {self.palette_size}"
                    )

    def color_of(self, eid: int) -> int:
        try:
            return self.assignment[eid]
        except KeyError:
            raise GraphError(f"no color assigned to edge {eid}") from None

    def used_colors(self) -> frozenset:
        return frozenset(self.assignment.values())


def _colors_fit(colors: Collection[object], palette: object) -> bool:
    """The color rules' accept test, by whole-list passes: palette is a
    nonnegative plain int and each color a plain int below it (no bool,
    no float).  On failure EdgeColoring names the first bad value."""
    return type(palette) is int and palette >= 0 and (
        not colors
        or (set(map(type, colors)) <= {int} and min(colors) >= 0 and max(colors) < palette)
    )


def first_clash(
    g: Multigraph, coloring: EdgeColoring | Mapping[int, int] | Sequence[int]
) -> Optional[Tuple[int, int, int]]:
    """(vertex, edge, edge) for the first two same-colored edges meeting
    at a vertex, or None.  coloring is an EdgeColoring or its colors by
    edge id, as a mapping or as a list (`verify` passes the parsed
    "colors" list); an uncolored edge is a GraphError."""
    colors = coloring.assignment if isinstance(coloring, EdgeColoring) else coloring
    for v in g.vertices:
        ids = g.incident(v)
        # From valency 6 up, one set pass costs less than the walk, which
        # then runs only to name a repeat or an uncolored edge; below 6
        # the walk alone is cheaper.
        try:
            if len(ids) > 5 and len(set(map(colors.__getitem__, ids))) == len(ids):
                continue
        except LookupError:
            pass
        seen: Dict[int, int] = {}
        for eid in ids:
            try:
                c = colors[eid]
            except LookupError:
                raise GraphError(f"no color assigned to edge {eid}") from None
            if c in seen:
                return (v, seen[c], eid)
            seen[c] = eid
    return None


def cluster_clash(
    pendant: Sequence[int],
    pairs: Sequence[Tuple[int, int]],
    colors: Sequence[int],
    palette: Optional[int] = None,
) -> Optional[Tuple[int, int, int, int]]:
    """The first clash inside one cluster of r positions, or None.

    pendant[p] is the color of the matching edge at position p; pairs
    are the constituent edges (loop-free position pairs), colors their
    nonnegative colors.  A clash is (position, earlier, later, color) in
    the ids of the cluster's sun graph, where the matching edge at p is
    p and pair k is r + k: later is the first pair whose color its
    position has already seen, earlier the edge that put it there.
    Unless the colors' palette is given and at most the cluster's edge
    count, they are renamed to dense ranks first, so no position's
    bitmask of colors grows wider than that count.
    """
    if palette is None or palette > len(pendant) + len(pairs):
        names = list(set(chain(pendant, colors)))
        rank = dict(zip(names, count())).__getitem__
        clash = cluster_clash([*map(rank, pendant)], pairs, [*map(rank, colors)], len(names))
        return None if clash is None else (*clash[:3], names[clash[3]])
    masks = [1 << c for c in pendant]
    for (a, b), c in zip(pairs, colors):
        bit = 1 << c
        if (masks[a] | masks[b]) & bit:
            p = a if masks[a] & bit else b
            # Sun graph ids of the edges with color c at p, in order.
            ids = [p] if pendant[p] == c else []
            ids += [k for k, e, d in zip(count(len(pendant)), pairs, colors) if d == c and p in e]
            return p, ids[0], ids[1], c
        masks[a] |= bit
        masks[b] |= bit
    return None


def is_proper(g: Multigraph, coloring: EdgeColoring) -> bool:
    """True iff no two edges sharing a vertex share a color.

    An uncolored edge that first_clash reaches before any clash is a
    GraphError rather than a False.
    """
    return first_clash(g, coloring) is None


def _forest_coloring(
    size: int, pairs: Sequence[Tuple[int, int]]
) -> Optional[Dict[Tuple[int, int], int]]:
    """Proper coloring of a forest on positions 0..size-1, or None when
    the pairs close a cycle.

    One root-down walk from each unreached position, ascending: a
    position gives its uncolored edges, by neighbor, the colors 0, 1,
    ... that skip the color of the edge it was reached by, so at most
    its valency many.  An uncolored edge to a position already reached
    closes a cycle.
    """
    adj: List[List[Tuple[int, Tuple[int, int]]]] = [[] for _ in range(size)]
    for pair in pairs:
        a, b = pair
        adj[a].append((b, pair))
        adj[b].append((a, pair))
    out: Dict[Tuple[int, int], int] = {}
    reached = [False] * size
    for root in range(size):
        if reached[root] or not adj[root]:
            continue
        reached[root] = True
        stack = [(root, -1)]
        while stack:
            v, parent_color = stack.pop()
            nxt = 0
            for w, pair in sorted(adj[v]):
                if pair in out:
                    continue
                if reached[w]:
                    return None
                if nxt == parent_color:
                    nxt += 1
                out[pair] = nxt
                reached[w] = True
                stack.append((w, nxt))
                nxt += 1
    return out


def _clash_error(what: str, v: int, e1: int, e2: int, color: int) -> AssertionError:
    """The error for an improper coloring: edges e1 and e2 share color at v."""
    return AssertionError(
        f"{what} is not proper: edges {e1} and {e2} share color {color} at vertex {v}"
    )


def _require_proper(g: Multigraph, coloring: EdgeColoring, what: str) -> None:
    """Raise the AssertionError naming g's first clash, if any."""
    clash = first_clash(g, coloring)
    if clash is not None:
        v, e1, e2 = clash
        raise _clash_error(what, v, e1, e2, coloring.assignment[e1])


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact chromatic index computation."""

    decided: bool
    chi: Optional[int]
    certificate: Optional[EdgeColoring]
    nodes: int
    lower_bound: int

    def classify(self, delta: int) -> str:
        if not self.decided:
            raise UndecidedError("chromatic index undecided", self.nodes)
        return CLASS_I if self.chi == delta else CLASS_II


def _overfull_bound(g: Multigraph) -> int:
    """ceil(size / floor(order / 2)), for a graph with at least one edge:
    a color class is a matching of at most floor(order / 2) edges,
    parallel edges or not, so no smaller palette fits."""
    return -(-g.size // (g.order // 2))


def solve_edge_coloring(
    g: Multigraph,
    k: int,
    *,
    lists: Optional[Mapping[int, int]] = None,
    budget: Optional[int] = None,
) -> Tuple[Optional[Dict[int, int]], int]:
    """Search for a proper assignment of colors < k to every edge.

    lists: optional per-edge allowed-color bitmasks (list coloring).
        Without lists every color is interchangeable, and the search
        breaks that symmetry.
    budget: maximum number of assignments tried before giving up.

    A palette below the overfull bound is refuted with no search.
    Returns (assignment or None, nodes spent).  Raises UndecidedError
    when the budget runs out first.
    """
    eids = sorted(g.edge_ids)
    m = len(eids)
    if m == 0:
        return {}, 0
    # The one check that lists cover every edge, before any refutation.
    if lists is not None:
        try:
            masks = [lists[eid] for eid in eids]
        except KeyError:
            missing = next(eid for eid in eids if eid not in lists)
            raise GraphError(f"no color list for edge {missing}") from None
    if k <= 0 or _overfull_bound(g) > k:
        return None, 0
    symmetric = lists is None
    full = (1 << k) - 1
    allowed = [full] * m if symmetric else list(map(full.__and__, masks))

    # One-pass set-up: endpoints by edge index, edge indices by vertex.
    pairs = g.edges
    ends = [pairs[eid] for eid in eids]
    incident: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for i, (u, w) in enumerate(ends):
        incident[u].append(i)
        incident[w].append(i)
    # Edges sharing an endpoint.  The edge itself and a parallel twin
    # may be listed twice: forward checking skips colored edges and
    # colors already struck, so repeats change nothing.
    neighbors = [incident[u] + incident[w] for u, w in ends]
    # Static tie-break rank: busiest endpoints first, then lower id.
    # Edge indices follow edge ids, and the sort is stable.
    load = [-len(incident[u]) - len(incident[w]) for u, w in ends]
    order = sorted(range(m), key=load.__getitem__)

    # Quick contradiction: an edge with an empty list.
    if not all(allowed):
        return None, 0

    color: List[int] = [-1] * m
    use_count: List[int] = [0] * k
    used = 0  # bitmask of colors on at least one edge
    nodes = 0

    def pick() -> int:
        """Uncolored edge with fewest allowed colors, lowest rank first.

        Every uncolored edge keeps at least one color (an emptied list
        ends the branch at once), so a single color cannot be beaten.
        """
        best = -1
        fewest = k + 1
        for i in order:
            if color[i] < 0:
                n = allowed[i].bit_count()
                if n < fewest:
                    if n == 1:
                        return i
                    best, fewest = i, n
        return best

    # Frames: [edge, colors still to try, color on the edge or -1,
    # neighbors whose lists lost that color].  With symmetry breaking
    # a frame may try the colors in use plus one fresh color, so the
    # first edge tries color 0 only.
    i = pick()
    stack: List[list] = [[i, (allowed[i] & 1) if symmetric else allowed[i], -1, None]]
    while stack:
        frame = stack[-1]
        i, mask, c, touched = frame
        if c >= 0:
            bit = 1 << c
            for j in touched:
                allowed[j] |= bit
            use_count[c] -= 1
            if not use_count[c]:
                used ^= bit
            color[i] = -1
        if not mask:
            stack.pop()
            continue
        bit = mask & -mask
        c = bit.bit_length() - 1
        nodes += 1
        if budget is not None and nodes > budget:
            raise UndecidedError(
                f"edge coloring search exceeded budget of {budget} nodes", nodes
            )
        color[i] = c
        if not use_count[c]:
            used |= bit
        use_count[c] += 1
        touched = []
        dead = False
        for j in neighbors[i]:
            if color[j] < 0 and allowed[j] & bit:
                allowed[j] ^= bit
                touched.append(j)
                if not allowed[j]:
                    dead = True
        frame[1] = mask ^ bit
        frame[2] = c
        frame[3] = touched
        if dead:
            continue
        j = pick()
        if j < 0:
            return {eid: color[i] for i, eid in enumerate(eids)}, nodes
        child = allowed[j]
        if symmetric:
            child &= (1 << (used.bit_length() + 1)) - 1
        stack.append([j, child, -1, None])
    return None, nodes


def _vizing_coloring(g: Multigraph) -> Dict[int, int]:
    """Proper coloring of a simple graph with max_valency + 1 colors.

    Misra and Gries' constructive proof of Vizing's theorem: each edge
    (u, v) is colored after inverting one two-colored path from u and
    rotating a fan of u's neighbors.  No search, O(|V||E|) steps.
    """
    k = g.max_valency() + 1
    at: Dict[int, Dict[int, int]] = {v: {} for v in g.vertices}  # color -> neighbor

    def paint(a: int, b: int, c: int) -> None:
        at[a][c] = b
        at[b][c] = a

    def color_of(a: int, b: int) -> int:
        return next(c for c, n in at[a].items() if n == b)

    def free(v: int) -> int:
        return next(c for c in range(k) if c not in at[v])

    for eid in sorted(g.edge_ids):
        u, v = g.endpoints(eid)
        # Maximal fan of u from v: each next neighbor's edge to u has a
        # color that is free on the previous fan member.
        fan = [v]
        while True:
            nxt = next(
                (n for c, n in at[u].items() if n not in fan and c not in at[fan[-1]]),
                None,
            )
            if nxt is None:
                break
            fan.append(nxt)
        c, d = free(u), free(fan[-1])
        # Invert the path from u whose edges alternate d, c, d, ...
        path = [u]
        step = d
        while step in at[path[-1]]:
            path.append(at[path[-1]][step])
            step = c if step == d else d
        steps = list(zip(path, path[1:]))
        old = [color_of(a, b) for a, b in steps]
        for (a, b), col in zip(steps, old):
            del at[a][col], at[b][col]
        for (a, b), col in zip(steps, old):
            paint(a, b, c if col == d else d)
        # d is now free on u.  The inversion recolored at most one fan
        # edge, from d to c, so the fan up to the first member with d
        # free is still a fan (Misra and Gries' lemma); rotate it and
        # give its last edge d.
        j = next(j for j, w in enumerate(fan) if d not in at[w])
        shifted = [color_of(u, n) for n in fan[1 : j + 1]] + [d]
        for n, col in zip(fan[1 : j + 1], shifted):
            del at[u][col], at[n][col]
        for n, col in zip(fan[: j + 1], shifted):
            paint(u, n, col)
    return {eid: color_of(*g.endpoints(eid)) for eid in g.edge_ids}


def chromatic_index(
    g: Multigraph,
    *,
    budget: Optional[int] = None,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> OracleResult:
    """Exact chromatic index with a certificate coloring.

    Tries palettes from the overfull bound max(max_valency,
    ceil(size / floor(order / 2))) up to max_valency + multiplicity
    (Vizing's bound), which always suffices.  An overfull simple graph
    needs no search: Vizing's theorem caps it at max_valency + 1.  The
    budget caps search nodes per palette size; running out yields an
    undecided result whose lower_bound is still trustworthy.
    """
    if g.size == 0:
        return OracleResult(True, 0, EdgeColoring({}, 0), 0, 0)
    if g.size > edge_cap:
        raise GraphError(
            f"graph has {g.size} edges, above the exact-search cap of {edge_cap}; "
            "pass a larger edge_cap to force the computation"
        )
    delta = g.max_valency()
    lo = max(delta, _overfull_bound(g))
    if lo > delta and g.is_simple():
        # Overfull and simple: chi' >= delta + 1 by counting, and
        # Vizing's theorem gives a coloring with delta + 1 colors.
        cert = EdgeColoring(_vizing_coloring(g), lo)
        _require_proper(g, cert, "Vizing coloring")
        return OracleResult(True, lo, cert, 0, lo)
    hi = delta + g.multiplicity()
    total_nodes = 0
    for k in range(lo, hi + 1):
        try:
            assignment, nodes = solve_edge_coloring(g, k, budget=budget)
        except UndecidedError as exc:
            return OracleResult(False, None, None, total_nodes + exc.nodes, k)
        total_nodes += nodes
        if assignment is not None:
            cert = EdgeColoring(assignment, k)
            _require_proper(g, cert, "oracle certificate")
            return OracleResult(True, k, cert, total_nodes, k)
    raise AssertionError(
        "no coloring found within the multiplicity bound; this cannot happen"
    )  # pragma: no cover


def list_edge_coloring(
    g: Multigraph,
    lists: Mapping[int, Iterable[int]],
    *,
    budget: Optional[int] = None,
) -> Optional[EdgeColoring]:
    """Proper coloring with each edge's color drawn from its own list.

    Returns None only after exhausting the whole search space (UNSAT).
    Lists must cover every edge of g; the kernel names an edge without
    one.
    """
    masks: Dict[int, int] = {}
    top = 0
    for eid in g.edge_ids:
        if eid not in lists:
            continue  # no mask: the kernel names the edge
        mask = 0
        for c in lists[eid]:
            if c < 0:
                raise GraphError(f"negative color {c} in list for edge {eid}")
            mask |= 1 << c
            top = max(top, c + 1)
        masks[eid] = mask
    if g.size == 0:
        return EdgeColoring({}, 0)
    assignment, _ = solve_edge_coloring(g, top, lists=masks, budget=budget)
    if assignment is None:
        return None
    return EdgeColoring(assignment, top)
