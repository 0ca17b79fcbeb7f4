"""Generalized truncations of multigraphs.

Excision replaces every source edge by a labelled matching edge between
two fresh end vertices; the ends labelled with one source vertex form
its cluster.  Assemblage inserts an arbitrary simple graph (the
constituent) on each cluster.  The result is the truncation: a simple
graph on 2|E| vertices whose matching edges are in bijection with the
source edges, which is what contraction exploits to invert the process.

Within a cluster, ends are ordered by their source edge id; constituent
edges are given as pairs of these 0-based cluster positions.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .coloring import EdgeColoring, is_proper
from .errors import GraphError
from .multigraph import Multigraph

__all__ = [
    "Truncation",
    "excise",
    "assemble",
    "complete_truncation",
    "cyclic_truncation",
    "arboreal_truncation",
    "contract",
]

PositionPair = Tuple[int, int]


def _require_no_isolated(g: Multigraph) -> None:
    for v in g.vertices:
        if g.valency(v) == 0:
            raise GraphError(f"vertex {v} is isolated; truncation needs valency >= 1")


def excise(g: Multigraph) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, ...]]]:
    """Split every edge into two labelled ends.

    Edge with id e and sorted endpoints (u, w) yields end 2e at u and
    end 2e+1 at w.  Returns (matching, clusters): matching maps each
    source edge id to its end pair, clusters map each source vertex to
    its ends in ascending source edge order.
    """
    _require_no_isolated(g)
    matching: Dict[int, Tuple[int, int]] = {}
    clusters: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for eid in sorted(g.edge_ids):
        u, w = g.endpoints(eid)
        matching[eid] = (2 * eid, 2 * eid + 1)
        clusters[u].append(2 * eid)
        clusters[w].append(2 * eid + 1)
    return matching, {v: tuple(ends) for v, ends in clusters.items()}


class Truncation:
    """A source multigraph together with one constituent per cluster."""

    def __init__(self, source: Multigraph, constituents: Mapping[int, Iterable[PositionPair]]):
        _require_no_isolated(source)
        self.source = source
        self.matching, self.clusters = excise(source)
        cleaned: Dict[int, Tuple[PositionPair, ...]] = {}
        for v in constituents:
            if v not in self.clusters:
                raise GraphError(f"constituent given for unknown vertex {v}")
        for v, ends in self.clusters.items():
            size = len(ends)
            pairs: List[PositionPair] = []
            seen = set()
            for i, j in constituents.get(v, ()):
                if i == j:
                    raise GraphError(f"constituent at vertex {v} has a loop at position {i}")
                if not (0 <= i < size and 0 <= j < size):
                    raise GraphError(
                        f"constituent at vertex {v} uses position outside 0..{size - 1}"
                    )
                key = (min(i, j), max(i, j))
                if key in seen:
                    raise GraphError(
                        f"constituent at vertex {v} repeats edge {key}; constituents are simple"
                    )
                seen.add(key)
                pairs.append(key)
            cleaned[v] = tuple(sorted(pairs))
        self.constituents = cleaned
        self._flat: Optional[Multigraph] = None
        self._kinds: Dict[int, str] = {}
        self._constituent_edge_ids: Dict[int, Tuple[int, ...]] = {}

    # ---- flattened form ---- #

    @property
    def graph(self) -> Multigraph:
        """The truncation as a plain multigraph on end vertices.

        Matching edges keep their source edge ids; constituent edges get
        fresh ids above them, grouped by source vertex.
        """
        if self._flat is None:
            vertices = [e for pair in self.matching.values() for e in pair]
            edges: Dict[int, Tuple[int, int]] = {}
            kinds: Dict[int, str] = {}
            for eid, (a, b) in self.matching.items():
                edges[eid] = (a, b)
                kinds[eid] = "matching"
            nxt = max(self.matching) + 1 if self.matching else 0
            per_vertex: Dict[int, List[int]] = {}
            for v in sorted(self.clusters):
                ends = self.clusters[v]
                ids_here: List[int] = []
                for i, j in self.constituents[v]:
                    edges[nxt] = (ends[i], ends[j])
                    kinds[nxt] = "constituent"
                    ids_here.append(nxt)
                    nxt += 1
                per_vertex[v] = ids_here
            self._flat = Multigraph(vertices, edges)
            self._kinds = kinds
            self._constituent_edge_ids = {v: tuple(ids) for v, ids in per_vertex.items()}
        return self._flat

    def edge_kind(self, eid: int) -> str:
        self.graph
        try:
            return self._kinds[eid]
        except KeyError:
            raise GraphError(f"no edge with id {eid} in truncation") from None

    @property
    def matching_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.matching))

    def constituent_edge_ids(self, v: int) -> Tuple[int, ...]:
        """Flattened ids of v's constituent edges, in constituent order."""
        self.graph
        try:
            return self._constituent_edge_ids[v]
        except KeyError:
            raise GraphError(f"no vertex {v} in source graph") from None

    def color(
        self,
        matching_colors: Mapping[int, int],
        pair_color: Callable[[int], Mapping[PositionPair, int]],
        palette: int,
    ) -> EdgeColoring:
        """Glue per-cluster colorings onto colored matching edges.

        matching_colors maps each source edge id to the color of its
        matching edge.  pair_color(v) maps each constituent edge of v,
        as a position pair (i, j) with i < j, to its color; it is called
        once per cluster with a nonempty constituent, one cluster at a
        time.  Raises AssertionError if the result is not proper.
        """
        assignment = {eid: matching_colors[eid] for eid in self.matching}
        for v, pairs in self.constituents.items():
            if not pairs:
                continue
            colors = pair_color(v)
            for pair, eid in zip(pairs, self.constituent_edge_ids(v)):
                assignment[eid] = colors[pair]
        out = EdgeColoring(assignment, palette)
        if not is_proper(self.graph, out):
            raise AssertionError("truncation coloring is not proper")
        return out

    def sun(self, v: int) -> Multigraph:
        """Constituent of v plus its pendant matching edges.

        Edge ids agree with the flattened truncation, so colorings
        restrict without translation.
        """
        flat = self.graph
        if v not in self.clusters:
            raise GraphError(f"no vertex {v} in source graph")
        ids = list(self.constituent_edge_ids(v))
        for end in self.clusters[v]:
            ids.append(end // 2)
        return flat.edge_subgraph(ids)


def assemble(
    source: Multigraph, constituents: Mapping[int, Iterable[PositionPair]]
) -> Truncation:
    """Build a truncation from a source graph and constituent choices.

    Constituent edges are pairs of cluster positions; omitted vertices
    get empty constituents.
    """
    return Truncation(source, constituents)


def complete_truncation(g: Multigraph) -> Truncation:
    """Insert the complete graph on every cluster."""
    _require_no_isolated(g)
    cons = {
        v: [(i, j) for i in range(g.valency(v)) for j in range(i + 1, g.valency(v))]
        for v in g.vertices
    }
    return Truncation(g, cons)


def cyclic_truncation(
    g: Multigraph, cycle_orders: Optional[Mapping[int, Sequence[int]]] = None
) -> Truncation:
    """Insert a cycle on every cluster, giving a 3-valent truncation.

    cycle_orders maps a vertex to the sequence of cluster positions
    around its cycle; the default is ascending order.  Every valency
    must be at least 3 so the inserted graphs really are cycles.
    """
    _require_no_isolated(g)
    cons: Dict[int, List[PositionPair]] = {}
    for v in g.vertices:
        size = g.valency(v)
        if size < 3:
            raise GraphError(
                f"vertex {v} has valency {size}; cyclic truncation needs valency >= 3"
            )
        order = list(cycle_orders[v]) if cycle_orders and v in cycle_orders else list(range(size))
        if sorted(order) != list(range(size)):
            raise GraphError(
                f"cycle order at vertex {v} is not a permutation of 0..{size - 1}"
            )
        cons[v] = [(order[i], order[(i + 1) % size]) for i in range(size)]
    return Truncation(g, cons)


def _is_forest(size: int, pairs: Iterable[PositionPair]) -> bool:
    """Whether the pairs, over positions 0..size-1, close no cycle."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def arboreal_truncation(
    g: Multigraph, forests: Optional[Mapping[int, Iterable[PositionPair]]] = None
) -> Truncation:
    """Insert a forest on every cluster.

    The default forest is the path through the cluster in position
    order.  Supplied constituents are checked for acyclicity.
    """
    _require_no_isolated(g)
    cons: Dict[int, List[PositionPair]] = {}
    for v in g.vertices:
        size = g.valency(v)
        if forests and v in forests:
            pairs = [tuple(p) for p in forests[v]]
        else:
            pairs = [(i, i + 1) for i in range(size - 1)]
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise GraphError(
                    f"forest at vertex {v} uses position outside 0..{size - 1}"
                )
        if not _is_forest(size, pairs):
            raise GraphError(f"constituent at vertex {v} contains a cycle; not a forest")
        cons[v] = [(min(i, j), max(i, j)) for i, j in pairs]
    return Truncation(g, cons)


def contract(tr: Truncation, coloring: EdgeColoring) -> Tuple[Multigraph, EdgeColoring]:
    """Collapse constituents, keeping the matching edges' colors.

    The coloring must cover at least the matching edges.  Returns the
    source graph and the induced coloring of its edges; this inverts the
    truncation construction.
    """
    assignment = {eid: coloring.color_of(eid) for eid in tr.matching}
    return tr.source, EdgeColoring(assignment, coloring.palette_size)
