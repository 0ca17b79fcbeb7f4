"""Generalized truncations of multigraphs.

Excision replaces every source edge by a labelled matching edge between
two fresh end vertices; the ends labelled with one source vertex form
its cluster.  Assemblage inserts an arbitrary simple graph (the
constituent) on each cluster.  The result is the truncation: a simple
graph on 2|E| vertices whose matching edges are in bijection with the
source edges, which is what contraction exploits to invert the process.

Within a cluster, ends are ordered by their source edge id; constituent
edges are given as pairs of these 0-based cluster positions.  Only this
module maps positions to ends and edge ids.  Equal constituents on
clusters of one size share one checked tuple, so every pass that
depends only on the constituent (max_valency, the forest test, the
writers' lists, color_by_strong's per-constituent coloring) runs once
per distinct constituent.  Colorings are glued and
checked cluster by cluster (coloring.cluster_clash), each distinct
cluster once.  Writers read the flat edges straight from the clusters
(Truncation.flat_edges); the flat graph itself, built on first access
to Truncation.graph, serves only checks and drawings.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from operator import itemgetter, lt
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .coloring import EdgeColoring, _clash_error, _forest_coloring, cluster_clash
from .errors import GraphError
from .multigraph import Multigraph

__all__ = [
    "Truncation",
    "excise",
    "complete_truncation",
    "cyclic_truncation",
    "arboreal_truncation",
    "contract",
]

PositionPair = Tuple[int, int]


def excise(g: Multigraph) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, ...]]]:
    """Split every edge into two labelled ends.

    Edge with id e and sorted endpoints (u, w) yields end 2e at u and
    end 2e+1 at w.  Returns (matching, clusters): matching maps each
    source edge id to its end pair, clusters map each source vertex to
    its ends in ascending source edge order.
    """
    for v in g.vertices:
        if g.valency(v) == 0:
            raise GraphError(f"vertex {v} is isolated; truncation needs valency >= 1")
    matching: Dict[int, Tuple[int, int]] = {}
    clusters: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for eid, (u, w) in g.edges.items():
        matching[eid] = (2 * eid, 2 * eid + 1)
        clusters[u].append(2 * eid)
        clusters[w].append(2 * eid + 1)
    return matching, {v: tuple(ends) for v, ends in clusters.items()}


def _ascending_and_simple(pairs: Tuple[PositionPair, ...], size: int) -> bool:
    """Whether pairs are tuples (i, j) of plain ints with 0 <= i < j < size
    and no repeat, by whole-list passes.  Pairs that fail go to
    _normalize, which accepts or rejects them by its own walk."""
    if not pairs:
        return True
    if not (set(map(type, pairs)) <= {tuple} and set(map(len, pairs)) <= {2}):
        return False
    firsts = list(map(itemgetter(0), pairs))
    seconds = list(map(itemgetter(1), pairs))
    return (
        set(map(type, chain(firsts, seconds))) <= {int}
        and all(map(lt, firsts, seconds))
        and min(firsts) >= 0
        and max(seconds) < size
        and len(set(pairs)) == len(pairs)
    )


def _normalize(what: str, size: int, pairs: Iterable[PositionPair]) -> List[PositionPair]:
    """The pairs of a constituent on positions 0..size-1 as ascending
    tuples, or the GraphError, labelled by what, for the first pair that
    is not two plain ints, loop, out-of-range position or repeated edge.
    The one check of constituent pairs: Truncation and
    SunColoring.validate both call it."""
    out: List[PositionPair] = []
    seen = set()
    for n, pair in enumerate(pairs):
        two = type(pair) in (tuple, list) and len(pair) == 2
        if not (two and type(pair[0]) is type(pair[1]) is int):
            raise GraphError(f"{what}: pair {n} is not a pair of integers")
        i, j = pair
        if i == j:
            raise GraphError(f"{what} has a loop at position {i}")
        if not (0 <= i < size and 0 <= j < size):
            raise GraphError(f"{what} uses position outside 0..{size - 1}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"{what} repeats edge {key}; constituents are simple")
        seen.add(key)
        out.append(key)
    return out


class Truncation:
    """A source multigraph together with one constituent per cluster.

    Constituent edges are pairs of cluster positions; omitted vertices
    get empty constituents.  Each constituent is stored as a checked
    tuple of ascending pairs, one tuple object per (value, cluster
    size): clusters of one size with equal pairs share it, however the
    caller passed them, so a pass that depends only on the constituent
    runs once per id(pairs).  (The empty tuple is one object at every
    size; every such pass gives it the same answer at every size.)
    """

    def __init__(self, source: Multigraph, constituents: Mapping[int, Iterable[PositionPair]]):
        self.source = source
        self.matching, self.clusters = excise(source)
        for v in constituents:
            if v not in self.clusters:
                raise GraphError(f"constituent given for unknown vertex {v}")
        self.constituents: Dict[int, Tuple[PositionPair, ...]] = {}
        # Flat ids: matching edges keep their source edge ids, and each
        # cluster's constituent edges take the next block, in vertex order.
        self._ids: Dict[int, range] = {}
        nxt = next(reversed(self.matching), -1) + 1
        # One checked, sorted tuple per (value, cluster size).  Each pairs
        # object is checked once per cluster size (complete_truncation
        # passes one object per size); each entry keeps its raw object
        # alive, so no id is reused while the memo lives.  Checked pairs,
        # plain ints only, are then shared by value: checking first keeps
        # (0, True), which equals and hashes as (0, 1), from passing as it.
        by_id: Dict[Tuple[int, int], Tuple[object, Tuple[PositionPair, ...]]] = {}
        by_value: Dict[Tuple[Tuple[PositionPair, ...], int], Tuple[PositionPair, ...]] = {}
        for v, ends in self.clusters.items():
            size = len(ends)
            raw = constituents.get(v, ())
            key = (id(raw), size)
            if key not in by_id:
                pairs = tuple(raw)
                if not _ascending_and_simple(pairs, size):
                    pairs = _normalize(f"constituent at vertex {v}", size, pairs)
                ordered = tuple(sorted(pairs))
                by_id[key] = (raw, by_value.setdefault((ordered, size), ordered))
            self.constituents[v] = pairs = by_id[key][1]
            self._ids[v] = range(nxt, nxt + len(pairs))
            nxt += len(pairs)
        self._flat: Optional[Multigraph] = None

    # ---- flattened form ---- #

    @property
    def graph(self) -> Multigraph:
        """The truncation as a plain multigraph on end vertices, built on
        first access.  Matching edges keep their source edge ids;
        constituent edges take the ids above, grouped by source vertex.

        Built by Multigraph._trusted, without __init__'s checks, on what
        excise and __init__ have already established: ends ascend with
        their source edge ids, so the vertices come out sorted; within a
        cluster they ascend with position, and every constituent pair is
        (i, j) with 0 <= i < j < size and no repeat, so each flat pair
        is sorted and loop-free; ids ascend from the matching through
        the clusters in vertex order, so each end lists its matching
        edge, then its constituent edges in ascending id, as __init__
        would.
        """
        if self._flat is None:
            edges: Dict[int, Tuple[int, int]] = dict(self.matching)
            inc: Dict[int, List[int]] = {
                end: [end >> 1] for end in chain.from_iterable(self.matching.values())
            }
            for v, ends in self.clusters.items():
                at = [inc[end] for end in ends]
                for eid, (i, j) in zip(self._ids[v], self.constituents[v]):
                    edges[eid] = (ends[i], ends[j])
                    at[i].append(eid)
                    at[j].append(eid)
            incidence = {end: tuple(ids) for end, ids in inc.items()}
            self._flat = Multigraph._trusted(tuple(inc), edges, incidence)
        return self._flat

    def flat_edges(self) -> List[Tuple[int, int]]:
        """The flat graph's edges as (u, v) pairs in id order, read
        straight from the clusters without building the graph: the
        matching edges, then each cluster's constituent edges in vertex
        order, as list(self.graph.edges.values()) gives them.
        """
        edges: List[Tuple[int, int]] = list(self.matching.values())
        # Position columns once per constituent tuple, which the
        # clusters of a complete truncation share.
        columns: Dict[int, Tuple[List[int], List[int]]] = {}
        for v, ends in self.clusters.items():
            pairs = self.constituents[v]
            cols = columns.get(id(pairs))
            if cols is None:
                cols = columns[id(pairs)] = (
                    list(map(itemgetter(0), pairs)),
                    list(map(itemgetter(1), pairs)),
                )
            at = ends.__getitem__
            edges.extend(zip(map(at, cols[0]), map(at, cols[1])))
        return edges

    @property
    def matching_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.matching))

    def end_valencies(self, v: int) -> List[int]:
        """Valency in the flat graph of the end at each position of v's
        cluster: its matching edge plus its constituent edges."""
        degree = Counter(chain.from_iterable(self.constituents[v]))
        return [1 + degree[i] for i in range(len(self.clusters[v]))]

    def representatives(self) -> Dict[int, int]:
        """The first vertex, in vertex order, holding each distinct
        constituent tuple, keyed by the tuple's id.  A pass that depends
        only on the constituent runs on these vertices alone, and the
        first of them that fails is the first vertex that fails."""
        first: Dict[int, int] = {}
        for v, pairs in self.constituents.items():
            first.setdefault(id(pairs), v)
        return first

    def max_valency(self) -> int:
        """The flat graph's maximum valency, read from the constituents,
        once per distinct constituent tuple."""
        if not self.clusters:
            raise GraphError("max_valency of an empty graph is undefined")
        return max(max(self.end_valencies(v)) for v in self.representatives().values())

    def pendant_colors(self, v: int, matching_colors: Mapping[int, int]) -> List[int]:
        """Color of the matching edge at each position of v's cluster, read
        from matching_colors by source edge id (end 2e or 2e+1 is on e)."""
        return [matching_colors[end >> 1] for end in self.clusters[v]]

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
        time.  Each distinct cluster (constituent tuple, pendant colors,
        pair colors) is checked once by cluster_clash, a pure function
        of these; a clash raises AssertionError naming the first
        clashing cluster by flat ids and end vertex.
        """
        assignment = {eid: matching_colors[eid] for eid in self.matching}
        glued: List[Tuple[int, Tuple[int, ...]]] = []
        for v, pairs in self.constituents.items():
            if pairs:
                colors = tuple(map(pair_color(v).__getitem__, pairs))
                assignment.update(zip(self._ids[v], colors))
                glued.append((v, colors))
        out = EdgeColoring(assignment, palette)  # palette range first
        # The constituent tuple goes into the key by id, which is stable:
        # self.constituents keeps every tuple alive.
        checked = set()
        for v, colors in glued:
            pairs = self.constituents[v]
            pendant = tuple(self.pendant_colors(v, assignment))
            key = (id(pairs), pendant, colors)
            if key in checked:
                continue
            checked.add(key)
            clash = cluster_clash(pendant, pairs, colors)
            if clash is not None:
                # From sun graph ids to flat ids and the end vertex.
                p, e1, e2, c = clash
                end, r, ids = self.clusters[v][p], len(self.clusters[v]), self._ids[v]
                earlier = end >> 1 if e1 < r else ids[e1 - r]
                raise _clash_error("truncation coloring", end, earlier, ids[e2 - r], c)
        return out


def complete_truncation(g: Multigraph) -> Truncation:
    """Insert the complete graph on every cluster."""
    # Clusters of one size share one tuple of pairs.
    sizes = {v: g.valency(v) for v in g.vertices}
    pairs = {size: tuple(combinations(range(size), 2)) for size in set(sizes.values())}
    return Truncation(g, {v: pairs[size] for v, size in sizes.items()})


def cyclic_truncation(
    g: Multigraph, cycle_orders: Optional[Mapping[int, Sequence[int]]] = None
) -> Truncation:
    """Insert a cycle on every cluster, giving a 3-valent truncation.

    cycle_orders maps a vertex to the sequence of cluster positions
    around its cycle; the default is ascending order.  Every valency
    must be at least 3 so the inserted graphs really are cycles.
    """
    cycle_orders = cycle_orders or {}
    for v in cycle_orders:
        if v not in g:
            raise GraphError(f"constituent given for unknown vertex {v}")
    cons: Dict[int, List[PositionPair]] = {}
    for v in g.vertices:
        size = g.valency(v)
        if size < 3:
            raise GraphError(
                f"vertex {v} has valency {size}; cyclic truncation needs valency >= 3"
            )
        order = list(cycle_orders.get(v, range(size)))
        if sorted(order) != list(range(size)):
            raise GraphError(
                f"cycle order at vertex {v} is not a permutation of 0..{size - 1}"
            )
        # Ascending pairs pass Truncation's whole-list check as they are.
        cons[v] = [(a, b) if a < b else (b, a) for a, b in zip(order, order[1:] + order[:1])]
    return Truncation(g, cons)


def arboreal_truncation(
    g: Multigraph, forests: Optional[Mapping[int, Iterable[PositionPair]]] = None
) -> Truncation:
    """Insert a forest on every cluster.

    The default forest is the path through the cluster in position
    order.  Each distinct constituent is checked for acyclicity by one
    walk of the forest coloring (coloring._forest_coloring).
    """
    paths = {v: [(i, i + 1) for i in range(g.valency(v) - 1)] for v in g.vertices}
    tr = Truncation(g, {**paths, **(forests or {})})
    for v in tr.representatives().values():
        if _forest_coloring(len(tr.clusters[v]), tr.constituents[v]) is None:
            raise GraphError(f"constituent at vertex {v} contains a cycle; not a forest")
    return tr


def contract(tr: Truncation, coloring: EdgeColoring) -> Tuple[Multigraph, EdgeColoring]:
    """Collapse constituents, keeping the matching edges' colors.

    The coloring must cover at least the matching edges.  Returns the
    source graph and the induced coloring of its edges; this inverts the
    truncation construction.
    """
    assignment = {eid: coloring.color_of(eid) for eid in tr.matching}
    return tr.source, EdgeColoring(assignment, coloring.palette_size)
