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
writers' ends, color_by_strong's per-constituent coloring) runs once
per distinct constituent.  Colorings are glued from one color list per
cluster, in constituent order, and checked cluster by cluster
(Truncation.first_cluster_clash runs coloring.cluster_clash once per
distinct cluster), as `verify` checks them.  Writers and `verify` read
the flat ends lazily from the clusters, one itemgetter per distinct
constituent (Truncation.flat_ends); the flat graph itself, built on
first access to Truncation.graph, serves only drawings, graph-level
checks and naming a clash the cluster check found, as a graph file's is.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, islice
from operator import itemgetter, lt
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

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


def _plain_pairs(pairs: Tuple[PositionPair, ...]) -> bool:
    """Whether pairs are tuples of plain ints, by two whole-list passes."""
    return set(map(type, pairs)) <= {tuple} and set(map(type, chain.from_iterable(pairs))) <= {int}


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
    The one check of constituent pairs: Truncation and the sun structure
    check, sun._check_constituent, both call it."""
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
        # One checked, sorted tuple per (value, cluster size), looked up
        # once per pairs object and size; by_id keeps each raw object
        # alive, so no id is reused while the memo lives.  A sorted value
        # claims its entry with one hash; a new entry is checked, or given
        # up for _normalize's pairs, and a value equal to a checked one
        # needs only plain types: (0, True) equals and hashes as (0, 1).
        by_id: Dict[Tuple[int, int], Tuple[object, Tuple[PositionPair, ...]]] = {}
        by_value: Dict[Tuple[Tuple[PositionPair, ...], int], Tuple[PositionPair, ...]] = {}
        for v, ends in self.clusters.items():
            size = len(ends)
            raw = constituents.get(v, ())
            key = (id(raw), size)
            if key not in by_id:
                pairs = tuple(raw)
                try:  # pairs that do not sort or hash go to _normalize
                    ordered = tuple(sorted(pairs))
                    shared = by_value.setdefault((ordered, size), ordered)
                    fresh = shared is ordered
                    ok = _ascending_and_simple(ordered, size) if fresh else _plain_pairs(pairs)
                except TypeError:
                    fresh = ok = False
                if not ok:
                    if fresh:
                        del by_value[(ordered, size)]
                    ordered = tuple(sorted(_normalize(f"constituent at vertex {v}", size, pairs)))
                    shared = by_value.setdefault((ordered, size), ordered)
                by_id[key] = (raw, shared)
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

    def flat_ends(self) -> Iterator[int]:
        """The flat graph's edge ends, u then v, in id order, read lazily
        from the clusters (the matching, then constituent edges in vertex
        order) by one itemgetter per distinct constituent tuple."""
        cons = self.constituents
        firsts = self.representatives().items()
        get = {key: itemgetter(*chain.from_iterable(cons[v])) for key, v in firsts if cons[v]}
        inner = (get[id(cons[v])](ends) for v, ends in self.clusters.items() if cons[v])
        return chain(chain.from_iterable(self.matching.values()), chain.from_iterable(inner))

    def flat_edges(self) -> Iterator[Tuple[int, int]]:
        """flat_ends in pairs, as iter(self.graph.edges.values()) gives them."""
        ends = self.flat_ends()
        return zip(ends, ends)

    @property
    def size(self) -> int:
        """The flat graph's edge count, read from the clusters."""
        return len(self.matching) + sum(map(len, self.constituents.values()))

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

    def pendant_colors(
        self, v: int, matching_colors: Mapping[int, int] | Sequence[int]
    ) -> List[int]:
        """Color of the matching edge at each position of v's cluster, read
        from matching_colors by source edge id (end 2e or 2e+1 is on e)."""
        return [matching_colors[end >> 1] for end in self.clusters[v]]

    def color(
        self,
        matching_colors: Mapping[int, int],
        pair_color: Callable[[int], Sequence[int]],
        palette: int,
    ) -> EdgeColoring:
        """Glue per-cluster colorings onto colored matching edges.

        matching_colors maps each source edge id to the color of its
        matching edge.  pair_color(v) lists the colors of v's constituent
        edges in the order of self.constituents[v]; it is called once per
        cluster with a nonempty constituent, one cluster at a time, and a
        list of another length raises GraphError naming v.  The result is
        checked by first_cluster_clash, the check `verify` runs too; a
        clash raises AssertionError naming the first clashing cluster by
        flat ids and end vertex.
        """
        # flat lists the colors by flat id, as first_cluster_clash reads
        # them; a gap in the source's edge ids stays 0 and is never read.
        # EdgeColoring builds its one dict from (id, color) pairs: the
        # matching's, then the constituent edges' in id order.
        ids = self.matching.keys()
        flat = [0] * (next(reversed(self.matching), -1) + 1)
        for eid in ids:
            flat[eid] = matching_colors[eid]
        start = len(flat)
        for v, pairs in self.constituents.items():
            if pairs:
                colors = pair_color(v)
                if len(colors) != len(pairs):
                    raise GraphError(f"cluster {v} has {len(pairs)} edges, {len(colors)} colors")
                flat.extend(colors)
        glued = zip(range(start, len(flat)), islice(flat, start, None))
        out = EdgeColoring(chain(zip(ids, map(flat.__getitem__, ids)), glued), palette)
        clash = self.first_cluster_clash(flat, palette)  # on colors EdgeColoring checked
        if clash is not None:
            raise _clash_error("truncation coloring", *clash)
        return out

    def first_cluster_clash(
        self, colors: Sequence[int], palette: int
    ) -> Optional[Tuple[int, int, int, int]]:
        """The first clash of a coloring in cluster order, as (end,
        earlier, later, color) with the edges by flat id, or None.

        colors lists each flat edge's color at its id: a source edge's
        id is its matching edge's, and a cluster's constituent edges
        hold the ids self._ids[v] in constituent order, so its colors
        are one slice, the list Truncation.color glued for it.  Colors
        are plain ints in range(palette).  An end meets only its
        matching edge and its cluster's constituent edges, so the
        coloring is proper on the flat graph exactly when no cluster
        clashes.  Each distinct cluster (constituent tuple, pendant
        colors, pair colors) is checked once by cluster_clash, a pure
        function of these.
        """
        # The constituent tuple goes into the key by id, which is stable:
        # self.constituents keeps every tuple alive.
        checked = set()
        for v, pairs in self.constituents.items():
            if not pairs:
                continue
            pendant = tuple(self.pendant_colors(v, colors))
            ids = self._ids[v]
            glued = tuple(colors[ids.start : ids.stop])
            key = (id(pairs), pendant, glued)
            if key in checked:
                continue
            checked.add(key)
            clash = cluster_clash(pendant, pairs, glued, palette)
            if clash is not None:
                # From sun graph ids to flat ids and the end vertex.
                p, e1, e2, c = clash
                end, r = self.clusters[v][p], len(self.clusters[v])
                earlier = end >> 1 if e1 < r else ids[e1 - r]
                return end, earlier, ids[e2 - r], c
        return None


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
