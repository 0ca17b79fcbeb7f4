"""Undirected multigraphs with stable integer edge identities.

Parallel edges are allowed.  Every edge has an integer id that never
changes under deletion, so edge colorings keyed by id stay meaningful on
subgraphs.  Loops are rejected up front: the truncation constructions
need the two ends of every edge to sit at distinct vertices.
"""

from __future__ import annotations

from itertools import count
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import GraphError

__all__ = ["Multigraph"]


class Multigraph:
    """Immutable multigraph.

    Edges are stored as a map from edge id to a sorted vertex pair.
    Construction from a plain sequence of pairs assigns ids 0..m-1 in
    order, which is also how the JSON form is interpreted.
    """

    __slots__ = ("_vertices", "_edges", "_incidence")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Mapping[int, Tuple[int, int]] | Sequence[Tuple[int, int]],
    ):
        vset = set(vertices)
        # Pairs are read in id order without a list of (id, pair) items:
        # on a large flattening that list would be one more tuple per edge.
        if isinstance(edges, Mapping):
            eids: Iterable[int] = sorted(edges)
            pairs: Iterable[Tuple[int, int]] = map(edges.__getitem__, eids)
        else:
            eids, pairs = count(), edges
        norm: Dict[int, Tuple[int, int]] = {}
        inc: Dict[int, List[int]] = {v: [] for v in vset}
        for eid, (u, w) in zip(eids, pairs):
            if u == w:
                raise GraphError(f"edge {eid} is a loop at vertex {u}; loops are not supported")
            if u not in vset:
                raise GraphError(f"edge {eid} references unknown vertex {u}")
            if w not in vset:
                raise GraphError(f"edge {eid} references unknown vertex {w}")
            if u > w:
                u, w = w, u
            norm[eid] = (u, w)
            inc[u].append(eid)
            inc[w].append(eid)
        self._vertices: Tuple[int, ...] = tuple(sorted(vset))
        self._edges: Dict[int, Tuple[int, int]] = norm
        self._incidence: Dict[int, Tuple[int, ...]] = {v: tuple(ids) for v, ids in inc.items()}

    # ---- basic accessors ---- #

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(self._edges)

    @property
    def edges(self) -> Mapping[int, Tuple[int, int]]:
        """Read-only view of the edge map, in ascending id order."""
        return MappingProxyType(self._edges)

    @property
    def order(self) -> int:
        return len(self._vertices)

    @property
    def size(self) -> int:
        return len(self._edges)

    def endpoints(self, eid: int) -> Tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"no edge with id {eid}") from None

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.endpoints(eid)
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {eid}")

    def incident(self, v: int) -> Tuple[int, ...]:
        try:
            return self._incidence[v]
        except KeyError:
            raise GraphError(f"no vertex {v} in graph") from None

    def valency(self, v: int) -> int:
        return len(self.incident(v))

    def max_valency(self) -> int:
        if not self._vertices:
            raise GraphError("max_valency of an empty graph is undefined")
        return max(len(ids) for ids in self._incidence.values())

    def multiplicity(self) -> int:
        """Largest number of parallel edges sharing one vertex pair."""
        if not self._edges:
            return 0
        counts: Dict[Tuple[int, int], int] = {}
        for pair in self._edges.values():
            counts[pair] = counts.get(pair, 0) + 1
        return max(counts.values())

    def is_simple(self) -> bool:
        return self.multiplicity() <= 1

    def regular_valency(self) -> int | None:
        """The common valency if the graph is regular, else None."""
        if not self._vertices:
            return None
        vals = {len(ids) for ids in self._incidence.values()}
        return vals.pop() if len(vals) == 1 else None

    def __contains__(self, v: int) -> bool:
        return v in self._incidence

    def __repr__(self) -> str:
        return f"Multigraph(order={self.order}, size={self.size})"

    # ---- derived structure ---- #

    def components(self) -> List[frozenset]:
        """Connected components as vertex sets; isolated vertices count."""
        seen: set = set()
        out: List[frozenset] = []
        for root in self._vertices:
            if root not in seen:
                comp = self._reach(root)
                seen |= comp
                out.append(frozenset(comp))
        return out

    def _reach(self, root: int) -> set:
        """The vertices of root's component, by one search from root."""
        comp = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for eid in self._incidence[v]:
                w = self.other_end(eid, v)
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        return comp

    def bridges(self) -> frozenset:
        """Edge ids whose removal disconnects their component.

        Iterative lowpoint computation.  A parallel edge is never a
        bridge: only the tree edge's own id is skipped when looking back
        to the parent, so its twin acts as a back edge.
        """
        disc: Dict[int, int] = {}
        low: Dict[int, int] = {}
        out: set = set()
        clock = 0
        for root in self._vertices:
            if root in disc:
                continue
            disc[root] = low[root] = clock
            clock += 1
            # frames: (vertex, edge id used to enter, iterator over incident ids)
            stack: List[Tuple[int, int | None, Iterator[int]]] = [
                (root, None, iter(self._incidence[root]))
            ]
            while stack:
                v, entry, it = stack[-1]
                advanced = False
                for eid in it:
                    if eid == entry:
                        continue
                    w = self.other_end(eid, v)
                    if w not in disc:
                        disc[w] = low[w] = clock
                        clock += 1
                        stack.append((w, eid, iter(self._incidence[w])))
                        advanced = True
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                if not advanced:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                        if low[v] > disc[parent]:
                            out.add(entry)
        return frozenset(out)

    def euler_tour(self, root: int) -> Tuple[int, ...]:
        """Closed trail through every edge of root's component.

        Requires every vertex in that component to have even valency.
        Returns edge ids in traversal order; empty if root is isolated.
        """
        if root not in self._incidence:
            raise GraphError(f"no vertex {root} in graph")
        comp = self._reach(root)
        for v in comp:
            if len(self._incidence[v]) % 2 != 0:
                raise GraphError(
                    f"euler tour impossible: vertex {v} has odd valency {len(self._incidence[v])}"
                )
        comp_edges = sum(len(self._incidence[v]) for v in comp) // 2
        if comp_edges == 0:
            return ()
        # Hierholzer, iterative.
        ptr = {v: 0 for v in comp}
        used: set = set()
        path: List[Tuple[int, int | None]] = [(root, None)]
        circuit: List[int] = []
        while path:
            v, via = path[-1]
            moved = False
            inc = self._incidence[v]
            while ptr[v] < len(inc):
                eid = inc[ptr[v]]
                ptr[v] += 1
                if eid in used:
                    continue
                used.add(eid)
                path.append((self.other_end(eid, v), eid))
                moved = True
                break
            if not moved:
                path.pop()
                if via is not None:
                    circuit.append(via)
        circuit.reverse()
        if len(circuit) != comp_edges:
            raise GraphError("euler tour failed to cover the component")  # pragma: no cover
        return tuple(circuit)

    # ---- subgraph operations ---- #

    def without_edges(self, eids: Iterable[int]) -> "Multigraph":
        """Same vertex set, listed edges removed.  Ids are preserved."""
        drop = set(eids)
        for eid in drop:
            if eid not in self._edges:
                raise GraphError(f"no edge with id {eid}")
        kept = {eid: pair for eid, pair in self._edges.items() if eid not in drop}
        return Multigraph(self._vertices, kept)
