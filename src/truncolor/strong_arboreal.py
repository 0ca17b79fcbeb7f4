"""Sufficient class I condition via strong constituents; arboreal case.

A truncation whose maximum valency is D is class I whenever every
constituent touching a valency-D vertex is itself class I: those
constituents take D-1 colors, all others fit in D-1 colors as well
(their ends top out at D-2, so one extra color always suffices), and
the matching takes the remaining fresh color.  Forest constituents are
always class I, so arboreal truncations never fail this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .coloring import EdgeColoring, solve_edge_coloring
from .errors import GraphError
from .multigraph import Multigraph
from .truncation import Truncation, _is_forest, arboreal_truncation

__all__ = ["NotApplicable", "color_by_strong", "arboreal_is_class_one"]


@dataclass(frozen=True)
class NotApplicable:
    """A critical constituent is class II, so this route says nothing."""

    vertex: int
    delta: int
    reason: str


def _greedy_forest_colors(
    positions: Sequence[int], pairs: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], int]:
    """Root-down greedy: each edge dodges only its parent edge's color."""
    adj: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {p: [] for p in positions}
    for pair in pairs:
        a, b = pair
        adj[a].append((b, pair))
        adj[b].append((a, pair))
    out: Dict[Tuple[int, int], int] = {}
    seen: set = set()
    for root in sorted(positions):
        if root in seen or not adj[root]:
            continue
        stack: List[Tuple[int, int]] = [(root, -1)]
        seen.add(root)
        while stack:
            v, parent_color = stack.pop()
            nxt = 0
            for w, pair in sorted(adj[v]):
                if pair in out:
                    continue
                if nxt == parent_color:
                    nxt += 1
                out[pair] = nxt
                seen.add(w)
                stack.append((w, nxt))
                nxt += 1
    return out


def color_by_strong(
    tr: Truncation, *, budget: Optional[int] = None
) -> Union[EdgeColoring, NotApplicable]:
    """Color a truncation in max-valency colors via strong constituents.

    Each cluster's constituent is colored inside palette 1..D-1 (forest
    clusters greedily, the rest by exact search) and the matching takes
    color 0.  Clusters holding a valency-D end must be class I for the
    search to fit; when one is not, NotApplicable reports it.
    """
    flat = tr.graph
    delta = flat.max_valency()
    cluster_colors: Dict[int, Dict[Tuple[int, int], int]] = {}
    for v in sorted(tr.source.vertices):
        pairs = tr.constituents[v]
        if not pairs:
            continue
        cluster = tr.clusters[v]
        critical = any(flat.valency(end) == delta for end in cluster)
        if _is_forest(len(cluster), pairs):
            pair_color = _greedy_forest_colors(range(len(cluster)), pairs)
        else:
            ids = tr.constituent_edge_ids(v)
            sub = flat.edge_subgraph(ids)
            solved, _ = solve_edge_coloring(sub, delta - 1, budget=budget)
            if solved is None:
                if critical:
                    reason = (
                        f"constituent at source vertex {v} holds a valency-{delta} end "
                        f"but admits no {delta - 1}-coloring"
                    )
                    return NotApplicable(vertex=v, delta=delta, reason=reason)
                raise AssertionError(
                    f"constituent at {v} has max valency <= {delta - 2} "
                    f"yet refused {delta - 1} colors"
                )
            pair_color = {pair: solved[eid] for pair, eid in zip(pairs, ids)}
        cluster_colors[v] = {pair: c + 1 for pair, c in pair_color.items()}
    return tr.color(dict.fromkeys(tr.matching, 0), cluster_colors.__getitem__, max(delta, 1))


def arboreal_is_class_one(
    x: Multigraph,
    forests: Optional[Mapping[int, Sequence[Tuple[int, int]]]] = None,
    *,
    budget: Optional[int] = None,
) -> Tuple[Truncation, EdgeColoring]:
    """Build a forest-constituent truncation and color it optimally.

    Always succeeds: forests are class I, so the strong-constituent
    route applies unconditionally.
    """
    tr = arboreal_truncation(x, forests)
    out = color_by_strong(tr, budget=budget)
    if isinstance(out, NotApplicable):
        raise AssertionError(f"forest constituents reported class II: {out.reason}")
    return tr, out
