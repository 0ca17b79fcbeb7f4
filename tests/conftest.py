import random
from typing import Dict, Iterable, List, Optional, Tuple

import pytest

from truncolor.canonical import class_of_pair, complete_graph
from truncolor.coloring import CLASS_I, EdgeColoring, chromatic_index
from truncolor.errors import GraphError
from truncolor.multigraph import Multigraph
from truncolor.truncation import Truncation, complete_truncation


def random_multigraph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 10,
    min_edges: int = 1,
    allow_parallel: bool = True,
) -> Multigraph:
    """Small connected-or-not multigraph with no isolated vertices."""
    n = rng.randint(2, max_vertices)
    m = rng.randint(min_edges, max_edges)
    pairs: List[Tuple[int, int]] = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        if not allow_parallel and (min(u, v), max(u, v)) in {
            (min(a, b), max(a, b)) for a, b in pairs
        }:
            continue
        pairs.append((u, v))
    vertices = sorted({v for pair in pairs for v in pair})
    return Multigraph(vertices, pairs)


def prism_graph(n: int) -> Multigraph:
    """Cubic prism C_n x K2: two n-cycles joined by a perfect matching,
    3n edges."""
    ring = lambda off: [(off + i, off + (i + 1) % n) for i in range(n)]
    return Multigraph(range(2 * n), ring(0) + ring(n) + [(i, n + i) for i in range(n)])


def disjoint_union(*graphs: Multigraph) -> Multigraph:
    """The graphs side by side, each shifted past the previous one's
    vertex ids; edge ids follow in the same order."""
    vertices: List[int] = []
    pairs: List[Tuple[int, int]] = []
    for g in graphs:
        off = max(vertices) + 1 if vertices else 0
        vertices.extend(v + off for v in g.vertices)
        pairs.extend((u + off, w + off) for u, w in (g.endpoints(e) for e in g.edge_ids))
    return Multigraph(vertices, pairs)


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Multigraph:
    return Multigraph(range(n), [(i, i + 1) for i in range(n - 1)])


def scheme_class_count(n: int) -> int:
    """The number of classes of the order-n canonical scheme: n-1 perfect
    matchings for even n, n near-perfect ones for odd n."""
    return n - 1 if n % 2 == 0 else n


def doubled_triangle() -> Multigraph:
    return Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])


def constituent_edge_ids(tr: Truncation, v: int) -> Tuple[int, ...]:
    """Flattened ids of v's constituent edges, in constituent order:
    they follow the matching's ids, one block per source vertex in
    vertex order."""
    nxt = max(tr.matching, default=-1) + 1
    for u, pairs in tr.constituents.items():
        if u == v:
            return tuple(range(nxt, nxt + len(pairs)))
        nxt += len(pairs)
    raise GraphError(f"no vertex {v} in source graph")


def canonical_coloring(n: int) -> EdgeColoring:
    """Proper edge coloring of complete_graph(n) from the scheme classes.

    Uses n-1 colors for even n and n colors for odd n, which is optimal
    in both cases.  Odd schemes name the graph's vertex v as v + 1.
    """
    shift = n % 2
    g = complete_graph(n)
    assignment = {eid: class_of_pair(n, (u + shift, w + shift)) for eid, (u, w) in g.edges.items()}
    return EdgeColoring(assignment, scheme_class_count(n))


def missing_color(g: Multigraph, coloring: EdgeColoring, v: int) -> int:
    """The one palette color absent at v.

    Intended for proper colorings of odd-order complete graphs, where
    every vertex misses exactly one color; errors if the count is off.
    """
    present = {coloring.color_of(eid) for eid in g.incident(v)}
    absent = [c for c in range(coloring.palette_size) if c not in present]
    if len(absent) != 1:
        raise GraphError(f"vertex {v} misses {len(absent)} colors, expected exactly one")
    return absent[0]


def regular_odd_equivalence(x: Multigraph, *, budget: Optional[int] = None) -> Tuple[bool, bool]:
    """Whether x and its complete truncation are class I; always equal.

    Both sides are decided by the exact oracle (edge caps sized to the
    instances); disagreement would falsify the construction and raises.
    """
    d = x.regular_valency()
    if d is None:
        raise GraphError("graph is not regular")
    if d % 2 == 0:
        raise GraphError(f"valency {d} is even; this equivalence needs odd valency")
    side_x = chromatic_index(x, budget=budget, edge_cap=max(x.size, 40)).classify(d)
    tr = complete_truncation(x)
    res_tr = chromatic_index(tr.graph, budget=budget, edge_cap=max(tr.graph.size, 40))
    side_tr = res_tr.classify(d)
    if (side_x == CLASS_I) != (side_tr == CLASS_I):
        raise AssertionError("source and complete truncation disagree on class")
    return side_x == CLASS_I, side_tr == CLASS_I


def brute_force(
    g: Multigraph, k: int, lists: Optional[Dict[int, int]], constrained: Iterable[int]
) -> bool:
    """Whether a coloring with colors < k (each within its edge's list
    bitmask, if lists are given) exists that is proper at every vertex
    in constrained, by trying every assignment in edge-id order with a
    clash test after each edge (no heuristics)."""
    eids = sorted(g.edge_ids)
    at = set(constrained)
    choice = {}

    def ok(eid):
        for v in g.endpoints(eid):
            if v in at and any(
                f != eid and f in choice and choice[f] == choice[eid]
                for f in g.incident(v)
            ):
                return False
        return True

    def extend(i):
        if i == len(eids):
            return True
        eid = eids[i]
        for c in range(k):
            if lists is not None and not lists[eid] >> c & 1:
                continue
            choice[eid] = c
            if ok(eid) and extend(i + 1):
                return True
            del choice[eid]
        return False

    return extend(0)


def outcome(call) -> object:
    """call()'s return value, or "GraphError: " and the message of the
    GraphError it raises, so that one parametrized test can pin both."""
    try:
        return call()
    except GraphError as exc:
        return f"GraphError: {exc}"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
