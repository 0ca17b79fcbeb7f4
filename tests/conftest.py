import random
from typing import List, Tuple

import pytest

from truncolor.multigraph import Multigraph


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
