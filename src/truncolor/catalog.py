"""Small named graphs used by tests, demos, and the CLI."""

from __future__ import annotations

from typing import Callable, Dict

from .canonical import complete_graph
from .multigraph import Multigraph

__all__ = [
    "petersen",
    "two_k5_bridge",
    "k4",
    "k5",
    "k33",
    "q3",
    "prism3",
    "complete_graph",
    "complete_bipartite",
    "catalog",
]


def petersen() -> Multigraph:
    """Outer 5-cycle 0..4, spokes to 5..9, inner pentagram."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
    for i in range(5):
        edges.append((i, i + 5))
    for i in range(5):
        edges.append((i + 5, (i + 2) % 5 + 5))
    return Multigraph(range(10), edges)


def two_k5_bridge() -> Multigraph:
    """Two disjoint copies of K_5 joined by a single bridge 0-5."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    edges.append((0, 5))
    return Multigraph(range(10), edges)


def k4() -> Multigraph:
    return complete_graph(4)


def k5() -> Multigraph:
    return complete_graph(5)


def k33() -> Multigraph:
    """Complete bipartite graph on parts {0,1,2} and {3,4,5}."""
    return complete_bipartite(3, 3)


def complete_bipartite(a: int, b: int) -> Multigraph:
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Multigraph(range(a + b), edges)


def q3() -> Multigraph:
    """The 3-cube on vertices 0..7, adjacency by single bit flips."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return Multigraph(range(8), edges)


def prism3() -> Multigraph:
    """Triangular prism: triangles {0,1,2} and {3,4,5} plus rungs."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return Multigraph(range(6), edges)


def catalog() -> Dict[str, Callable[[], Multigraph]]:
    """Named instance builders, keyed by the names the CLI accepts."""
    return {
        "petersen": petersen,
        "two-k5-bridge": two_k5_bridge,
        "k4": k4,
        "k5": k5,
        "k33": k33,
        "q3": q3,
        "3-prism": prism3,
    }
