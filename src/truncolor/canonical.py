"""Canonical proper edge colorings of complete graphs.

For even n the scheme fixes a hub vertex 0 and arranges 1..n-1 on a
cycle; color class t pairs the hub with vertex 1+t and adds every chord
whose endpoint residues sum to 2+2t (mod n-1).  That yields n-1 perfect
matchings.  For odd n the scheme is the even one for n+1 with the hub
deleted: n classes of (n-1)/2 edges each, and every vertex misses
exactly one class.

Scheme vertices are "names": 0..n-1 when n is even, 1..n when n is odd
(residues modulo the cycle length, with 0 reserved for the hub).
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import GraphError
from .multigraph import Multigraph

__all__ = [
    "scheme_class",
    "class_of_pair",
]


def _cycle_len(n: int) -> int:
    # Length of the cyclic part: n-1 residues when a hub exists, n otherwise.
    return n - 1 if n % 2 == 0 else n


def _check_n(n: int) -> None:
    if n < 2:
        raise GraphError(f"canonical scheme needs order >= 2, got {n}")


def _is_name(n: int, a: int) -> bool:
    # Whether a is a scheme vertex name: 0..n-1 for even n, 1..n for odd n.
    return n % 2 <= a <= n - 1 + n % 2


def scheme_class(n: int, t: int) -> Tuple[Tuple[int, int], ...]:
    """Edges of color class t, as sorted pairs of scheme vertex names.

    Even n: the hub edge [0, 1+t] plus chords {1+t-k, 1+t+k}.  Odd n:
    the chords alone, taken modulo n.  Classes are perfect matchings
    (even n) or near-perfect matchings missing one vertex (odd n).
    """
    _check_n(n)
    mod = _cycle_len(n)
    if not 0 <= t < mod:
        raise GraphError(f"class index {t} out of range for order {n}")
    # The centre is the residue 1+t; (i-1) % mod + 1 reduces i into 1..mod.
    edges: List[Tuple[int, int]] = [(0, t + 1)] if n % 2 == 0 else []
    for k in range(1, (mod + 1) // 2):
        a = (t - k) % mod + 1
        b = (t + k) % mod + 1
        edges.append((a, b) if a < b else (b, a))
    return tuple(edges)


def class_of_pair(n: int, pair: Tuple[int, int]) -> int:
    """Class index of an arbitrary scheme edge (pair of vertex names)."""
    _check_n(n)
    mod = _cycle_len(n)
    a, b = pair
    if not (_is_name(n, a) and _is_name(n, b)) or a == b:
        raise GraphError(f"{pair} is not an edge of the order-{n} scheme")
    if a == 0 or b == 0:
        # Hub edge [0, 1+t].
        other = a or b
        return (other - 1) % mod
    # Chord with residue sum 2 + 2t; 2 is invertible since mod is odd.
    inv2 = (mod + 1) // 2
    return ((a + b - 2) * inv2) % mod


def complete_graph(n: int) -> Multigraph:
    """K_n on vertices 0..n-1 with edges in lexicographic id order."""
    if n < 1:
        raise GraphError(f"complete graph needs order >= 1, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Multigraph(range(n), edges)
