"""Canonical proper edge colorings of complete graphs.

For even n the scheme fixes a hub vertex 0 and arranges 1..n-1 on a
cycle; color class t pairs the hub with vertex 1+t and adds every chord
whose endpoint residues sum to 2+2t (mod n-1).  That yields n-1 perfect
matchings.  For odd n the scheme is the even one for n+1 with the hub
deleted: n classes of (n-1)/2 edges each, and every vertex misses
exactly one class.

Scheme vertices are "names": 0..n-1 when n is even, 1..n when n is odd
(residues modulo the cycle length, with 0 reserved for the hub).  The
class with the short anchor edge [a, a+1] near the cycle's far side is
addressable by that anchor.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .coloring import EdgeColoring
from .errors import GraphError
from .multigraph import Multigraph

__all__ = [
    "scheme_vertex_names",
    "scheme_class_count",
    "scheme_class",
    "scheme_anchor",
    "class_by_anchor",
    "class_of_pair",
    "canonical_coloring",
    "missing_color",
]


def _cycle_len(n: int) -> int:
    # Length of the cyclic part: n-1 residues when a hub exists, n otherwise.
    return n - 1 if n % 2 == 0 else n


def _norm(i: int, mod: int) -> int:
    """Reduce i into the residue set {1..mod}."""
    r = i % mod
    return r if r != 0 else mod


def _check_n(n: int) -> None:
    if n < 2:
        raise GraphError(f"canonical scheme needs order >= 2, got {n}")


def _is_name(n: int, a: int) -> bool:
    # Same range as scheme_vertex_names(n), without building it.
    return n % 2 <= a <= n - 1 + n % 2


def scheme_vertex_names(n: int) -> Tuple[int, ...]:
    """Names of the scheme's vertices: hub 0 plus residues, or residues alone."""
    _check_n(n)
    if n % 2 == 0:
        return tuple(range(n))
    return tuple(range(1, n + 1))


def scheme_class_count(n: int) -> int:
    _check_n(n)
    return n - 1 if n % 2 == 0 else n


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
    # The centre is the residue 1+t; _norm(i, mod) is (i-1) % mod + 1.
    edges: List[Tuple[int, int]] = [(0, t + 1)] if n % 2 == 0 else []
    for k in range(1, (mod + 1) // 2):
        a = (t - k) % mod + 1
        b = (t + k) % mod + 1
        edges.append((a, b) if a < b else (b, a))
    return tuple(edges)


def scheme_anchor(n: int, t: int) -> Tuple[int, int]:
    """The length-1 cycle edge [a, a+1] lying in class t."""
    _check_n(n)
    mod = _cycle_len(n)
    if mod < 3:
        raise GraphError(f"order {n} scheme has no anchor edges")
    base = n // 2 if n % 2 == 0 else (n + 1) // 2
    a = _norm(base + t, mod)
    b = _norm(base + 1 + t, mod)
    return (min(a, b), max(a, b))


def class_by_anchor(n: int, edge: Tuple[int, int]) -> int:
    """Inverse of scheme_anchor.  Rejects pairs that are not cycle edges."""
    _check_n(n)
    mod = _cycle_len(n)
    if mod < 3:
        raise GraphError(f"order {n} scheme has no anchor edges")
    a, b = edge
    if not (_is_name(n, a) and _is_name(n, b)) or 0 in (a, b):
        raise GraphError(f"{edge} is not a cycle edge of the order-{n} scheme")
    if _norm(a + 1, mod) == b:
        lo = a
    elif _norm(b + 1, mod) == a:
        lo = b
    else:
        raise GraphError(f"{edge} is not a length-1 cycle edge of the order-{n} scheme")
    base = n // 2 if n % 2 == 0 else (n + 1) // 2
    return (lo - base) % mod


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


def _name_of_vertex(n: int, v: int) -> int:
    # Graph vertices 0..n-1 map onto scheme names; odd schemes shift by one.
    return v if n % 2 == 0 else v + 1


def canonical_coloring(n: int) -> EdgeColoring:
    """Proper edge coloring of complete_graph(n) from the scheme classes.

    Uses n-1 colors for even n and n colors for odd n, which is optimal
    in both cases.
    """
    _check_n(n)
    g = complete_graph(n)
    assignment: Dict[int, int] = {}
    for eid, (u, w) in g.edges.items():
        pair = (_name_of_vertex(n, u), _name_of_vertex(n, w))
        assignment[eid] = class_of_pair(n, pair)
    return EdgeColoring(assignment, scheme_class_count(n))


def missing_color(g: Multigraph, coloring: EdgeColoring, v: int) -> int:
    """The one palette color absent at v.

    Intended for proper colorings of odd-order complete graphs, where
    every vertex misses exactly one color; errors if the count is off.
    """
    present = {coloring.color_of(eid) for eid in g.incident(v)}
    absent = [c for c in range(coloring.palette_size) if c not in present]
    if len(absent) != 1:
        raise GraphError(
            f"vertex {v} misses {len(absent)} colors, expected exactly one"
        )
    return absent[0]
