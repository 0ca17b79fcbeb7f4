"""Suns: constituents together with their pendant matching edges.

A sun on r ends is a simple constituent graph on cluster positions
0..r-1 plus one pendant edge per position.  Prescribing the pendant
colors as a count vector (x_1..x_d), the parity rule decides whether
some (d-1)-regular constituent extends the pendant colors to a proper
d-coloring: all entries must share one parity with r, and odd parity
forces d odd.  Both parities are built constructively here, and the
negative direction is checked by brute enumeration rather than by the
counting argument, so the two routes stay independent.

Ends are laid out in ascending color blocks: positions 0..x_1-1 carry
color 0, the next x_2 positions color 1, and so on (zero entries
contribute empty blocks).  The odd construction works on residue names
1..r modulo r; the even construction fixes position 0 as a hub and
works on names 1..r-1 modulo r-1, so position = name there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .canonical import _norm, class_of_pair, scheme_class
from .coloring import EdgeColoring, is_proper, list_edge_coloring
from .errors import GraphError
from .multigraph import Multigraph
from .truncation import Truncation, assemble, excise

__all__ = [
    "SunColoring",
    "admissible",
    "pendant_layout",
    "build_sun_odd",
    "build_sun_even",
    "build_sun_valency",
    "verify_totally_inadmissible",
    "regular_constituents",
    "is_parity_balanced",
    "semiregular_truncation",
    "Infeasible",
    "regular_truncation",
]


@dataclass(frozen=True)
class SunColoring:
    """A constituent on positions 0..r-1, fully colored, plus pendant colors."""

    vector: Tuple[int, ...]
    pendant_colors: Tuple[int, ...]
    constituent_edges: Tuple[Tuple[int, int], ...]
    constituent_colors: Tuple[int, ...]
    palette_size: int

    @property
    def r(self) -> int:
        return len(self.pendant_colors)

    def sun_graph(self) -> Tuple[Multigraph, EdgeColoring]:
        """The sun as a plain graph: pendant edge at position p has id p,
        reaching a stub vertex r+p; constituent edges follow with ids r+i."""
        r = self.r
        edges: Dict[int, Tuple[int, int]] = {}
        assignment: Dict[int, int] = {}
        for pos in range(r):
            edges[pos] = (pos, r + pos)
            assignment[pos] = self.pendant_colors[pos]
        for idx, (a, b) in enumerate(self.constituent_edges):
            edges[r + idx] = (a, b)
            assignment[r + idx] = self.constituent_colors[idx]
        return Multigraph(range(2 * r), edges), EdgeColoring(assignment, self.palette_size)

    def constituent_valencies(self) -> Tuple[int, ...]:
        deg = [0] * self.r
        for a, b in self.constituent_edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    def validate(self, regular: Optional[int] = None) -> None:
        """Construction self-check; raises AssertionError on any breach."""
        pairs = {(min(a, b), max(a, b)) for a, b in self.constituent_edges}
        if len(pairs) != len(self.constituent_edges):
            raise AssertionError("constituent repeats an edge")
        g, col = self.sun_graph()
        if not is_proper(g, col):
            raise AssertionError("sun coloring is not proper")
        counts = [0] * self.palette_size
        for c in self.pendant_colors:
            counts[c] += 1
        expect = list(self.vector) + [0] * (self.palette_size - len(self.vector))
        if counts != expect:
            raise AssertionError("pendant colors do not realize the vector")
        if regular is not None:
            vals = set(self.constituent_valencies()) or {0}
            if vals != {regular}:
                raise AssertionError(
                    f"constituent valencies {sorted(vals)} instead of {regular}-regular"
                )


def _check_vector(vector: Sequence[int]) -> Tuple[int, int]:
    d = len(vector)
    if d < 1:
        raise GraphError("color vector must have at least one entry")
    for x in vector:
        if not isinstance(x, int) or x < 0:
            raise GraphError(f"color vector entries must be nonnegative integers, got {x}")
    r = sum(vector)
    if r < 1:
        raise GraphError("color vector must have positive total")
    if r < d:
        raise GraphError(f"total {r} below color count {d}; fewer ends than colors")
    return r, d


def admissible(vector: Sequence[int]) -> bool:
    """Parity test: all entries share r's parity; odd parity needs d odd."""
    r, d = _check_vector(vector)
    parities = {x % 2 for x in vector}
    parities.add(r % 2)
    if len(parities) != 1:
        return False
    if r % 2 == 1 and d % 2 == 0:
        return False
    return True


def pendant_layout(vector: Sequence[int]) -> Tuple[int, ...]:
    """Pendant color at each position: ascending color blocks."""
    out: List[int] = []
    for i, x in enumerate(vector):
        out.extend([i] * x)
    return tuple(out)


def _add_edge(store: Dict[Tuple[int, int], int], pair: Tuple[int, int], color: int) -> None:
    a, b = pair
    key = (min(a, b), max(a, b))
    if key[0] == key[1]:
        raise AssertionError(f"degenerate constituent edge at {key[0]}")
    if key in store:
        raise AssertionError(f"constituent edge {key} assigned twice")
    store[key] = color


def _finish(
    vector: Sequence[int],
    edge_color: Dict[Tuple[int, int], int],
    palette: int,
    name_to_pos,
    regular: int,
) -> SunColoring:
    pairs = sorted(edge_color)
    sun = SunColoring(
        vector=tuple(vector),
        pendant_colors=pendant_layout(vector),
        constituent_edges=tuple(
            tuple(sorted((name_to_pos(a), name_to_pos(b)))) for a, b in pairs
        ),
        constituent_colors=tuple(edge_color[p] for p in pairs),
        palette_size=palette,
    )
    sun.validate(regular=regular)
    return sun


def build_sun_odd(vector: Sequence[int]) -> SunColoring:
    """Sun for an all-odd vector: (d-1)-regular constituent, d colors.

    Ends carry residue names 1..r (mod r).  Color i's block sits at
    names B_i..B_i+x_i-1 with center a = B_i+(x_i-1)/2; its constituent
    edges are the chords [a-k, a+k] for k from (x_i-1)/2+1 out to
    (r-1)/2.  Distinct centers give distinct chord sums mod r, so the
    classes never collide.
    """
    r, d = _check_vector(vector)
    if any(x % 2 == 0 for x in vector):
        raise GraphError("odd-parity construction needs every entry odd")
    if not admissible(vector):
        raise GraphError(f"vector {tuple(vector)} is not admissible")
    edge_color: Dict[Tuple[int, int], int] = {}
    start = 1
    for i, x in enumerate(vector):
        center = start + (x - 1) // 2
        for k in range((x - 1) // 2 + 1, (r - 1) // 2 + 1):
            p = _norm(center - k, r)
            q = _norm(center + k, r)
            _add_edge(edge_color, (p, q), i)
        start += x
    return _finish(vector, edge_color, d, lambda name: name - 1, d - 1)


def _leftover_split(
    r: int, quotas: Dict[int, int]
) -> Tuple[Dict[int, int], Dict[int, List[Tuple[int, int]]]]:
    """Assign each pendant color a distinct scheme class of K_r and pick
    quota-many of its pairs so the picks jointly cover every name once.

    The picked pairs are the leftovers: their ends carry that color's
    pendants and the rest of the class becomes its constituent edges.
    Backtracks over the lowest uncovered name; colors that have not yet
    claimed a class are interchangeable when their quotas agree, so only
    one of each quota value is tried.  Returns (class per color, picks
    per color) or raises when no cover exists in this scheme.
    """
    colors = sorted(quotas)
    left = dict(quotas)
    color_class: Dict[int, int] = {}
    class_color: Dict[int, int] = {}
    chosen: Dict[int, List[Tuple[int, int]]] = {i: [] for i in colors}
    covered = [False] * r

    def rec() -> bool:
        try:
            v = covered.index(False)
        except ValueError:
            return True
        for u in range(v + 1, r):
            if covered[u]:
                continue
            t = class_of_pair(r, (v, u))
            if t in class_color:
                fresh = False
                cands = [class_color[t]]
            else:
                fresh = True
                seen: set = set()
                cands = []
                for i in colors:
                    if i in color_class or left[i] in seen:
                        continue
                    seen.add(left[i])
                    cands.append(i)
            for i in cands:
                if left[i] == 0:
                    continue
                if fresh:
                    class_color[t] = i
                    color_class[i] = t
                left[i] -= 1
                chosen[i].append((v, u))
                covered[v] = covered[u] = True
                if rec():
                    return True
                covered[v] = covered[u] = False
                chosen[i].pop()
                left[i] += 1
                if fresh:
                    del class_color[t]
                    del color_class[i]
        return False

    if not rec():
        raise AssertionError(f"no distinct-class cover for quotas {quotas}")
    return color_class, chosen


_EvenCore = Tuple[
    Dict[Tuple[int, int], int],
    List[Tuple[Tuple[int, int], ...]],
    Dict[int, int],
]


def _even_search(vector: Sequence[int]) -> _EvenCore:
    """Even-parity construction for block layouts whose classes collide.

    Drops the contiguous-block layout: each color takes a whole scheme
    class minus quota-many picked pairs, the picks partition the names,
    and pendants sit wherever the picks land.  A final renaming sorts
    positions back into ascending color blocks.
    """
    r, _ = _check_vector(vector)
    quotas = {i: x // 2 for i, x in enumerate(vector) if x > 0}
    color_class, picks = _leftover_split(r, quotas)
    edge_color: Dict[Tuple[int, int], int] = {}
    pend_at: Dict[int, int] = {}
    leftover: List[Tuple[int, int]] = []
    for i, t in color_class.items():
        skip = {tuple(sorted(p)) for p in picks[i]}
        for pair in scheme_class(r, t):
            key = tuple(sorted(pair))
            if key in skip:
                continue
            _add_edge(edge_color, pair, i)
        for a, b in skip:
            pend_at[a] = pend_at[b] = i
            leftover.append((a, b))
    used = set(color_class.values())
    pool: List[Tuple[Tuple[int, int], ...]] = []
    for t in range(r - 1):
        if t not in used:
            pool.append(scheme_class(r, t))
    pool.append(tuple(sorted(leftover)))
    order = sorted(range(r), key=lambda v: (pend_at[v], v))
    name_to_pos = {name: p for p, name in enumerate(order)}
    return edge_color, pool, name_to_pos


def _even_exact(vector: Sequence[int]) -> _EvenCore:
    """Last-resort even-parity construction via the exact solver.

    Color all of K_r with r colors, banning each end's pendant color on
    its incident edges; every color is then a perfect matching off its
    own pendant block.  Nonzero colors keep their edges, all other
    colors feed the pool.
    """
    r, d = _check_vector(vector)
    layout = pendant_layout(vector)
    pairs = list(combinations(range(r), 2))
    g = Multigraph(range(r), dict(enumerate(pairs)))
    lists = {
        eid: tuple(c for c in range(r) if c != layout[a] and c != layout[b])
        for eid, (a, b) in enumerate(pairs)
    }
    full = list_edge_coloring(g, lists)
    if full is None:
        raise AssertionError(f"no sun coloring exists for vector {tuple(vector)}")
    nonzero = {i for i, x in enumerate(vector) if x > 0}
    edge_color: Dict[Tuple[int, int], int] = {}
    spare: Dict[int, List[Tuple[int, int]]] = {}
    for eid, pair in enumerate(pairs):
        c = full.assignment[eid]
        if c in nonzero:
            _add_edge(edge_color, pair, c)
        else:
            spare.setdefault(c, []).append(pair)
    pool = [tuple(sorted(spare[c])) for c in sorted(spare)]
    return edge_color, pool, {v: v for v in range(r)}


def _even_core(vector: Sequence[int]) -> _EvenCore:
    """Shared even-parity construction.

    Returns (edges, pool, renaming) where pool lists the perfect
    matchings still fully available and renaming maps construction
    names to sun positions.  The main route lays pendants out in
    contiguous blocks and gives each block the one class whose chords
    pair the rest of the circle around it; that class is determined by
    the block's position, so two blocks can demand the same class.
    When they do, a search reassigns pendants to the ends of picked
    pairs from genuinely distinct classes, and failing even that, the
    exact solver settles it.
    """
    r, d = _check_vector(vector)
    if any(x % 2 for x in vector):
        raise GraphError("even-parity construction needs every entry even")
    if not admissible(vector):
        raise GraphError(f"vector {tuple(vector)} is not admissible")
    mod = r - 1
    nz = [(i, x) for i, x in enumerate(vector) if x > 0]
    block_classes: List[int] = []
    i1, x1 = nz[0]
    if x1 < r:
        block_classes.append(class_of_pair(r, (x1, r - 1)))
    s = x1
    for i, x in nz[1:]:
        h = _norm(s + (x + r - 2) // 2, mod)
        block_classes.append(h - 1)
        s += x
    if len(set(block_classes)) != len(block_classes):
        try:
            return _even_search(vector)
        except AssertionError:
            return _even_exact(vector)
    edge_color: Dict[Tuple[int, int], int] = {}
    # First block holds the hub (name 0) and names 1..x1-1; its color
    # pairs the remaining arc inward: [x1, r-1], [x1+1, r-2], ...
    for j in range((r - x1) // 2):
        _add_edge(edge_color, (x1 + j, r - 1 - j), i1)
    s = x1
    for i, x in nz[1:]:
        # Block at names s..s+x-1.  Its class pairs the hub with the
        # self-paired residue of the block's chord sum and walks
        # outward from the block's rim.
        h = _norm(s + (x + r - 2) // 2, mod)
        _add_edge(edge_color, (0, h), i)
        for j in range((r - x - 2) // 2):
            p = _norm(s - 1 - j, mod)
            q = _norm(s + x + j, mod)
            _add_edge(edge_color, (p, q), i)
        s += x
    used_by_class: Dict[int, set] = {}
    for pair in edge_color:
        t = class_of_pair(r, pair)
        used_by_class.setdefault(t, set()).add(pair)
    pool: List[Tuple[Tuple[int, int], ...]] = []
    for t in range(mod):
        if t not in used_by_class:
            pool.append(scheme_class(r, t))
    leftover: List[Tuple[int, int]] = []
    for t, pairs in used_by_class.items():
        leftover.extend(p for p in scheme_class(r, t) if p not in pairs)
    if leftover:
        if len(leftover) != r // 2:
            raise AssertionError("leftover arcs do not form a perfect matching")
        pool.append(tuple(sorted(leftover)))
    return edge_color, pool, {v: v for v in range(r)}


def build_sun_even(vector: Sequence[int]) -> SunColoring:
    """Sun for an all-even vector (zero entries allowed): d colors,
    (d-1)-regular constituent.  Zero colors consume whole perfect
    matchings from the unused pool."""
    r, d = _check_vector(vector)
    edge_color, pool, renaming = _even_core(vector)
    zeros = [i for i, x in enumerate(vector) if x == 0]
    if len(zeros) > len(pool):
        raise AssertionError("not enough free matchings for the zero colors")
    for idx, color in enumerate(zeros):
        for pair in pool[idx]:
            _add_edge(edge_color, pair, color)
    return _finish(vector, edge_color, d, renaming.__getitem__, d - 1)


def build_sun_valency(vector: Sequence[int], k: int) -> SunColoring:
    """Sun over an all-even vector whose constituent is k-regular.

    d' is the number of nonzero entries; any k from d' through r-1
    works.  The base construction is (d'-1)-regular; each step up adds
    one whole perfect matching from the pool under a color not yet on
    any pendant (zero-entry indices first, then fresh colors).
    """
    r, d = _check_vector(vector)
    nz_count = sum(1 for x in vector if x > 0)
    if not nz_count <= k <= r - 1:
        raise GraphError(
            f"target valency {k} outside {nz_count}..{r - 1} for vector {tuple(vector)}"
        )
    edge_color, pool, renaming = _even_core(vector)
    zeros = [i for i, x in enumerate(vector) if x == 0]
    need = k - (nz_count - 1)
    fresh = max(0, need - len(zeros))
    targets = (zeros + list(range(d, d + fresh)))[:need]
    if need > len(pool):
        raise AssertionError("not enough free matchings to reach the target valency")
    for idx, color in enumerate(targets):
        for pair in pool[idx]:
            _add_edge(edge_color, pair, color)
    return _finish(vector, edge_color, d + fresh, renaming.__getitem__, k)


# ---- exhaustive negative verification ---- #

_REG_CACHE: Dict[Tuple[int, int], Tuple[Tuple[Tuple[int, int], ...], ...]] = {}


def regular_constituents(r: int, deg: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Every labelled deg-regular simple graph on vertices 0..r-1.

    Enumerated by letting the lowest unfinished vertex choose its
    remaining neighbors among higher vertices, so each graph appears
    exactly once.  Results are cached; the intended range is r <= 8.
    """
    key = (r, deg)
    if key in _REG_CACHE:
        return _REG_CACHE[key]
    out: List[Tuple[Tuple[int, int], ...]] = []
    if deg == 0:
        out.append(())
    elif deg < r and (r * deg) % 2 == 0:
        rem = [deg] * r
        adj: List[set] = [set() for _ in range(r)]
        edges: List[Tuple[int, int]] = []

        def rec() -> None:
            v = next((i for i in range(r) if rem[i]), -1)
            if v < 0:
                out.append(tuple(edges))
                return
            cands = [u for u in range(v + 1, r) if rem[u] and u not in adj[v]]
            need = rem[v]
            if len(cands) < need:
                return
            for combo in combinations(cands, need):
                rem[v] = 0
                for u in combo:
                    rem[u] -= 1
                    adj[v].add(u)
                    adj[u].add(v)
                    edges.append((v, u))
                rec()
                for u in combo:
                    rem[u] += 1
                    adj[v].remove(u)
                    adj[u].remove(v)
                    edges.pop()
                rem[v] = need

        rec()
    _REG_CACHE[key] = tuple(out)
    return _REG_CACHE[key]


_TI_CACHE: Dict[Tuple[int, ...], bool] = {}


def verify_totally_inadmissible(vector: Sequence[int]) -> bool:
    """True iff no (d-1)-regular constituent extends the pendant colors.

    Checked the hard way: every labelled (d-1)-regular graph on the r
    ends is generated, and for each one an exhaustive list coloring
    (each edge barred from its endpoints' pendant colors) must come up
    UNSAT.  No parity shortcut is consulted.  Results are invariant
    under permuting the vector, so they are cached by sorted vector.
    """
    r, d = _check_vector(vector)
    if r > 8:
        raise GraphError(f"enumeration is capped at r <= 8, got r = {r}")
    key = tuple(sorted(vector))
    if key in _TI_CACHE:
        return _TI_CACHE[key]
    pendants = pendant_layout(key)
    result = True
    for edges in regular_constituents(r, d - 1):
        g = Multigraph(range(r), edges)
        lists = {
            eid: [c for c in range(d) if c != pendants[a] and c != pendants[b]]
            for eid, (a, b) in g.edges.items()
        }
        if list_edge_coloring(g, lists) is not None:
            result = False
            break
    _TI_CACHE[key] = result
    return result


# ---- parity balance and truncations built from suns ---- #

def is_parity_balanced(x: Multigraph, coloring: EdgeColoring) -> bool:
    """At every vertex, each palette color's incident count must have
    the parity of the valency (count 0 included for even valencies)."""
    for eid in x.edge_ids:
        if eid not in coloring.assignment:
            raise GraphError(f"coloring does not cover edge {eid}")
    for v in x.vertices:
        val = x.valency(v)
        counts = [0] * coloring.palette_size
        for eid in x.incident(v):
            counts[coloring.assignment[eid]] += 1
        if any(c % 2 != val % 2 for c in counts):
            return False
    return True


def _vector_at(x: Multigraph, coloring: EdgeColoring, v: int) -> Tuple[int, ...]:
    counts = [0] * coloring.palette_size
    for eid in x.incident(v):
        counts[coloring.assignment[eid]] += 1
    return tuple(counts)


def _cluster_positions_by_color(
    ends: Sequence[int], coloring: EdgeColoring
) -> List[int]:
    """Cluster positions reordered to ascending (color, source edge id),
    i.e. the order in which the block layout expects to meet them."""
    return sorted(range(len(ends)), key=lambda p: (coloring.assignment[ends[p] // 2], ends[p]))


def _suns_to_truncation(
    x: Multigraph, coloring: EdgeColoring, suns: Mapping[int, SunColoring]
) -> Tuple[Truncation, EdgeColoring]:
    """Glue per-vertex suns over a matching coloring of the source."""
    _, clusters = excise(x)
    colors: Dict[int, Dict[Tuple[int, int], int]] = {}
    for v in x.vertices:
        order = _cluster_positions_by_color(clusters[v], coloring)
        sun = suns[v]
        colors[v] = {
            tuple(sorted((order[a], order[b]))): c
            for (a, b), c in zip(sun.constituent_edges, sun.constituent_colors)
        }
    # Each cluster's color map is keyed by its constituent edges.
    tr = assemble(x, colors)
    palette = max([coloring.palette_size] + [suns[v].palette_size for v in x.vertices])
    return tr, tr.color(coloring.assignment, colors.__getitem__, palette)


def semiregular_truncation(
    x: Multigraph, coloring: EdgeColoring
) -> Tuple[Truncation, EdgeColoring]:
    """Truncation whose constituents are (palette-1)-regular, colored so
    the matching edges keep the input colors.

    Requires a parity-balanced input coloring; each vertex also needs
    valency at least the palette size so its constituent fits.
    """
    if x.size == 0:
        raise GraphError("source graph has no edges")
    if not is_parity_balanced(x, coloring):
        raise GraphError("coloring is not parity-balanced")
    suns: Dict[int, SunColoring] = {}
    for v in x.vertices:
        vec = _vector_at(x, coloring, v)
        try:
            if x.valency(v) % 2 == 1:
                suns[v] = build_sun_odd(vec)
            else:
                suns[v] = build_sun_even(vec)
        except GraphError as exc:
            raise GraphError(f"vertex {v} with color vector {vec}: {exc}") from exc
    return _suns_to_truncation(x, coloring, suns)


@dataclass(frozen=True)
class Infeasible:
    """Names the valency clause a regular-truncation request violates."""

    clause: str
    reason: str


def regular_truncation(
    x: Multigraph, d: int, *, budget: Optional[int] = None
) -> Union[Tuple[Truncation, EdgeColoring], Infeasible]:
    """A d-regular truncation of x with a proper d-coloring, or Infeasible.

    Even d (clause ii): every valency must be even and at least d; all
    edges take one color and each constituent is pumped to valency d-1
    with whole matchings.  Odd d (clause i): odd-valency vertices need
    valency >= d, even-valency vertices >= d+1, and a coloring with d
    colors must exist where every color count is odd at odd-valency
    vertices and even at even-valency vertices; found by exhaustive
    backtracking with parity pruning.
    """
    if d < 2:
        raise GraphError(f"regular truncation needs d >= 2, got {d}")
    if x.size == 0:
        raise GraphError("source graph has no edges")
    if d % 2 == 0:
        for v in x.vertices:
            if x.valency(v) % 2 == 1:
                return Infeasible(
                    "ii", f"vertex {v} has odd valency {x.valency(v)}; even d needs all even"
                )
            if x.valency(v) < d:
                return Infeasible(
                    "ii", f"vertex {v} has valency {x.valency(v)} below d = {d}"
                )
        base = EdgeColoring({eid: 0 for eid in x.edge_ids}, 1)
        suns = {v: build_sun_valency((x.valency(v),), d - 1) for v in x.vertices}
        tr, col = _suns_to_truncation(x, base, suns)
        col = EdgeColoring(col.assignment, d)
        return tr, col
    for v in x.vertices:
        val = x.valency(v)
        if val % 2 == 1 and val < d:
            return Infeasible(
                "i", f"vertex {v} has odd valency {val} below d = {d}"
            )
        if val % 2 == 0 and val < d + 1:
            return Infeasible(
                "i", f"vertex {v} has even valency {val} below d + 1 = {d + 1}"
            )
    found = _parity_coloring_search(x, d, budget)
    if found is None:
        return Infeasible("i", f"no parity-conforming coloring with {d} colors exists")
    return semiregular_truncation(x, found)


def _parity_coloring_search(
    x: Multigraph, d: int, budget: Optional[int] = None
) -> Optional[EdgeColoring]:
    """Exhaustive search for a d-coloring where each color's count at a
    vertex matches the vertex's valency parity.  Color-permutation
    symmetry is broken by capping fresh colors."""
    from .errors import UndecidedError

    eids = sorted(x.edge_ids, key=lambda e: (x.endpoints(e), e))
    m = len(eids)
    counts: Dict[int, List[int]] = {v: [0] * d for v in x.vertices}
    remaining: Dict[int, int] = {v: x.valency(v) for v in x.vertices}
    color: List[int] = [-1] * m
    use_count = [0] * d
    nodes = 0

    def vertex_ok(v: int) -> bool:
        want = x.valency(v) % 2
        wrong = sum(1 for c in counts[v] if c % 2 != want)
        rem = remaining[v]
        return wrong <= rem and (rem - wrong) % 2 == 0

    def rec(i: int) -> bool:
        nonlocal nodes
        if i == m:
            return True
        eid = eids[i]
        u, w = x.endpoints(eid)
        bound = 0
        for c in range(d):
            if use_count[c] > 0:
                bound = c + 1
        for c in range(min(d, bound + 1)):
            nodes += 1
            if budget is not None and nodes > budget:
                raise UndecidedError("parity coloring search exceeded budget", nodes)
            color[i] = c
            use_count[c] += 1
            counts[u][c] += 1
            counts[w][c] += 1
            remaining[u] -= 1
            remaining[w] -= 1
            if vertex_ok(u) and vertex_ok(w) and rec(i + 1):
                return True
            remaining[u] += 1
            remaining[w] += 1
            counts[u][c] -= 1
            counts[w][c] -= 1
            use_count[c] -= 1
            color[i] = -1
        return False

    if rec(0):
        return EdgeColoring({eids[i]: color[i] for i in range(m)}, d)
    return None
