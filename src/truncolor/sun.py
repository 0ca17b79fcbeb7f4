"""Suns: constituents together with their pendant matching edges.

A sun on r ends is a simple constituent graph on cluster positions
0..r-1 plus one pendant edge per position.  Prescribing the pendant
colors as a count vector (x_1..x_d), the parity rule decides whether
some (d-1)-regular constituent extends the pendant colors to a proper
d-coloring: all entries must share one parity with r (so odd parity
forces d odd).  Both parities are built constructively here, and the
negative direction is checked by exhaustive enumeration of the
constituents, up to permutations of same-colored ends, rather than by
the counting argument, so the two routes stay independent.

Ends are laid out in ascending color blocks: positions 0..x_1-1 carry
color 0, the next x_2 positions color 1, and so on (zero entries
contribute empty blocks).  The odd construction works on residue names
1..r modulo r.  The even construction works on K_r's scheme, hub 0
plus residues 1..r-1 modulo r-1, in closed form: each nonzero color's
pendants form a block symmetric about a centre, and the color takes
the scheme class with that centre minus the pairs inside its block.
Two blocks need the same class only when their centres coincide or
are antipodal on the circle of r-1 residues; the layout moves the one
block that can be centred opposite the hub block (see _even_layout).
The construction reads only its shape, the nonzero sizes in descending
order and the whole matchings added, so it is cached at two levels.
`_even_shape` runs it once per shape, on color slots, and permuted
vectors share that run.  `_even_positions` renames it to positions once
per ordered shape, the nonzero entries in color order: positions run
block by block in color order, and equal sizes keep their color order
among the slots, so the edges in positions depend on the ordered shape
alone.  A build only maps slots to colors, and every sun of one ordered
shape holds the same constituent_edges tuple.

Every build ends in one tail, `_checked_sun`, so every sun, cached
shape or not, is checked by `SunColoring.validate`.  The odd
construction and cyclic_coloring's single-cycle sun reach it through
`_finish`, which sorts their (name, name, color) triples once and
renames them to positions.  That check reads the plain lists:
Truncation's pair check, whole-list color passes, then the cluster
checker every truncation coloring shares, `coloring.cluster_clash`.
Only a failed color pass builds an `EdgeColoring`, the one checker of
color rules, to name the bad color.  No check builds the sun as a
graph, so a build costs little more than its output; `sun_graph`
exists for DOT.

Semiregular, regular and class I cyclic truncations share one gluing,
`_glue_suns`: it counts each vertex's color vector once over a
parity-balanced coloring of the source, builds one sun per distinct
vector, and lays each cluster's positions out in ascending color blocks
to meet that sun.  Where that coloring is searched for, one loop in
`_parity_coloring_search` does it on `coloring.solve_edge_coloring`'s
conventions, tracking color-count parities per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .canonical import class_of_pair, scheme_class
from .coloring import EdgeColoring, _clash_error, cluster_clash, solve_edge_coloring
from .errors import GraphError, Refusal, UndecidedError
from .multigraph import Multigraph
from .truncation import Truncation, _ascending_and_simple, _normalize

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
        edges = [(pos, r + pos) for pos in range(r)] + list(self.constituent_edges)
        colors = dict(enumerate([*self.pendant_colors, *self.constituent_colors]))
        return Multigraph(range(2 * r), edges), EdgeColoring(colors, self.palette_size)

    def validate(self, regular: Optional[int] = None) -> None:
        """Construction self-check; raises AssertionError on any breach.

        The constituent pair check Truncation uses accepts the edges, or
        names the first bad pair.  Whole-list passes accept one color per
        edge, a plain-int palette and plain-int colors in it; when they
        fail, EdgeColoring, on sun_graph()'s edge ids (pendant p is edge
        p, pair k is edge r+k), names the bad palette or the first bad
        color.  Then cluster_clash names a clash in the same ids.
        """
        r, palette = self.r, self.palette_size
        edges, colors = self.constituent_edges, self.constituent_colors
        if not _ascending_and_simple(edges, r):
            try:
                _normalize("sun constituent", r, edges)
            except GraphError as exc:
                raise AssertionError(str(exc)) from None
        if len(colors) != len(edges):
            raise AssertionError(f"{len(colors)} constituent colors for {len(edges)} edges")
        hues = [*self.pendant_colors, *colors]
        if not (
            type(palette) is int
            and set(map(type, hues)) <= {int}
            and (not hues or (min(hues) >= 0 and max(hues) < palette))
        ):
            try:
                EdgeColoring(dict(enumerate(hues)), palette)
            except GraphError as exc:
                raise AssertionError(f"sun coloring: {exc}") from None
        clash = cluster_clash(self.pendant_colors, edges, colors)
        if clash is not None:
            raise _clash_error("sun coloring", *clash)
        counts = [0] * palette
        for c in self.pendant_colors:
            counts[c] += 1
        expect = list(self.vector) + [0] * (palette - len(self.vector))
        if counts != expect:
            raise AssertionError("pendant colors do not realize the vector")
        if regular is not None:
            deg = [0] * r
            for p in chain.from_iterable(edges):
                deg[p] += 1
            vals = set(deg) or {0}
            if vals != {regular}:
                raise AssertionError(
                    f"constituent valencies {sorted(vals)} instead of {regular}-regular"
                )


def _check_vector(vector: Sequence[int]) -> Tuple[int, int]:
    d = len(vector)
    if d < 1:
        raise GraphError("color vector must have at least one entry")
    for x in vector:
        if type(x) is not int or x < 0:
            raise GraphError(f"color vector entries must be nonnegative integers, got {x}")
    r = sum(vector)
    if r < 1:
        raise GraphError("color vector must have positive total")
    if r < d:
        raise GraphError(f"total {r} below color count {d}; fewer ends than colors")
    return r, d


def admissible(vector: Sequence[int]) -> bool:
    """Parity test: all entries share r's parity.  Odd parity then has
    d odd, since a sum of d odd entries has d's parity."""
    r, _ = _check_vector(vector)
    return {x % 2 for x in vector} == {r % 2}


def pendant_layout(vector: Sequence[int]) -> Tuple[int, ...]:
    """Pendant color at each position: ascending color blocks."""
    out: List[int] = []
    for i, x in enumerate(vector):
        out.extend([i] * x)
    return tuple(out)


def _checked_sun(
    vector: Sequence[int],
    edges: Tuple[Tuple[int, int], ...],
    colors: Tuple[int, ...],
    palette: int,
    regular: int,
) -> SunColoring:
    """The one tail of every build: the sun, checked by validate."""
    sun = SunColoring(
        vector=tuple(vector),
        pendant_colors=pendant_layout(vector),
        constituent_edges=edges,
        constituent_colors=colors,
        palette_size=palette,
    )
    sun.validate(regular=regular)
    return sun


def _finish(
    vector: Sequence[int],
    triples: List[Tuple[int, int, int]],
    palette: int,
    position: Sequence[int],
    regular: int,
) -> SunColoring:
    """Named edges to a checked sun.

    triples are (name_a, name_b, color) with name_a < name_b; they are
    sorted once, so edges come out in name order, and position maps each
    name to its sun position.  validate rejects loops and repeated edges.
    """
    triples.sort()
    edges = _position_pairs(triples, position)
    return _checked_sun(vector, edges, tuple(map(itemgetter(2), triples)), palette, regular)


def _position_pairs(
    triples: Sequence[Tuple[int, int, int]], position: Sequence[int]
) -> Tuple[Tuple[int, int], ...]:
    """Each (name_a, name_b, _) as its ascending pair of sun positions."""
    ends = [(position[a], position[b]) for a, b, _ in triples]
    return tuple([(p, q) if p < q else (q, p) for p, q in ends])


def build_sun_odd(vector: Sequence[int]) -> SunColoring:
    """Sun for an all-odd vector: (d-1)-regular constituent, d colors.

    Ends carry residue names 1..r (mod r).  Color i's block sits at
    names B_i..B_i+x_i-1 with center a = B_i+(x_i-1)/2; its constituent
    edges are the chords [a-k, a+k] for k from (x_i-1)/2+1 out to
    (r-1)/2, the odd scheme's class centred at a less its first
    (x_i-1)/2 chords (none when x_i = r).  Distinct centers give
    distinct classes, so the colors never collide.
    """
    r, d = _check_vector(vector)
    if any(x % 2 == 0 for x in vector):
        raise GraphError("odd-parity construction needs every entry odd")
    if not admissible(vector):
        raise GraphError(f"vector {tuple(vector)} is not admissible")
    triples: List[Tuple[int, int, int]] = []
    start = 1
    for i, x in enumerate(vector):
        if x < r:  # r = 1 has no scheme; x is odd, so x // 2 = (x - 1) / 2
            triples += [(p, q, i) for p, q in scheme_class(r, start + x // 2 - 1)[x // 2 :]]
        start += x
    # Name n sits at position n - 1.
    return _finish(vector, triples, d, range(-1, r), d - 1)


def _even_layout(r: int, nz: Sequence[Tuple[int, int]]) -> List[Tuple[int, List[int]]]:
    """Construction names of each nonzero block's pendants, as (label, names).

    nz lists the nonzero (label, count) blocks largest first, ties by
    label; _even_shape labels them by slot.  The first block takes the
    hub 0 and names 1..x1-1, centred at x1/2; the others take
    consecutive intervals of the arc x1..r-1.
    Every block is symmetric about one centre on the circle of r-1
    residues, so it is a union of pairs of the class with that centre.
    Two blocks share a class only when their centres coincide or are
    antipodal.  Arc blocks have even length, hence half-integer
    centres, and the antipode of a half-integer is an integer; so the
    one possible clash is an arc block centred opposite the hub block,
    i.e. at the centre of the arc, with equal totals before and after
    it.  Fixes:

    * with two blocks the shared class is harmless (each color takes
      that class's pairs inside the other block), so nothing moves;
    * the centred block swaps with a neighbour of another size, right
      neighbour first; if both neighbours have its size, it is woven
      with its right neighbour: over their 2x names the two colors
      alternate, and each takes the class centred on one of its
      partner's names, which it does not hold;
    * when every block has size 2 and their count k >= 4 is even, the
      woven pair's second class is antipodal to the first arc block,
      so arc blocks (0, 1) are woven as well as (k/2-1, k/2); for k = 4
      those overlap and a fixed layout is used.
    """
    c0, x1 = nz[0]
    arc = list(nz[1:])
    k = len(nz)
    weave = set()
    if k >= 4 and k % 2 == 0 and all(x == 2 for _, x in nz):
        if k == 4:
            fixed = ([0, 1], [2, 4], [3, 7], [5, 6])
            return [(c, names) for (c, _), names in zip(nz, fixed)]
        weave = {0, k // 2 - 1}
    elif len(arc) > 1:
        # A centred block has arc on both sides, so both neighbours exist.
        s = x1
        for j, (_, x) in enumerate(arc):
            if 2 * s + x == x1 + r:
                if arc[j + 1][1] != x:
                    arc[j], arc[j + 1] = arc[j + 1], arc[j]
                elif arc[j - 1][1] != x:
                    arc[j - 1], arc[j] = arc[j], arc[j - 1]
                else:
                    weave = {j}
                break
            s += x
    out = [(c0, list(range(x1)))]
    s, j = x1, 0
    while j < len(arc):
        c, x = arc[j]
        if j in weave:
            out.append((c, list(range(s, s + 2 * x, 2))))
            out.append((arc[j + 1][0], list(range(s + 1, s + 2 * x, 2))))
            s, j = s + 2 * x, j + 2
        else:
            out.append((c, list(range(s, s + x))))
            s, j = s + x, j + 1
    return out


@lru_cache(maxsize=256)
def _even_shape(
    sizes: Tuple[int, ...], extra: int
) -> Tuple[Tuple[Tuple[int, int, int], ...], Tuple[Tuple[int, ...], ...]]:
    """The even construction for one shape, on color slots.

    Slot i is the i-th of sizes, the nonzero entries largest first, and
    slot len(sizes) + j the j-th of extra colors.  Returns (triples,
    names): the edges as name-sorted (name_a, name_b, slot) with name_a
    < name_b, and each slot's pendant names, ascending.  Names 0..r-1
    form K_r's scheme with hub 0.  Each slot takes the class whose pairs
    tile its pendant names (see _even_layout) and keeps that class's
    other pairs as its edges; the tiling pairs form the leftover
    matching.  Each extra slot takes one whole matching: the unused
    classes, built only when taken, then the leftover.
    """
    r = sum(sizes)
    layout = _even_layout(r, list(enumerate(sizes)))
    pend = [0] * r
    for slot, block in layout:
        for p in block:
            pend[p] = slot
    triples: List[Tuple[int, int, int]] = []
    leftover: List[Tuple[int, int]] = []
    used = set()
    for slot, block in layout:
        # The hub pairs with its block's centre; an arc block's ends pair.
        pair = (0, block[len(block) // 2]) if block[0] == 0 else (block[0], block[-1])
        t = class_of_pair(r, pair)
        used.add(t)
        for a, b in scheme_class(r, t):
            if pend[a] == slot:
                leftover.append((a, b))
            else:
                triples.append((a, b, slot))
    if len(used) < len(layout):
        # Two blocks on one class: each took the other's pairs, so the
        # class is spent and nothing is left over.
        leftover = []
    pool = chain(
        (scheme_class(r, t) for t in range(r - 1) if t not in used),
        [tuple(sorted(leftover))] if leftover else [],
    )
    for slot in range(len(sizes), len(sizes) + extra):
        matching = next(pool, None)
        if matching is None:
            raise AssertionError(f"no free matching left for color slot {slot}")
        triples.extend((a, b, slot) for a, b in matching)
    return tuple(sorted(triples)), tuple(tuple(block) for _, block in sorted(layout))


@lru_cache(maxsize=256)
def _even_positions(
    shape: Tuple[int, ...], extra: int
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...], Tuple[int, ...]]:
    """_even_shape(sizes, extra) renamed to sun positions, for one
    ordered shape: the nonzero entries in color order.

    Slots take the entries largest first, ties in color order, so
    order[s] is the index in shape of slot s's block.  Positions run
    block by block in color order, so every edge in positions depends
    on the ordered shape alone; only the colors depend on which indexes
    are zero.  Returns (edges, slots, order): the constituent edges as
    ascending position pairs in _even_shape's name order, each edge's
    slot, and order.
    """
    order = tuple(sorted(range(len(shape)), key=lambda j: (-shape[j], j)))
    triples, names = _even_shape(tuple(shape[j] for j in order), extra)
    position = [0] * sum(shape)
    in_color_order = sorted(range(len(order)), key=order.__getitem__)
    for p, name in enumerate(chain.from_iterable(names[s] for s in in_color_order)):
        position[name] = p
    return _position_pairs(triples, position), tuple(map(itemgetter(2), triples)), order


def build_sun_even(vector: Sequence[int]) -> SunColoring:
    """Sun for an all-even vector (zero entries allowed): d colors,
    (d-1)-regular constituent.  Zero colors consume whole perfect
    matchings from the unused pool."""
    return build_sun_valency(vector, len(vector) - 1)


def build_sun_valency(vector: Sequence[int], k: int) -> SunColoring:
    """Sun over an all-even vector whose constituent is k-regular.

    d' is the number of nonzero entries; any k from d'-1 through r-1
    works.  The base construction is (d'-1)-regular; each step up adds
    one whole perfect matching under a color not yet on any pendant
    (zero-entry indices first, then fresh colors).  The construction is
    cached twice: _even_shape per shape, the nonzero entries largest
    first, and _even_positions per ordered shape, the nonzero entries in
    color order; both also key on k - (d'-1).  A build only maps slots
    to colors, so every sun of one ordered shape holds the same
    constituent_edges tuple, and validate still checks each build.
    """
    r, d = _check_vector(vector)
    nonzero = [i for i, x in enumerate(vector) if x]
    zeros = [i for i, x in enumerate(vector) if not x]
    base = len(nonzero) - 1
    if not base <= k <= r - 1:
        raise GraphError(
            f"target valency {k} outside {base}..{r - 1} for vector {tuple(vector)}"
        )
    if any(x % 2 for x in vector):
        raise GraphError("even-parity construction needs every entry even")
    need = k - base
    fresh = max(0, need - len(zeros))
    edges, slots, order = _even_positions(tuple(vector[i] for i in nonzero), need)
    colors = [nonzero[j] for j in order] + (zeros + list(range(d, d + fresh)))[:need]
    return _checked_sun(vector, edges, tuple(map(colors.__getitem__, slots)), d + fresh, k)


# ---- exhaustive negative verification ---- #

def _breaks_block_order(adj: List[int], pairs: Sequence[int], final: int) -> bool:
    """True if swapping some same-colored positions i, i+1 gives a
    graph that is already known to come earlier.

    Graphs are ordered by their upper triangle in row-major order, an
    edge before a non-edge.  With A = N(i)-{i+1} and B = N(i+1)-{i},
    the swap comes earlier exactly when the lowest index in A xor B
    lies in B.  Only indices in the mask final are compared: their
    adjacencies are settled.
    """
    for i in pairs:
        diff = (adj[i] ^ adj[i + 1]) & final & ~(3 << i)
        if diff and adj[i + 1] & diff & -diff:
            return True
    return False


def regular_constituents(
    r: int, deg: int, layout: Optional[Sequence[int]] = None
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Labelled deg-regular simple graphs on vertices 0..r-1.

    The lowest unfinished vertex v chooses its remaining neighbours
    among higher vertices, so each graph appears once; the choices
    live on an explicit stack.  Without a layout every labelled graph
    is returned.  With layout[p] the pendant color at position p, the
    graphs are exhaustive up to permutations within each run of equal
    colors: a graph is kept only if no swap of two neighbouring
    same-colored positions makes it smaller (see _breaks_block_order),
    and the least graph of each orbit passes that test.  It prunes as
    soon as v passes the deciding index, since every adjacency that
    touches a vertex below v is final.
    """
    if deg == 0:
        return ((),)
    if deg >= r or (r * deg) % 2:
        return ()
    pairs = [i for i in range(r - 1) if layout is not None and layout[i] == layout[i + 1]]
    edges: List[Tuple[int, int]] = []
    out: List[Tuple[Tuple[int, int], ...]] = []
    # A frame holds v, the iterator over v's neighbour choices, and the
    # remaining valencies, neighbour bitmasks and edge count before v
    # chose.
    stack = [(0, combinations(range(1, r), deg), [deg] * r, [0] * r, 0)]
    while stack:
        v, choices, rem, adj, size = stack[-1]
        combo = next(choices, None)
        if combo is None:
            stack.pop()
            continue
        rem, adj = rem[:], adj[:]
        del edges[size:]
        rem[v] = 0
        for u in combo:
            rem[u] -= 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((v, u))
        w = v + 1
        while w < r and not rem[w]:
            w += 1
        if pairs and _breaks_block_order(adj, pairs, (1 << w) - 1):
            continue
        if w == r:
            out.append(tuple(edges))
            continue
        cands = [u for u in range(w + 1, r) if rem[u] and not adj[w] >> u & 1]
        if len(cands) >= rem[w]:
            stack.append((w, combinations(cands, rem[w]), rem, adj, len(edges)))
    return tuple(out)


_TI_CACHE: Dict[Tuple[int, ...], bool] = {}


def verify_totally_inadmissible(vector: Sequence[int]) -> bool:
    """True iff no (d-1)-regular constituent extends the pendant colors.

    Checked the hard way: the (d-1)-regular graphs on the r ends are
    generated exhaustively up to permutations of same-colored ends
    (such a permutation maps extensions to extensions), and for each
    one an exhaustive list coloring (each edge barred from its
    endpoints' pendant colors) must come up UNSAT.  No parity shortcut
    is consulted.  Results are invariant under permuting the vector,
    so they are cached by sorted vector.
    """
    r, d = _check_vector(vector)
    if r > 8:
        raise GraphError(f"enumeration is capped at r <= 8, got r = {r}")
    key = tuple(sorted(vector))
    if key in _TI_CACHE:
        return _TI_CACHE[key]
    # Per position, the colors other than its pendant color; an edge's
    # list is the AND of its two ends'.
    layout = pendant_layout(key)
    full = (1 << d) - 1
    ban = [full ^ (1 << c) for c in layout]
    result = True
    for edges in regular_constituents(r, d - 1, layout):
        masks = {eid: ban[a] & ban[b] for eid, (a, b) in enumerate(edges)}
        found, _ = solve_edge_coloring(Multigraph(range(r), edges), d, lists=masks)
        if found is not None:
            result = False
            break
    _TI_CACHE[key] = result
    return result


# ---- parity balance and truncations built from suns ---- #

def _color_vectors(x: Multigraph, coloring: EdgeColoring) -> Dict[int, Tuple[int, ...]]:
    """Each vertex's color vector: the count of each palette color on
    its incident edges.  An uncolored edge is a GraphError."""
    color_of = coloring.color_of
    vectors: Dict[int, Tuple[int, ...]] = {}
    for v in x.vertices:
        counts = [0] * coloring.palette_size
        for eid in x.incident(v):
            counts[color_of(eid)] += 1
        vectors[v] = tuple(counts)
    return vectors


def _balanced(vectors: Mapping[int, Tuple[int, ...]]) -> bool:
    # A vector's total is its vertex's valency.
    return all(c % 2 == sum(vec) % 2 for vec in vectors.values() for c in vec)


def is_parity_balanced(x: Multigraph, coloring: EdgeColoring) -> bool:
    """At every vertex, each palette color's incident count must have
    the parity of the valency (count 0 included for even valencies)."""
    return _balanced(_color_vectors(x, coloring))


def _build_sun(vector: Sequence[int]) -> SunColoring:
    """The sun for an admissible vector: odd total by the odd
    construction, even total by the even one."""
    return build_sun_odd(vector) if sum(vector) % 2 == 1 else build_sun_even(vector)


def _glue_suns(
    x: Multigraph, coloring: EdgeColoring, build: Callable[[Tuple[int, ...]], SunColoring]
) -> Tuple[Truncation, EdgeColoring]:
    """Glue one sun per cluster over a parity-balanced coloring of x.

    The matching edges keep coloring; build(vector) makes the sun for
    each distinct color vector, once.  A cluster meets its sun's blocks
    with its positions in ascending (color, end id) order.  Raises
    GraphError if coloring is not parity-balanced or build refuses a
    vector.
    """
    vectors = _color_vectors(x, coloring)
    if not _balanced(vectors):
        raise GraphError("coloring is not parity-balanced")
    suns: Dict[Tuple[int, ...], SunColoring] = {}
    for v, vec in vectors.items():
        if vec not in suns:
            try:
                suns[vec] = build(vec)
            except GraphError as exc:
                raise GraphError(f"vertex {v} with color vector {vec}: {exc}") from exc
    color_of = coloring.assignment
    colors: Dict[int, Dict[Tuple[int, int], int]] = {}
    for v in x.vertices:
        # Incident ids ascend, like the cluster positions of v.
        ids = x.incident(v)
        order = sorted(range(len(ids)), key=lambda p: (color_of[ids[p]], ids[p]))
        sun = suns[vectors[v]]
        colors[v] = {
            tuple(sorted((order[a], order[b]))): c
            for (a, b), c in zip(sun.constituent_edges, sun.constituent_colors)
        }
    # Each cluster's color map is keyed by its constituent edges.
    tr = Truncation(x, colors)
    palette = max([coloring.palette_size] + [sun.palette_size for sun in suns.values()])
    return tr, tr.color(color_of, colors.__getitem__, palette)


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
    return _glue_suns(x, coloring, _build_sun)


def regular_truncation(
    x: Multigraph, d: int, *, budget: Optional[int] = None
) -> Union[Tuple[Truncation, EdgeColoring], Refusal]:
    """A d-regular truncation of x with a proper d-coloring, or a Refusal
    at the violated clause, "i" or "ii", with the search nodes spent.

    Even d (clause ii): every valency must be even and at least d; all
    edges take one color and each constituent is pumped to valency d-1
    with whole matchings.  Odd d (clause i): odd-valency vertices need
    valency >= d, even-valency vertices >= d+1, and a coloring with d
    colors must exist where every color count is odd at odd-valency
    vertices and even at even-valency vertices; found by exhaustive
    backtracking with parity pruning, one connected component at a time.
    """
    if d < 2:
        raise GraphError(f"regular truncation needs d >= 2, got {d}")
    if x.size == 0:
        raise GraphError("source graph has no edges")
    if d % 2 == 0:
        for v in x.vertices:
            if x.valency(v) % 2 == 1:
                return Refusal(
                    f"vertex {v} has odd valency {x.valency(v)}; even d needs all even", 0, "ii"
                )
            if x.valency(v) < d:
                return Refusal(f"vertex {v} has valency {x.valency(v)} below d = {d}", 0, "ii")
        base = EdgeColoring({eid: 0 for eid in x.edge_ids}, 1)
        return _glue_suns(x, base, lambda vec: build_sun_valency(vec, d - 1))
    for v in x.vertices:
        val = x.valency(v)
        if val % 2 == 1 and val < d:
            return Refusal(f"vertex {v} has odd valency {val} below d = {d}", 0, "i")
        if val % 2 == 0 and val < d + 1:
            return Refusal(f"vertex {v} has even valency {val} below d + 1 = {d + 1}", 0, "i")
    found, nodes = _parity_coloring_search(x, d, budget)
    if found is None:
        return Refusal(f"no parity-conforming coloring with {d} colors exists", nodes, "i")
    return semiregular_truncation(x, found)


def _parity_coloring_search(
    x: Multigraph, d: int, budget: Optional[int] = None
) -> Tuple[Optional[EdgeColoring], int]:
    """Exhaustive search for a d-coloring where each color's count at a
    vertex matches the vertex's valency parity.

    One loop walks the edges sorted by (component, endpoints, id).  A
    vertex keeps the mask of colors it sees an odd number of times and
    its count of uncolored edges; a branch dies when the wrong parities
    outnumber those edges or differ from them in parity.  As in
    `solve_edge_coloring`, an edge tries the colors in use in its
    component plus one fresh color.  Returns (coloring or None, nodes),
    like `solve_edge_coloring`: backtracking past a component's first
    edge ends the search with None.  Raises UndecidedError when the
    budget runs out first.
    """
    comp_of = {v: i for i, comp in enumerate(x.components()) for v in comp}
    walk = sorted((comp_of[u], u, w, eid) for eid, (u, w) in x.edges.items())
    first = [i == 0 or walk[i - 1][0] != walk[i][0] for i in range(len(walk))]
    full = (1 << d) - 1
    want = {v: full if x.valency(v) % 2 else 0 for v in x.vertices}
    odd = dict.fromkeys(x.vertices, 0)
    left = {v: x.valency(v) for v in x.vertices}
    color: List[int] = [-1] * len(walk)
    use_count: List[int] = [0] * d
    used = 0  # bitmask of colors on at least one edge of this component
    nodes = 0
    i = 0
    while i < len(walk):
        _, u, w, _ = walk[i]
        c = color[i]
        if c >= 0:
            bit = 1 << c
            odd[u] ^= bit
            odd[w] ^= bit
            left[u] += 1
            left[w] += 1
            use_count[c] -= 1
            if not use_count[c]:
                used ^= bit
        elif first[i]:
            # A new component: no color is in use in it yet.
            use_count = [0] * d
            used = 0
        c += 1
        if c == min(d, used.bit_length() + 1):
            if first[i]:
                return None, nodes
            color[i] = -1
            i -= 1
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            raise UndecidedError(
                f"parity coloring search exceeded budget of {budget} nodes", nodes
            )
        color[i] = c
        bit = 1 << c
        if not use_count[c]:
            used |= bit
        use_count[c] += 1
        odd[u] ^= bit
        odd[w] ^= bit
        left[u] -= 1
        left[w] -= 1
        for v in (u, w):
            wrong = (odd[v] ^ want[v]).bit_count()
            if wrong > left[v] or (left[v] - wrong) % 2:
                break
        else:
            i += 1
    return EdgeColoring({eid: c for (*_, eid), c in zip(walk, color)}, d), nodes
