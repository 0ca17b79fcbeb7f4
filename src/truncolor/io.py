"""JSON formats for graphs, truncations, and colorings, plus DOT export.

Graph files are objects with "vertices" and "edges", where an edge's
position in the array is its id.  Colorings carry a palette size and a
color per edge id.  Truncation files bundle the source graph with a map
from source vertex to constituent edges over cluster positions.  A
complete truncation is fixed by its source, so it may be stored by
reference instead: the source plus "kind": "complete" and no
"constituents", which the loader rebuilds with complete_truncation.
Given "constituents", the loader reads them and ignores "kind"; without
them, any kind but "complete" is rejected.  All loaders point at the
offending file (and line, for syntax errors) when they reject input,
as they do a file that is not UTF-8, nests past the parser's recursion
limit or holds an int literal past the interpreter's digit limit, and
a JSON object that repeats a key is rejected, not read as its last
value.
A truncation's flat graph is written straight from its clusters by
flat_graph_to_obj, as graph_to_obj would write the built graph.

Loaders check only JSON shape, each list in two steps: a whole-list
pass with C-level builtins (the set of element types, pair lengths)
accepts valid input without a Python call per element, and only when
it fails does a walk name the first offending entry.  An int is a
plain int (type(x) is int), as EdgeColoring and Truncation read one:
no bool, no subclass.  Every other rule has one checker, the object
that enforces it, whose message comes behind the file prefix:
Multigraph names loops and unknown vertices, EdgeColoring a palette
that is no nonnegative plain int and colors that are no plain int in
the palette, and Truncation bad constituent pairs.
`verify` runs EdgeColoring's accept test on the parsed "colors" list in
place and builds the EdgeColoring only to name a bad value or to draw;
it checks a truncation's coloring cluster by cluster, and first_clash
names a clash on the flat graph.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from typing import Callable, Dict, Iterable, KeysView, List, Optional, Sequence, Tuple, TypeVar

from . import coloring as _coloring
from .coloring import EdgeColoring
from .errors import GraphError
from .multigraph import Multigraph
from .sun import SunColoring
from .truncation import Truncation, complete_truncation

__all__ = [
    "load_json",
    "graph_from_obj",
    "graph_to_obj",
    "flat_graph_to_obj",
    "load_graph",
    "coloring_from_obj",
    "coloring_to_obj",
    "load_coloring",
    "truncation_from_obj",
    "truncation_to_obj",
    "load_truncation",
    "sun_report",
    "first_clash",
    "to_dot",
]

# Color names for DOT rendering only; indices past the table wrap.
DOT_COLORS = (
    "red",
    "blue",
    "forestgreen",
    "orange",
    "purple",
    "brown",
    "cyan3",
    "magenta",
    "gold",
    "gray40",
    "black",
    "deeppink",
)


def load_json(path: str) -> object:
    def unique(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            for key, _ in pairs:
                _require(key not in seen, path, f"duplicate key {json.dumps(key)}")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise GraphError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except GraphError:
        raise  # a duplicate key, already named
    # Not UTF-8, nested too deep, a NUL in the path, or an int literal
    # past the digit limit.  int()'s text for the last advises calling
    # sys.set_int_max_str_digits(), which no command-line user can do.
    except (RecursionError, ValueError) as exc:
        if str(exc).startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            msg = f"an integer literal has more than {limit} digits, the interpreter's limit"
            raise GraphError(f"{path}: {msg}") from None
        raise GraphError(f"{path}: {exc}") from None


def _require(cond: bool, origin: str, msg: str) -> None:
    if not cond:
        raise GraphError(f"{origin}: {msg}")


def _only(xs: Iterable[object], kind: type) -> bool:
    """Every element has exactly type kind: no bool (JSON true and
    false) among ints, no subclass.  Walks name a failure by it too."""
    return set(map(type, xs)) <= {kind}


def graph_from_obj(obj: object, origin: str = "<graph>") -> Multigraph:
    _require(isinstance(obj, dict), origin, "graph must be a JSON object")
    _require("vertices" in obj, origin, 'missing "vertices"')
    _require("edges" in obj, origin, 'missing "edges"')
    vertices = obj["vertices"]
    edges = obj["edges"]
    _require(
        isinstance(vertices, list) and _only(vertices, int),
        origin,
        '"vertices" must be a list of integers',
    )
    vset = set(vertices)
    _require(len(vset) == len(vertices), origin, '"vertices" repeats a vertex id')
    _require(isinstance(edges, list), origin, '"edges" must be a list')
    if not (
        _only(edges, list)
        and set(map(len, edges)) <= {2}
        and _only(chain.from_iterable(edges), int)
    ):
        for i, e in enumerate(edges):
            _require(
                isinstance(e, list) and len(e) == 2 and _only(e, int),
                origin,
                f"edges[{i}] must be a pair of integers",
            )
    # Multigraph unpacks each [u, v] and stores its own tuples.
    return _built(origin, Multigraph, vertices, edges)


def load_graph(path: str) -> Multigraph:
    return graph_from_obj(load_json(path), path)


def _require_contiguous(ids: KeysView[int]) -> None:
    """The rule for writing a graph: its edge ids, distinct and ascending
    as a Multigraph keeps them, must be the ints 0 to len-1, since an
    edge's id is its position in "edges"."""
    if ids and not (
        _only(ids, int) and next(iter(ids)) == 0 and next(reversed(ids)) == len(ids) - 1
    ):
        raise GraphError("graph has non-contiguous edge ids; rebuild before serializing")


def graph_to_obj(g: Multigraph) -> Dict[str, object]:
    edges = g.edges
    _require_contiguous(edges.keys())
    return {
        "vertices": list(g.vertices),
        # Ids are contiguous, so the edge map holds them in id order.
        "edges": list(map(list, edges.values())),
    }


def flat_graph_to_obj(tr: Truncation) -> Dict[str, object]:
    """What graph_to_obj(tr.graph) writes, edges as tuples (json writes
    them as arrays), without building tr.graph."""
    # Constituent ids follow the last source edge id, so the flat ids
    # are contiguous exactly when the source's are; the ends of source
    # edges 0..m-1 are then 0..2m-1.
    _require_contiguous(tr.matching.keys())
    return {"vertices": list(range(2 * len(tr.matching))), "edges": list(tr.flat_edges())}


def _colors_of(obj: object, origin: str) -> List[object]:
    """obj's "colors" list, once obj has a coloring's JSON shape."""
    _require(isinstance(obj, dict), origin, "coloring must be a JSON object")
    _require("palette" in obj, origin, 'missing "palette"')
    _require("colors" in obj, origin, 'missing "colors"')
    colors = obj["colors"]
    _require(isinstance(colors, list), origin, '"colors" must be a list')
    return colors


def coloring_from_obj(obj: object, origin: str = "<coloring>") -> EdgeColoring:
    """The coloring obj describes: colors[i] on edge id i.  `verify`
    builds it only to name a bad value or to draw."""
    return _built(origin, EdgeColoring, enumerate(_colors_of(obj, origin)), obj["palette"])


def load_coloring(path: str) -> EdgeColoring:
    return coloring_from_obj(load_json(path), path)


def coloring_to_obj(coloring: EdgeColoring) -> Dict[str, object]:
    assignment = coloring.assignment
    # Colors are plain ints, so a None is an id missing from 0..n-1.
    colors = list(map(assignment.get, range(len(assignment))))
    if None in colors:
        raise GraphError("coloring has non-contiguous edge ids; rebuild before serializing")
    return {"palette": coloring.palette_size, "colors": colors}


T = TypeVar("T")


def _built(origin: str, build: Callable[..., T], *args) -> T:
    """build(*args), with its GraphError prefixed by origin."""
    try:
        return build(*args)
    except GraphError as exc:
        raise GraphError(f"{origin}: {exc}") from None


def truncation_from_obj(obj: object, origin: str = "<truncation>") -> Truncation:
    _require(isinstance(obj, dict), origin, "truncation must be a JSON object")
    _require("source" in obj, origin, 'missing "source"')
    if "constituents" not in obj:
        _require("kind" in obj, origin, 'missing "constituents" (or "kind": "complete")')
        kind = obj["kind"]
        _require(
            kind == "complete",
            origin,
            f'"kind" is {json.dumps(kind)}; without "constituents" it must be "complete"',
        )
        return _built(origin, complete_truncation, graph_from_obj(obj["source"], origin))
    source = graph_from_obj(obj["source"], origin)
    raw = obj["constituents"]
    _require(isinstance(raw, dict), origin, '"constituents" must be an object')
    constituents: Dict[int, List[Tuple[int, int]]] = {}
    for key, pairs in raw.items():
        try:
            v = int(key)
        except ValueError:
            v = None
        # Only the form truncation_to_obj writes: int() also reads " 1 ",
        # "+2", "1_0" and "00", which could name the vertex of another key.
        if v is None or key != str(v):
            raise GraphError(f"{origin}: constituent key {key!r} is not a vertex")
        _require(isinstance(pairs, list), origin, f"constituents[{key}] must be a list")
        # Lists become the tuples Truncation's whole-list check accepts;
        # anything else goes as it is, for Truncation to name.
        constituents[v] = list(map(tuple, pairs)) if _only(pairs, list) else pairs
    return _built(origin, Truncation, source, constituents)


def load_truncation(path: str) -> Truncation:
    return truncation_from_obj(load_json(path), path)


def truncation_to_obj(tr: Truncation) -> Dict[str, object]:
    """The truncation with its constituents spelled out.  Clusters that
    share a constituent tuple share one list of pairs in the object, so
    copy it before editing one cluster's pairs in place."""
    cons = tr.constituents
    lists = {key: list(map(list, cons[v])) for key, v in tr.representatives().items()}
    return {
        "source": graph_to_obj(tr.source),
        "constituents": {str(v): lists[id(cons[v])] for v in sorted(cons)},
    }


def sun_report(sun: SunColoring) -> Dict[str, object]:
    return {
        "vector": list(sun.vector),
        "palette": sun.palette_size,
        "pendant_colors": list(sun.pendant_colors),
        "constituent_edges": [list(p) for p in sun.constituent_edges],
        "constituent_colors": list(sun.constituent_colors),
        "verdict": "ADMISSIBLE",
    }


def first_clash(
    g: Multigraph, coloring: EdgeColoring | Sequence[int]
) -> Optional[Tuple[int, int, int]]:
    """coloring.first_clash, the one graph clash check, which `verify`
    runs from here on its parsed "colors" list: on a plain graph, and
    on a truncation's flat graph only to name a clash that
    Truncation.first_cluster_clash found."""
    return _coloring.first_clash(g, coloring)


def to_dot(
    g: Multigraph,
    coloring: Optional[EdgeColoring] = None,
    bold_ids: Iterable[int] = (),
    clusters: Optional[Dict[int, Sequence[int]]] = None,
) -> str:
    """DOT text; bold_ids render bold, clusters group vertices visually."""
    bold = set(bold_ids)
    lines = ["graph G {"]
    grouped: set = set()
    if clusters:
        for cv in sorted(clusters):
            lines.append(f"  subgraph cluster_{cv} {{")
            lines.append(f'    label="{cv}";')
            for v in clusters[cv]:
                lines.append(f"    {v};")
                grouped.add(v)
            lines.append("  }")
    for v in g.vertices:
        if v not in grouped:
            lines.append(f"  {v};")
    for eid in g.edge_ids:
        u, w = g.endpoints(eid)
        attrs = []
        if coloring is not None:
            c = coloring.color_of(eid)
            attrs.append(f"color={DOT_COLORS[c % len(DOT_COLORS)]}")
            attrs.append(f'label="{c}"')
        if eid in bold:
            attrs.append("style=bold")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {w}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
