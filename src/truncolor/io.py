"""JSON formats for graphs, truncations, and colorings, plus DOT export.

Graph files are objects with "vertices" and "edges", where an edge's
position in the array is its id.  Colorings carry a palette size and a
color per edge id.  Truncation files bundle the source graph with a map
from source vertex to constituent edges over cluster positions.  All
loaders point at the offending file (and line, for syntax errors) when
they reject input.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coloring import EdgeColoring
from .errors import GraphError
from .multigraph import Multigraph
from .sun import SunColoring
from .truncation import Truncation

__all__ = [
    "load_json",
    "graph_from_obj",
    "graph_to_obj",
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GraphError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise GraphError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _require(cond: bool, origin: str, msg: str) -> None:
    if not cond:
        raise GraphError(f"{origin}: {msg}")


def _is_int(x: object) -> bool:
    # JSON true/false load as bool, which Python counts as int.
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_obj(obj: object, origin: str = "<graph>") -> Multigraph:
    _require(isinstance(obj, dict), origin, "graph must be a JSON object")
    _require("vertices" in obj, origin, 'missing "vertices"')
    _require("edges" in obj, origin, 'missing "edges"')
    vertices = obj["vertices"]
    edges = obj["edges"]
    _require(
        isinstance(vertices, list) and all(_is_int(v) for v in vertices),
        origin,
        '"vertices" must be a list of integers',
    )
    _require(len(set(vertices)) == len(vertices), origin, '"vertices" repeats a vertex id')
    _require(isinstance(edges, list), origin, '"edges" must be a list')
    pairs: List[Tuple[int, int]] = []
    vset = set(vertices)
    for i, e in enumerate(edges):
        _require(
            isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e),
            origin,
            f"edges[{i}] must be a pair of integers",
        )
        u, w = e
        _require(u != w, origin, f"edges[{i}] is a loop at vertex {u}")
        _require(
            u in vset and w in vset,
            origin,
            f"edges[{i}] touches a vertex missing from \"vertices\"",
        )
        pairs.append((u, w))
    return Multigraph(vertices, pairs)


def load_graph(path: str) -> Multigraph:
    return graph_from_obj(load_json(path), path)


def graph_to_obj(g: Multigraph) -> Dict[str, object]:
    ids = g.edge_ids
    if tuple(ids) != tuple(range(len(ids))):
        raise GraphError("graph has non-contiguous edge ids; rebuild before serializing")
    return {
        "vertices": list(g.vertices),
        "edges": [list(g.endpoints(eid)) for eid in ids],
    }


def coloring_from_obj(obj: object, origin: str = "<coloring>") -> EdgeColoring:
    _require(isinstance(obj, dict), origin, "coloring must be a JSON object")
    _require("palette" in obj, origin, 'missing "palette"')
    _require("colors" in obj, origin, 'missing "colors"')
    palette = obj["palette"]
    colors = obj["colors"]
    _require(_is_int(palette) and palette >= 0, origin, '"palette" must be a nonnegative integer')
    _require(
        isinstance(colors, list) and all(_is_int(c) for c in colors),
        origin,
        '"colors" must be a list of integers',
    )
    for i, c in enumerate(colors):
        _require(0 <= c < palette, origin, f"colors[{i}] = {c} is outside the palette")
    return EdgeColoring(dict(enumerate(colors)), palette)


def load_coloring(path: str) -> EdgeColoring:
    return coloring_from_obj(load_json(path), path)


def coloring_to_obj(coloring: EdgeColoring) -> Dict[str, object]:
    ids = sorted(coloring.assignment)
    if tuple(ids) != tuple(range(len(ids))):
        raise GraphError("coloring has non-contiguous edge ids; rebuild before serializing")
    return {
        "palette": coloring.palette_size,
        "colors": [coloring.assignment[eid] for eid in ids],
    }


def truncation_from_obj(obj: object, origin: str = "<truncation>") -> Truncation:
    _require(isinstance(obj, dict), origin, "truncation must be a JSON object")
    _require("source" in obj, origin, 'missing "source"')
    _require("constituents" in obj, origin, 'missing "constituents"')
    source = graph_from_obj(obj["source"], origin)
    raw = obj["constituents"]
    _require(isinstance(raw, dict), origin, '"constituents" must be an object')
    constituents: Dict[int, List[Tuple[int, int]]] = {}
    for key, pairs in raw.items():
        try:
            v = int(key)
        except ValueError:
            raise GraphError(f"{origin}: constituent key {key!r} is not a vertex") from None
        _require(isinstance(pairs, list), origin, f"constituents[{key}] must be a list")
        cleaned: List[Tuple[int, int]] = []
        for i, pair in enumerate(pairs):
            _require(
                isinstance(pair, list) and len(pair) == 2 and all(_is_int(x) for x in pair),
                origin,
                f"constituents[{key}][{i}] must be a pair of integers",
            )
            cleaned.append((pair[0], pair[1]))
        constituents[v] = cleaned
    return Truncation(source, constituents)


def load_truncation(path: str) -> Truncation:
    return truncation_from_obj(load_json(path), path)


def truncation_to_obj(tr: Truncation) -> Dict[str, object]:
    return {
        "source": graph_to_obj(tr.source),
        "constituents": {
            str(v): [list(p) for p in tr.constituents[v]] for v in sorted(tr.constituents)
        },
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
    g: Multigraph, coloring: EdgeColoring
) -> Optional[Tuple[int, int, int]]:
    """(vertex, edge, edge) for the first same-colored incident pair."""
    for v in g.vertices:
        seen: Dict[int, int] = {}
        for eid in g.incident(v):
            c = coloring.color_of(eid)
            if c in seen:
                return (v, seen[c], eid)
            seen[c] = eid
    return None


def to_dot(
    g: Multigraph,
    coloring: Optional[EdgeColoring] = None,
    bold_ids: Iterable[int] = (),
    clusters: Optional[Dict[int, Sequence[int]]] = None,
    name: str = "G",
) -> str:
    """DOT text; bold_ids render bold, clusters group vertices visually."""
    bold = set(bold_ids)
    lines = [f"graph {name} {{"]
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
