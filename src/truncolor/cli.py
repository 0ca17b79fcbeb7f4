"""Command-line front end.

Every subcommand reads JSON files and returns its exit code, its JSON
result and what --dot should draw; `main` alone writes the result to
stdout as one compact JSON line and the drawing to the --dot file.
A truncation's flat "vertices" and "edges" are written straight from
its clusters (io.flat_graph_to_obj), and its drawing hands over the
truncation itself, so the flat graph is built only for --dot, for
`verify`'s check and for the cyclic demos' output.
`color-complete` bundles and `truncate --kind complete` store their
complete truncation by reference, as the source plus "kind":
"complete"; every other truncation spells out its constituents.
`verify` takes a bundle, or a graph or truncation file plus a file
holding the coloring itself or nesting it under "coloring", as a
`color-strong` result does; a bundle's flat "vertices" and
"edges", like those a `truncate` file carries, must match its
truncation's flattened graph.  They are compared with the truncation's
lazy flat-edge reader and dropped before that graph is built.  Exit
codes: 0 for success, 1 for domain errors (bad input, failed
verification, inapplicable route, unwritable --dot path) and usage
errors, 2 when the exact oracle ran out of budget before deciding; a
negative --budget or --edge-cap is a domain error.

`main` pauses the cyclic garbage collector from argument parsing to its
return, JSON and --dot output included, and turns it back on only if
it was on before, however the command ends.  This is safe because a
command's data (parsed JSON lists, graphs, truncations, colorings)
form no reference cycles: a collection could free nothing, and would
only re-walk them.  Library callers keep their own collector policy.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from itertools import chain
from operator import eq
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple, Union

from .catalog import catalog as named_instances, k4 as _k4, q3 as _q3
from .coloring import (
    CLASS_I,
    DEFAULT_EDGE_CAP,
    EdgeColoring,
    chromatic_index,
    solve_edge_coloring,
)
from .complete_coloring import color_complete_truncation
from .cyclic_coloring import (
    color_via_enabling,
    cyclic_class_one,
    cyclic_even_valency,
    cyclic_from_class_one,
)
from .errors import GraphError, Refusal, UndecidedError
from .io import (
    coloring_from_obj,
    coloring_to_obj,
    first_clash,
    flat_graph_to_obj,
    graph_from_obj,
    graph_to_obj,
    load_graph,
    load_json,
    load_truncation,
    sun_report,
    to_dot,
    truncation_from_obj,
    truncation_to_obj,
)
from .multigraph import Multigraph
from .strong_arboreal import color_by_strong
from .sun import _build_sun, admissible, verify_totally_inadmissible
from .truncation import (
    Truncation,
    arboreal_truncation,
    complete_truncation,
    cyclic_truncation,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_UNDECIDED = 2


# A drawing is what --dot renders: a graph, or a truncation that is
# flattened only then and drawn with its clusters and bold matching,
# and its coloring if any.
Drawing = Tuple[Union[Multigraph, Truncation], Optional[EdgeColoring]]
# Every subcommand returns (exit code, JSON object, drawing or None).
Result = Tuple[int, Dict[str, object], Optional[Drawing]]


def _complete_obj(tr: Truncation) -> Dict[str, object]:
    """A complete truncation by reference: its source and kind, which
    truncation_from_obj rebuilds with complete_truncation."""
    return {"source": graph_to_obj(tr.source), "kind": "complete"}


def _bundle(
    obj: Dict[str, object], tr_obj: Dict[str, object], tr: Truncation, coloring: EdgeColoring
) -> Result:
    """Success with obj followed by the truncation as tr_obj, its flat
    graph and the coloring: the bundle `verify` reads back."""
    obj["truncation"] = tr_obj
    obj.update(flat_graph_to_obj(tr))
    obj["coloring"] = coloring_to_obj(coloring)
    return EXIT_OK, obj, (tr, coloring)


def _parse_vector(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise GraphError(f"vector {text!r} is not a comma-separated integer list") from None


_TRUNCATIONS = {
    "complete": complete_truncation,
    "cyclic": cyclic_truncation,
    "arboreal": arboreal_truncation,
}


def cmd_truncate(args) -> Result:
    tr = _TRUNCATIONS[args.kind](load_graph(args.graph))
    obj = {
        **(_complete_obj(tr) if args.kind == "complete" else truncation_to_obj(tr)),
        "kind": args.kind,
        **flat_graph_to_obj(tr),
        "max_valency": tr.max_valency(),
    }
    return EXIT_OK, obj, (tr, None)


def cmd_color_complete(args) -> Result:
    g = load_graph(args.graph)
    out = color_complete_truncation(g, budget=args.budget)
    if isinstance(out, Refusal):
        obj = {
            "class": "II",
            "delta": g.max_valency(),
            "witness": {"nodes": out.nodes, "reason": out.reason},
        }
        if args.witness:
            return EXIT_OK, obj, None
        print(f"class II: {out.reason}", file=sys.stderr)
        return EXIT_DOMAIN, obj, None
    tr, coloring = out
    return _bundle({"class": "I", "delta": g.max_valency()}, _complete_obj(tr), tr, coloring)


def cmd_cyclic_color(args) -> Result:
    if args.enabling_edges is not None and args.strategy != "enabling":
        raise GraphError("--enabling-edges applies to the enabling strategy only")
    if args.seed is not None and args.strategy != "even":
        raise GraphError("--seed applies to the even strategy only")
    g = load_graph(args.graph)
    obj: Dict[str, object] = {"strategy": args.strategy}
    if args.strategy == "even":
        orders = None
        if args.seed is not None:
            rng = random.Random(args.seed)
            orders = {
                v: rng.sample(range(g.valency(v)), g.valency(v)) for v in g.vertices
            }
            obj["orders"] = {str(v): list(o) for v, o in sorted(orders.items())}
        tr, coloring = cyclic_even_valency(g, orders)
    elif args.strategy == "classone":
        d = g.regular_valency()
        if d is None or d % 2 == 0 or d < 3:
            raise GraphError("classone strategy needs a regular source of odd valency >= 3")
        solved, _ = solve_edge_coloring(g, d, budget=args.budget)
        if solved is None:
            raise GraphError(
                f"source admits no proper {d}-coloring; the folding route does not apply"
            )
        tr, coloring = cyclic_from_class_one(g, EdgeColoring(solved, d))
    elif args.enabling_edges is None:
        out = cyclic_class_one(g, budget=args.budget)
        if isinstance(out, Refusal):
            print(f"error: enabling strategy: {out.reason}", file=sys.stderr)
            obj.update(applicable=False, reason=out.reason, nodes=out.nodes)
            return EXIT_DOMAIN, obj, None
        tr, coloring = out
    else:
        y = _parse_vector(args.enabling_edges) if args.enabling_edges else []
        if len(set(y)) != len(y):
            raise GraphError("--enabling-edges repeats an edge id")
        obj["enabling_edges"] = sorted(y)
        tr, coloring = color_via_enabling(g, y)
    return _bundle(obj, truncation_to_obj(tr), tr, coloring)


def cmd_color_strong(args) -> Result:
    tr = load_truncation(args.truncation)
    out = color_by_strong(tr, budget=args.budget)
    if isinstance(out, Refusal):
        print(f"not applicable: {out.reason}", file=sys.stderr)
        obj = {
            "applicable": False,
            "vertex": out.at,
            "delta": tr.max_valency(),
            "reason": out.reason,
            "nodes": out.nodes,
        }
        return EXIT_DOMAIN, obj, None
    obj = {"applicable": True, "delta": tr.max_valency(), "coloring": coloring_to_obj(out)}
    return EXIT_OK, obj, (tr, out)


def cmd_sun(args) -> Result:
    vector = _parse_vector(args.vector)
    r, d = sum(vector), len(vector)
    if admissible(vector):
        sun = _build_sun(vector)
        return EXIT_OK, sun_report(sun), sun.sun_graph()
    if d == 3 or (r <= 8 and verify_totally_inadmissible(vector)):
        verdict = "TOTALLY_INADMISSIBLE"
    else:
        verdict = "INADMISSIBLE"
    return EXIT_OK, {"vector": vector, "verdict": verdict}, None


def cmd_oracle(args) -> Result:
    g = load_graph(args.graph)
    res = chromatic_index(g, budget=args.budget, edge_cap=args.edge_cap)
    if not res.decided:
        print("oracle undecided within budget", file=sys.stderr)
        obj = {"decided": False, "lower_bound": res.lower_bound, "nodes": res.nodes}
        return EXIT_UNDECIDED, obj, None
    delta = g.max_valency()
    obj = {
        "decided": True,
        "chi": res.chi,
        "delta": delta,
        "class": "I" if res.classify(delta) == CLASS_I else "II",
        "nodes": res.nodes,
    }
    obj["coloring"] = coloring_to_obj(res.certificate)
    return EXIT_OK, obj, (g, res.certificate)


def _verify_graph(obj: object, origin: str) -> Multigraph:
    """The graph a verify input describes: a bundle's truncation, a
    truncation (with its constituents, or by reference as "kind"), or a
    plain graph.  A bundle or truncation file that also carries
    "vertices" and "edges" must carry the truncation's own flattened
    graph.  They are checked against the truncation's lazy flat-edge
    reader and its ends, then dropped from obj before the flat graph
    is built, so the file's lists and the graph are never held at once.
    """
    if isinstance(obj, dict) and "truncation" in obj:
        tr = truncation_from_obj(obj["truncation"], origin)
    elif isinstance(obj, dict) and "source" in obj and ("constituents" in obj or "kind" in obj):
        tr = truncation_from_obj(obj, origin)
    else:
        return graph_from_obj(obj, origin)
    if "edges" in obj:
        _check_flat_edges(obj.pop("edges"), tr, origin)
    if "vertices" in obj:
        vertices = obj.pop("vertices")
        # The flat graph's vertices are the ends, in source edge order.
        ends = chain.from_iterable(tr.matching.values())
        if not (
            isinstance(vertices, list)
            and len(vertices) == 2 * len(tr.matching)
            and all(map(eq, vertices, ends))
        ):
            raise GraphError(f'{origin}: "vertices" differ from the flattened truncation\'s')
    return tr.graph


def _check_flat_edges(edges: object, tr: Truncation, origin: str) -> None:
    """edges must list tr's flat edges in id order, each as [u, v] with
    u < v; else a GraphError names the first index that differs."""
    if not isinstance(edges, list):
        raise GraphError(f'{origin}: "edges" must be a list')
    size = len(tr.matching) + sum(map(len, tr.constituents.values()))
    if len(edges) == size and all(map(eq, edges, map(list, tr.flat_edges()))):
        return
    for i, (have, want) in enumerate(zip(edges, map(list, tr.flat_edges()))):
        if have != want:
            raise GraphError(
                f"{origin}: edges[{i}] is {have}, but edge {i} of the flattened "
                f"truncation is {want}"
            )
    i = min(len(edges), size)
    have = edges[i] if i < len(edges) else "missing"
    raise GraphError(
        f"{origin}: edges[{i}] is {have}, but the flattened truncation has {size} edges"
    )


def cmd_verify(args) -> Result:
    if not 1 <= len(args.files) <= 2:
        raise GraphError(f"verify takes one or two files, got {len(args.files)} files")
    first = load_json(args.files[0])
    single = len(args.files) == 1
    if single and not (isinstance(first, dict) and "coloring" in first):
        raise GraphError(
            f"{args.files[0]}: single-file verify needs a bundle with a \"coloring\" key"
        )
    # _verify_graph drops the first file's flat lists before it builds
    # the graph, and the rest of the file but its coloring goes before
    # the coloring's dict exists: no two large structures are alive at
    # once, which keeps peak memory down on large bundles.
    g = _verify_graph(first, args.files[0])
    colors = first["coloring"] if single else load_json(args.files[1])
    del first
    # A second file may nest its coloring, as a color-strong result does.
    if not single and isinstance(colors, dict) and "coloring" in colors:
        colors = colors["coloring"]
    # The coloring's dict shares the graph's id ints, and the parsed
    # list goes before the clash check: on a large bundle each would be
    # one more object per edge.
    coloring = coloring_from_obj(colors, args.files[-1], g.edges.keys())
    del colors
    if coloring.assignment.keys() != g.edges.keys():
        raise GraphError("coloring does not cover exactly the graph's edges")
    clash = first_clash(g, coloring)
    if clash is None:
        used = len(coloring.used_colors())
        obj = {"proper": True, "palette": coloring.palette_size, "colors_used": used}
        return EXIT_OK, obj, (g, coloring)
    v, e1, e2 = clash
    c = coloring.color_of(e1)
    print(f"edges {e1} and {e2} share color {c} at vertex {v}", file=sys.stderr)
    return EXIT_DOMAIN, {"proper": False, "vertex": v, "clash": [e1, e2], "color": c}, None


_CYCLIC_DEMOS = {"q3-ccc": _q3, "truncated-tetrahedron": _k4}


def cmd_demo(args) -> Result:
    name = args.name
    if name in _CYCLIC_DEMOS:
        tr = cyclic_truncation(_CYCLIC_DEMOS[name](), None)
        g, extra = tr.graph, truncation_to_obj(tr)
    else:
        tr, g, extra = None, named_instances()[name](), {}
    obj = {
        "name": name,
        **graph_to_obj(g),
        **extra,
        "order": g.order,
        "size": g.size,
        "max_valency": g.max_valency(),
    }
    return EXIT_OK, obj, (g if tr is None else tr, None)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2 ("undecided"); subparsers inherit this."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_DOMAIN, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="truncolor",
        description="Generalized truncations of multigraphs and their edge colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, budget: bool = True) -> None:
        p.add_argument("--dot", metavar="PATH", help="write a DOT rendering here")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="search node cap")

    p = sub.add_parser("truncate", help="build a truncation from a graph file")
    p.add_argument("graph")
    p.add_argument("--kind", choices=tuple(_TRUNCATIONS), default="complete")
    common(p, budget=False)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("color-complete", help="color a complete truncation optimally")
    p.add_argument("graph")
    p.add_argument(
        "--witness",
        action="store_true",
        help="treat a class II witness as a successful output",
    )
    common(p)
    p.set_defaults(func=cmd_color_complete)

    p = sub.add_parser("cyclic-color", help="3-color a cyclic truncation")
    p.add_argument("graph")
    p.add_argument("--strategy", choices=("even", "classone", "enabling"), required=True)
    p.add_argument(
        "--enabling-edges",
        default=None,
        help="comma-separated edge ids for the enabling strategy; without them "
        "it searches for a parity-balanced 3-coloring",
    )
    p.add_argument("--seed", type=int, default=None, help="randomize even-route cycle orders")
    common(p)
    p.set_defaults(func=cmd_cyclic_color)

    p = sub.add_parser("color-strong", help="color a truncation via strong constituents")
    p.add_argument("truncation")
    common(p)
    p.set_defaults(func=cmd_color_strong)

    p = sub.add_parser("sun", help="build or refute a sun for a pendant vector")
    p.add_argument("--vector", required=True, help="comma-separated counts, e.g. 2,1,1")
    common(p, budget=False)
    p.set_defaults(func=cmd_sun)

    p = sub.add_parser("oracle", help="exact chromatic index")
    p.add_argument("graph")
    p.add_argument(
        "--edge-cap", type=int, default=DEFAULT_EDGE_CAP, help="largest size to attempt"
    )
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a bundle, or a coloring against its graph")
    p.add_argument("files", nargs="*", metavar="FILE")
    common(p, budget=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="emit a named instance")
    p.add_argument(
        "name",
        choices=(*named_instances(), *_CYCLIC_DEMOS),
    )
    common(p, budget=False)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for flag, value in (
        ("--budget", getattr(args, "budget", None)),
        ("--edge-cap", getattr(args, "edge_cap", None)),
    ):
        if value is not None and value < 0:
            print(f"error: {flag} must be nonnegative", file=sys.stderr)
            return EXIT_DOMAIN
    # The command's data hold no reference cycles (see the module
    # docstring): pause the collector for it, then restore the caller's.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if was_enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command, write its JSON and drawing; the exit code."""
    try:
        code, obj, drawing = args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    # No reference cycles (see the module docstring), so none to look for.
    sys.stdout.write(json.dumps(obj, check_circular=False) + "\n")
    if args.dot and drawing is not None:
        shape, coloring = drawing
        if isinstance(shape, Truncation):
            g, bold, clusters = shape.graph, shape.matching_ids, shape.clusters
        else:
            g, bold, clusters = shape, (), None
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(to_dot(g, coloring, bold, clusters))
        except OSError as exc:
            print(f"error: {args.dot}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
