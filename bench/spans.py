"""Span tracing of the truncolor modules, installed from outside.

The tracer wraps every public module-level function of each layer
module, plus the few constructors and the JSON emission that the
per-layer metrics name, and rebinds every reference to the original in
the package's module namespaces.  Nothing under ``src/`` changes.

Each call through a wrapper records one span: name, start, end and the
span that was open when it began.  Spans are kept in flat arrays in
memory and reduced to per-layer numbers by ``Tracer.layer_metrics``
after the repetition.  A layer's self time is its spans' duration minus
the part covered by their child spans.

Every wrapper is one extra Python frame.  The odd-valency family has
instances within a few frames of the interpreter's default recursion
limit, so each wrapper raises the limit by one while it is open: the
traced program keeps exactly the head-room it has untraced, and the
RecursionError at D >= 49 stays where it is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List

# The layers are the package's modules, in the order metrics are listed.
LAYERS = (
    "cli",
    "io",
    "truncation",
    "canonical",
    "coloring",
    "complete_coloring",
    "cyclic_coloring",
    "strong_arboreal",
    "sun",
    "multigraph",
)

# Functions the named per-layer metrics are built from.  If a refactor
# removes or renames one, installing the tracer fails instead of
# silently reporting zero for a layer.
REQUIRED = {
    "cli": ("main",),
    "io": (
        "load_json",
        "load_graph",
        "graph_from_obj",
        "coloring_from_obj",
        "truncation_from_obj",
        "graph_to_obj",
        "coloring_to_obj",
        "truncation_to_obj",
        "first_clash",
    ),
    "truncation": ("Truncation",),
    "canonical": ("class_of_pair",),
    "coloring": ("solve_edge_coloring", "list_edge_coloring", "is_proper", "chromatic_index"),
    "complete_coloring": ("color_complete_truncation", "find_edge_feasible"),
    "cyclic_coloring": ("cyclic_even_valency",),
    "strong_arboreal": ("color_by_strong",),
    "sun": ("build_sun_even", "build_sun_odd", "regular_constituents", "verify_totally_inadmissible"),
    "multigraph": ("Multigraph",),
}

PARSE = {"io." + n for n in ("load_json", "load_graph", "load_coloring", "load_truncation",
                             "graph_from_obj", "coloring_from_obj", "truncation_from_obj")}
SERIALIZE = {"io." + n for n in ("graph_to_obj", "coloring_to_obj", "truncation_to_obj",
                                 "sun_report", "emit")}
SEARCH = "coloring.solve_edge_coloring"
BUILDS = {"sun.build_sun_even", "sun.build_sun_odd"}
# Layer metrics that are times, by name suffix.
TIME_SUFFIXES = ("_s", "_ns_per_node", "_us_per_call")
FEASIBLE_PARENTS = {"complete_coloring.color_complete_truncation",
                    "complete_coloring.find_edge_feasible"}


class TraceSetupError(RuntimeError):
    """A function the per-layer metrics depend on is missing."""


class Tracer:
    """Records spans while ``on`` is set; inert otherwise.  ``clock``
    gives span times, by default time.perf_counter."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.on = False
        self.base_limit = sys.getrecursionlimit()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Search nodes and edges assigned (solve_edge_coloring), or
        # constituents returned (regular_constituents); 0 elsewhere.
        self.nodes = array("q")
        self.assigned = array("q")
        self.open: List[int] = []
        self.frames = 0

    # ---- recording ---- #

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.open[-1] if self.open else -1)
        self.nodes.append(0)
        self.assigned.append(0)
        self.end.append(0.0)
        self.open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        while self.open and self.open.pop() != idx:
            pass

    def reset_stack(self) -> None:
        """Close whatever an interrupted operation left open."""
        now = self.clock()
        for idx in self.open:
            if self.end[idx] == 0.0:
                self.end[idx] = now
        self.open.clear()
        self.frames = 0
        sys.setrecursionlimit(self.base_limit)

    def wrap(self, fn: Callable, name: str, on_result=None, on_error=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            tracer.frames += 1
            sys.setrecursionlimit(tracer.base_limit + tracer.frames)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer, idx, exc)
                raise
            finally:
                tracer.finish(idx)
                tracer.frames -= 1
                try:
                    sys.setrecursionlimit(tracer.base_limit + tracer.frames)
                except RecursionError:
                    pass  # the stack is at the limit; the next wrapper exit lowers it
            if on_result is not None:
                on_result(tracer, idx, result)
            return result

        return functools.update_wrapper(traced, fn)

    # ---- reduction ---- #

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer numbers of every span recorded so far."""
        n = len(self.name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        label = [names[self.name[i]] for i in range(n)]
        layer = [lab.split(".", 1)[0] for lab in label]

        out: Dict[str, float] = {}
        for mod in LAYERS:
            out[f"{mod}.self_s"] = 0.0
            out[f"{mod}.calls"] = 0
        m = {
            "io.parse_s": 0.0,
            "io.serialize_s": 0.0,
            "io.first_clash_s": 0.0,
            "truncation.build_s": 0.0,
            "truncation.builds": 0,
            "coloring.check_s": 0.0,
            "coloring.search_s": 0.0,
            "coloring.search_calls": 0,
            "coloring.search_nodes": 0,
            "complete_coloring.feasible_nodes": 0,
            "complete_coloring.list_nodes": 0,
            "sun.enumerate_s": 0.0,
            "sun.constituents": 0,
            "sun.refute_s": 0.0,
            "sun.build_s": 0.0,
            "sun.exact_fallbacks": 0,
        }
        counted_s = 0.0
        counted_nodes = 0
        assigned = 0
        fallback_builds = set()
        modules_s = 0.0
        for i in range(n):
            lab, lay = label[i], layer[i]
            self_s = dur[i] - child[i]
            if lay in LAYERS:
                out[f"{lay}.self_s"] += self_s
                out[f"{lay}.calls"] += 1
                if self.parent[i] < 0 or layer[self.parent[i]] not in LAYERS:
                    modules_s += dur[i]
            if lab in PARSE:
                m["io.parse_s"] += self_s
            elif lab in SERIALIZE:
                m["io.serialize_s"] += self_s
            elif lab == "io.first_clash":
                m["io.first_clash_s"] += dur[i]
            elif lab in ("truncation.Truncation", "truncation.flatten"):
                m["truncation.build_s"] += dur[i]
                if lab == "truncation.Truncation":
                    m["truncation.builds"] += 1
            elif lab == "coloring.is_proper":
                m["coloring.check_s"] += dur[i]
            elif lab == SEARCH:
                m["coloring.search_s"] += dur[i]
                m["coloring.search_calls"] += 1
                if self.nodes[i] >= 0:
                    m["coloring.search_nodes"] += self.nodes[i]
                    counted_s += dur[i]
                    counted_nodes += self.nodes[i]
                    assigned += self.assigned[i]
                p = self.parent[i]
                if p >= 0 and label[p] in FEASIBLE_PARENTS:
                    m["complete_coloring.feasible_nodes"] += max(self.nodes[i], 0)
                elif (p >= 0 and label[p] == "coloring.list_edge_coloring"
                      and self.parent[p] >= 0
                      and label[self.parent[p]] == "complete_coloring.color_complete_truncation"):
                    m["complete_coloring.list_nodes"] += max(self.nodes[i], 0)
            elif lab == "sun.regular_constituents":
                m["sun.enumerate_s"] += dur[i]
                m["sun.constituents"] += self.nodes[i]
            elif lab == "sun.verify_totally_inadmissible":
                m["sun.refute_s"] += dur[i]
            elif lab in BUILDS:
                m["sun.build_s"] += dur[i]
            elif lab == "coloring.list_edge_coloring":
                p = self.parent[i]
                while p >= 0:
                    if label[p] in BUILDS:
                        fallback_builds.add(p)
                    p = self.parent[p]
        m["sun.exact_fallbacks"] = len(fallback_builds)
        # multigraph has no public function: its only span is the
        # constructor, so its layer totals are the construction totals.
        m["multigraph.init_s"] = out.pop("multigraph.self_s")
        m["multigraph.inits"] = out.pop("multigraph.calls")
        m["coloring.search_ns_per_node"] = counted_s / counted_nodes * 1e9 if counted_nodes else 0.0
        m["coloring.search_us_per_call"] = (
            m["coloring.search_s"] / m["coloring.search_calls"] * 1e6
            if m["coloring.search_calls"] else 0.0
        )
        m["coloring.search_yield"] = assigned / counted_nodes if counted_nodes else 0.0
        out.update(m)
        out["trace.modules_s"] = modules_s
        return out


# ---- installation ---- #

def _search_result(tracer: Tracer, idx: int, result) -> None:
    assignment, nodes = result
    tracer.nodes[idx] = nodes
    tracer.assigned[idx] = len(assignment) if assignment is not None else 0


def _search_error(tracer: Tracer, idx: int, exc: BaseException) -> None:
    # UndecidedError carries the nodes spent; a deadline or a
    # RecursionError leaves the count unknown (-1, left out of ratios).
    nodes = getattr(exc, "nodes", None)
    tracer.nodes[idx] = nodes if isinstance(nodes, int) else -1


def _count_result(tracer: Tracer, idx: int, result) -> None:
    tracer.nodes[idx] = len(result)


HOOKS = {
    SEARCH: (_search_result, _search_error),
    "sun.regular_constituents": (_count_result, None),
}


class _TracedJson:
    """Stands in for the ``json`` module inside ``truncolor.cli``, so
    JSON emission counts as serialization whatever helper calls it."""

    def __init__(self, tracer: Tracer) -> None:
        self.dump = tracer.wrap(json.dump, "io.emit")
        self.dumps = tracer.wrap(json.dumps, "io.emit")

    def __getattr__(self, attr: str):
        return getattr(json, attr)


def install(tracer: Tracer) -> None:
    """Wrap the layer modules in place; raises TraceSetupError on any
    missing module, function or attribute the metrics rely on."""
    modules = {}
    for mod in LAYERS:
        try:
            modules[mod] = importlib.import_module(f"truncolor.{mod}")
        except ImportError as exc:
            raise TraceSetupError(f"layer module truncolor.{mod} is missing: {exc}") from None
    for mod, names in REQUIRED.items():
        for fname in names:
            if not callable(getattr(modules[mod], fname, None)):
                raise TraceSetupError(f"truncolor.{mod}.{fname} no longer exists")

    replace: Dict[int, Callable] = {}
    for mod, module in modules.items():
        wrapped = 0
        for fname, obj in list(vars(module).items()):
            if fname.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            span = f"{mod}.{fname}"
            on_result, on_error = HOOKS.get(span, (None, None))
            replace[id(obj)] = tracer.wrap(obj, span, on_result, on_error)
            wrapped += 1
        if wrapped == 0 and mod not in ("multigraph", "truncation"):
            raise TraceSetupError(f"truncolor.{mod} has no public function left to trace")

    multigraph_cls = modules["multigraph"].Multigraph
    truncation_cls = modules["truncation"].Truncation
    graph_prop = inspect.getattr_static(truncation_cls, "graph", None)
    if not isinstance(graph_prop, property):
        raise TraceSetupError("truncolor.truncation.Truncation.graph is no longer a property")
    if not hasattr(modules["cli"], "json"):
        raise TraceSetupError("truncolor.cli no longer emits through the json module")

    multigraph_cls.__init__ = tracer.wrap(multigraph_cls.__init__, "multigraph.Multigraph")
    truncation_cls.__init__ = tracer.wrap(truncation_cls.__init__, "truncation.Truncation")
    flatten = tracer.wrap(graph_prop.fget, "truncation.flatten")
    plain = graph_prop.fget

    def graph(self):
        # Only the first access flattens; later ones read a cache and
        # would flood the trace with empty spans.
        if vars(self).get("_flat", None) is None:
            return flatten(self)
        return plain(self)

    truncation_cls.graph = property(graph, doc=graph_prop.__doc__)
    modules["cli"].json = _TracedJson(tracer)

    for name, module in list(sys.modules.items()):
        if name != "truncolor" and not name.startswith("truncolor."):
            continue
        space = vars(module)
        for attr, obj in list(space.items()):
            new = replace.get(id(obj))
            if new is not None and new.__wrapped__ is obj:
                space[attr] = new
