"""The strict loaders check JSON shape, and the objects they build check
every other rule; each check takes whole lists first and walks element
by element only after that fails.  These properties pin that the two
steps together accept exactly the valid objects, build them as a plain
per-element construction would, and reject every mutated object with
the message of the rule's one checker, naming its first bad entry."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncolor.coloring import EdgeColoring
from truncolor.errors import GraphError
from truncolor.io import (
    coloring_from_obj,
    graph_from_obj,
    truncation_from_obj,
    truncation_to_obj,
)
from truncolor.multigraph import Multigraph
from truncolor.truncation import Truncation

# Values of the wrong type in place of an integer.
NOT_INTS = (True, False, 1.0, [0], None, "0")


@st.composite
def graph_objs(draw, min_edges=0):
    """A valid graph object: distinct vertex ids in any order, edges
    between distinct vertices in either orientation."""
    vertices = draw(st.lists(st.integers(-5, 40), min_size=2, max_size=8, unique=True))
    pair = st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True)
    edges = draw(st.lists(pair, min_size=min_edges, max_size=14))
    return {"vertices": vertices, "edges": edges}


@st.composite
def truncation_objs(draw):
    """A valid truncation object over a source with no isolated vertex:
    each constituent a random simple graph on its cluster, pairs in any
    order, and either all ascending (as truncation_to_obj writes them)
    or in any orientation."""
    graph = draw(graph_objs(min_edges=1))
    used = sorted({v for e in graph["edges"] for v in e})
    graph["vertices"] = used
    valency = {v: sum(e.count(v) for e in graph["edges"]) for v in used}
    ascending = draw(st.booleans())
    constituents = {}
    for v in used:
        size = valency[v]
        every = [[i, j] for i in range(size) for j in range(i + 1, size)]
        chosen = draw(st.lists(st.sampled_from(every), unique_by=tuple)) if every else []
        if ascending:
            constituents[str(v)] = chosen
        else:
            constituents[str(v)] = [draw(st.sampled_from([p, p[::-1]])) for p in chosen]
    return {"source": graph, "constituents": constituents}


def rejects(load, obj, message):
    with pytest.raises(GraphError) as exc:
        load(obj)
    assert str(exc.value) == message


class TestGraphObjects:
    @given(graph_objs())
    @settings(max_examples=100, deadline=None)
    def test_valid_objects_load_as_plain_construction(self, obj):
        g = graph_from_obj(obj)
        assert g.vertices == tuple(sorted(obj["vertices"]))
        assert g.edges == {i: (min(e), max(e)) for i, e in enumerate(obj["edges"])}
        plain = Multigraph(obj["vertices"], [tuple(e) for e in obj["edges"]])
        assert g.edges == plain.edges
        assert all(g.incident(v) == plain.incident(v) for v in g.vertices)

    @given(graph_objs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bad_vertex_lists(self, obj, data):
        bad = copy.deepcopy(obj)
        k = data.draw(st.integers(0, len(bad["vertices"]) - 1))
        if data.draw(st.booleans()):
            bad["vertices"][k] = data.draw(st.sampled_from(NOT_INTS))
            message = '<graph>: "vertices" must be a list of integers'
        else:
            bad["vertices"].insert(k, data.draw(st.sampled_from(bad["vertices"])))
            message = '<graph>: "vertices" repeats a vertex id'
        rejects(graph_from_obj, bad, message)

    @given(graph_objs(min_edges=1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_edges_name_their_index(self, obj, data):
        bad = copy.deepcopy(obj)
        i = data.draw(st.integers(0, len(bad["edges"]) - 1))
        side = data.draw(st.integers(0, 1))
        kind = data.draw(st.sampled_from(["type", "length", "not a list", "loop", "unknown"]))
        if kind == "type":
            bad["edges"][i][side] = data.draw(st.sampled_from(NOT_INTS))
            message = f"<graph>: edges[{i}] must be a pair of integers"
        elif kind == "length":
            bad["edges"][i].append(bad["edges"][i][0])
            message = f"<graph>: edges[{i}] must be a pair of integers"
        elif kind == "not a list":
            bad["edges"][i] = tuple(bad["edges"][i])
            message = f"<graph>: edges[{i}] must be a pair of integers"
        elif kind == "loop":
            u = bad["edges"][i][side]
            bad["edges"][i] = [u, u]
            message = f"<graph>: edge {i} is a loop at vertex {u}; loops are not supported"
        else:
            x = bad["edges"][i][side] = max(bad["vertices"]) + 1
            message = f"<graph>: edge {i} references unknown vertex {x}"
        rejects(graph_from_obj, bad, message)


class TestColoringObjects:
    """EdgeColoring checks colors, so the loader and the constructor
    accept the same colorings and name a bad color alike."""

    @pytest.mark.parametrize(
        "build, prefix",
        [
            (lambda a, k: coloring_from_obj({"palette": k, "colors": [*a.values()]}),
             "<coloring>: "),
            (EdgeColoring, ""),
        ],
        ids=["loader", "constructor"],
    )
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bad_colors_are_named(self, build, prefix, palette, data):
        colors = data.draw(st.lists(st.integers(0, palette - 1), min_size=1, max_size=20))
        n = len(colors)
        # The loader reads edge ids from list positions; the constructor takes any.
        ids = range(n) if prefix else data.draw(
            st.lists(st.integers(0, 50), min_size=n, max_size=n, unique=True)
        )
        assignment = dict(zip(ids, colors))
        built = build(assignment, palette)
        assert built.assignment == assignment
        assert built.palette_size == palette
        eid = data.draw(st.sampled_from(ids))
        if data.draw(st.booleans()):
            assignment[eid] = data.draw(st.sampled_from(NOT_INTS))
            message = f"edge {eid} has color {assignment[eid]!r}, not an int"
        else:
            assignment[eid] = data.draw(st.sampled_from([-1, -7, palette, palette + 3]))
            message = f"edge {eid} has color {assignment[eid]} outside palette of size {palette}"
        rejects(lambda a: build(a, palette), assignment, prefix + message)


def constituent_slot(obj, data):
    """A key with at least one pair and an index into its pairs."""
    keys = [k for k, pairs in obj["constituents"].items() if pairs]
    key = data.draw(st.sampled_from(keys))
    return key, data.draw(st.integers(0, len(obj["constituents"][key]) - 1))


class TestTruncationObjects:
    @given(truncation_objs())
    @settings(max_examples=100, deadline=None)
    def test_valid_objects_load_normalized(self, obj):
        tr = truncation_from_obj(obj)
        want = {
            int(k): tuple(sorted((min(p), max(p)) for p in pairs))
            for k, pairs in obj["constituents"].items()
        }
        assert tr.constituents == want
        # Reversed pairs are accepted and normalized, as before.
        flipped = {
            int(k): [tuple(p[::-1]) for p in pairs] for k, pairs in obj["constituents"].items()
        }
        assert Truncation(tr.source, flipped).constituents == want

    @given(truncation_objs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_pairs_are_named(self, obj, data):
        bad = copy.deepcopy(obj)
        sizes = {v: 0 for v in bad["source"]["vertices"]}
        for u, w in bad["source"]["edges"]:
            sizes[u] += 1
            sizes[w] += 1
        kind = data.draw(
            st.sampled_from(["type", "length", "repeat", "reversed repeat", "loop", "outside"])
        )
        if kind in ("type", "length", "repeat", "reversed repeat"):
            if not any(bad["constituents"].values()):
                return
            key, i = constituent_slot(bad, data)
            pairs = bad["constituents"][key]
        else:
            key = data.draw(st.sampled_from(sorted(bad["constituents"])))
            pairs = bad["constituents"][key]
            i = data.draw(st.integers(0, len(pairs)))
        v, size = int(key), sizes[int(key)]
        not_a_pair = f"<truncation>: constituent at vertex {v}: pair {i} is not a pair of integers"
        if kind == "type":
            pairs[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(NOT_INTS))
            message = not_a_pair
        elif kind == "length":
            pairs[i] = pairs[i] + [0]
            message = not_a_pair
        elif kind in ("repeat", "reversed repeat"):
            pairs.append(pairs[i][::-1] if kind == "reversed repeat" else list(pairs[i]))
            message = (
                f"<truncation>: constituent at vertex {v} repeats edge "
                f"{(min(pairs[i]), max(pairs[i]))}; constituents are simple"
            )
        elif kind == "loop":
            p = data.draw(st.integers(0, size - 1))
            pairs.insert(i, [p, p])
            message = f"<truncation>: constituent at vertex {v} has a loop at position {p}"
        else:
            p = data.draw(st.integers(0, size - 1))
            q = data.draw(st.sampled_from([-1, size, size + 4]))
            pairs.insert(i, data.draw(st.sampled_from([[p, q], [q, p]])))
            message = (
                f"<truncation>: constituent at vertex {v} uses position outside 0..{size - 1}"
            )
        rejects(truncation_from_obj, bad, message)


class TestTruncationPairs:
    """Truncation checks its own pairs, so every truncation it builds
    writes an object that truncation_from_obj loads back."""

    @given(truncation_objs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pairs_that_are_not_int_pairs_are_named(self, obj, data):
        if not any(obj["constituents"].values()):
            return
        key, i = constituent_slot(obj, data)
        source = graph_from_obj(obj["source"])
        constituents = {int(k): list(pairs) for k, pairs in obj["constituents"].items()}
        pair = list(constituents[int(key)][i])
        kind = data.draw(st.sampled_from(["type", "length", "not a pair"]))
        if kind == "type":
            pair[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(NOT_INTS))
        elif kind == "length":
            pair.append(0)
        if kind == "not a pair":
            bad = data.draw(st.sampled_from(NOT_INTS + (frozenset(pair), range(*pair))))
        else:
            bad = data.draw(st.sampled_from([pair, tuple(pair)]))
        constituents[int(key)][i] = bad
        message = f"constituent at vertex {key}: pair {i} is not a pair of integers"
        rejects(lambda c: Truncation(source, c), constituents, message)

    @given(truncation_objs(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_constructed_truncations_round_trip(self, obj, as_tuples):
        source = graph_from_obj(obj["source"])
        constituents = {
            int(k): [tuple(p) if as_tuples else p for p in pairs]
            for k, pairs in obj["constituents"].items()
        }
        tr = Truncation(source, constituents)
        back = truncation_from_obj(json.loads(json.dumps(truncation_to_obj(tr))))
        assert back.source.edges == tr.source.edges
        assert back.constituents == tr.constituents


class TestMultigraphPairs:
    @given(graph_objs(min_edges=1), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pairs_are_normalized_or_named(self, obj, ascending, data):
        vertices = obj["vertices"]
        pairs = [tuple(sorted(e)) if ascending else tuple(e) for e in obj["edges"]]
        g = Multigraph(vertices, pairs)
        assert g.edges == {i: (min(p), max(p)) for i, p in enumerate(pairs)}
        assert Multigraph(vertices, dict(enumerate(pairs))).edges == g.edges
        i = data.draw(st.integers(0, len(pairs) - 1))
        u, w = pairs[i]
        if data.draw(st.booleans()):
            pairs[i] = (u, u)
            message = f"edge {i} is a loop at vertex {u}; loops are not supported"
        else:
            x = data.draw(st.sampled_from([min(vertices) - 1, max(vertices) + 1]))
            pairs[i] = data.draw(st.sampled_from([(x, w), (u, x)]))
            message = f"edge {i} references unknown vertex {x}"
        rejects(lambda ps: Multigraph(vertices, ps), pairs, message)

    def test_list_pairs_are_accepted(self):
        g = Multigraph(range(3), [(2, 0), [1, 2]])
        assert g.edges == {0: (0, 2), 1: (1, 2)}
