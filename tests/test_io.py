import json
import re

import pytest

from truncolor.catalog import k4, k5, k33, petersen, prism3, two_k5_bridge
from truncolor.coloring import EdgeColoring, chromatic_index, solve_edge_coloring
from truncolor.complete_coloring import color_complete_truncation, subtruncation_coloring
from truncolor.cyclic_coloring import (
    color_via_enabling,
    cyclic_class_one,
    cyclic_even_valency,
    cyclic_from_class_one,
)
from truncolor.errors import GraphError
from truncolor.io import (
    DOT_COLORS,
    coloring_from_obj,
    coloring_to_obj,
    first_clash,
    flat_graph_to_obj,
    graph_from_obj,
    graph_to_obj,
    load_coloring,
    load_graph,
    load_json,
    load_truncation,
    sun_report,
    to_dot,
    truncation_from_obj,
    truncation_to_obj,
)
from truncolor.multigraph import Multigraph
from truncolor.strong_arboreal import color_by_strong
from truncolor.sun import build_sun_even, build_sun_odd, regular_truncation, semiregular_truncation
from truncolor.truncation import arboreal_truncation, complete_truncation, cyclic_truncation

from conftest import doubled_triangle


class TestGraphRoundTrip:
    def test_obj_round_trip(self):
        g = petersen()
        again = graph_from_obj(graph_to_obj(g))
        assert again.vertices == g.vertices
        assert again.edges == g.edges

    def test_file_round_trip(self, tmp_path):
        g = k4()
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_obj(g)))
        assert load_graph(str(path)).edges == g.edges

    def test_loop_diagnostic_names_entry(self):
        obj = {"vertices": [0, 1], "edges": [[0, 1], [1, 1]]}
        with pytest.raises(
            GraphError, match="^<graph>: edge 1 is a loop at vertex 1; loops are not supported$"
        ):
            graph_from_obj(obj)

    def test_unknown_endpoint_diagnostic(self):
        obj = {"vertices": [0, 1], "edges": [[0, 2]]}
        with pytest.raises(GraphError, match="^<graph>: edge 0 references unknown vertex 2$"):
            graph_from_obj(obj)

    def test_malformed_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [0, 1],\n  "edges": }')
        with pytest.raises(GraphError, match=r"broken\.json:2:"):
            load_json(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        # json alone keeps the last value, so the repeated key could
        # swap a proper coloring in for an improper one, or a second
        # edge list in for the first.
        path = tmp_path / "dup.json"
        path.write_text('{"palette": 3, "colors": [0,0,0,0,0,0], "colors": [0,1,2,2,1,0]}')
        with pytest.raises(GraphError, match=re.escape(f'{path}: duplicate key "colors"')):
            load_json(str(path))
        path.write_text('{"source": {"vertices": [0, 1], "edges": [[0, 1]], "edges": []}}')
        with pytest.raises(GraphError, match='duplicate key "edges"'):
            load_json(str(path))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(GraphError, match="nowhere"):
            load_json(str(tmp_path / "nowhere.json"))

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": [True, 0], "edges": [[0, 1]]},
            {"vertices": [0, 1], "edges": [[False, 1]]},
        ],
    )
    def test_boolean_ids_rejected(self, obj):
        with pytest.raises(GraphError, match="integers"):
            graph_from_obj(obj)

    def test_duplicate_vertex_ids_rejected(self):
        with pytest.raises(GraphError, match="repeats"):
            graph_from_obj({"vertices": [0, 1, 1], "edges": [[0, 1]]})

    @pytest.mark.parametrize(
        "edges",
        [
            {0: (0, 1), 2: (1, 2)},
            {1: (0, 1), 2: (1, 2)},
            {0: (0, 1), 1.5: (1, 2), 2: (0, 2)},
            {False: (0, 1), True: (1, 2)},
        ],
        ids=["gap", "not-from-zero", "non-int-between-int-ends", "bool-keys"],
    )
    def test_non_contiguous_ids_rejected(self, edges):
        with pytest.raises(GraphError, match="non-contiguous"):
            graph_to_obj(Multigraph(range(3), edges))

    def test_without_edges_result_needs_contiguous_ids(self):
        with pytest.raises(GraphError, match="non-contiguous"):
            graph_to_obj(k4().without_edges([2]))
        # Dropping the last id leaves 0..4.
        assert graph_to_obj(k4().without_edges([5]))["edges"] == graph_to_obj(k4())["edges"][:5]

    @pytest.mark.parametrize("build", [complete_truncation, cyclic_truncation, arboreal_truncation])
    def test_flat_writer_matches_graph_to_obj(self, build):
        tr = build(k5())
        assert json.dumps(flat_graph_to_obj(tr)) == json.dumps(graph_to_obj(tr.graph))

    @pytest.mark.parametrize("dropped", [[0], [3]], ids=["first", "middle"])
    def test_flat_writer_needs_contiguous_ids(self, dropped):
        # The same rule and error as graph_to_obj on the flat graph.
        tr = complete_truncation(k4().without_edges(dropped))
        with pytest.raises(GraphError) as flat:
            graph_to_obj(tr.graph)
        with pytest.raises(GraphError) as direct:
            flat_graph_to_obj(tr)
        assert str(direct.value) == str(flat.value)
        assert "non-contiguous" in str(direct.value)

    def test_missing_keys(self):
        with pytest.raises(GraphError, match="vertices"):
            graph_from_obj({"edges": []})
        with pytest.raises(GraphError, match="edges"):
            graph_from_obj({"vertices": []})


class TestColoringRoundTrip:
    def test_round_trip(self, tmp_path):
        coloring = EdgeColoring({0: 2, 1: 0, 2: 1}, 3)
        obj = coloring_to_obj(coloring)
        assert obj == {"palette": 3, "colors": [2, 0, 1]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        again = load_coloring(str(path))
        assert again.assignment == coloring.assignment
        assert again.palette_size == 3

    def test_color_outside_palette_rejected(self):
        with pytest.raises(GraphError):
            coloring_from_obj({"palette": 2, "colors": [0, 2]})

    def test_booleans_rejected(self):
        with pytest.raises(GraphError, match="palette"):
            coloring_from_obj({"palette": True, "colors": [False]})
        with pytest.raises(GraphError, match="^<coloring>: edge 0 has color False, not an int$"):
            coloring_from_obj({"palette": 2, "colors": [False]})

    def test_keys_are_the_graphs_own_ids(self):
        # Ids above 256 are new int objects unless shared.  Colors of
        # another count than the ids, or ids that are not 0..n-1, are
        # keyed by position.
        g = Multigraph(range(2), [(0, 1)] * 300)
        shared = coloring_from_obj({"palette": 1, "colors": [0] * 300}, ids=g.edges.keys())
        assert shared.assignment == dict.fromkeys(range(300), 0)
        assert all(a is b for a, b in zip(shared.assignment, g.edges))
        gapped = Multigraph(range(2), {0: (0, 1), 2: (0, 1)})
        pair = {"palette": 1, "colors": [0, 0]}
        for ids in (g.edges.keys(), gapped.edges.keys()):
            assert coloring_from_obj(pair, ids=ids).assignment == {0: 0, 1: 0}

    def test_non_contiguous_ids_rejected(self):
        with pytest.raises(GraphError, match="contiguous"):
            coloring_to_obj(EdgeColoring({0: 0, 2: 1}, 2))

    def test_contiguous_ids_in_any_order(self):
        # Ids 0..n-1 listed out of order serialize by id, as in order.
        unordered = coloring_to_obj(EdgeColoring({2: 1, 0: 2, 1: 0}, 3))
        assert unordered == coloring_to_obj(EdgeColoring({0: 2, 1: 0, 2: 1}, 3))
        assert json.dumps(unordered) == '{"palette": 3, "colors": [2, 0, 1]}'

    def test_a_gap_after_reordering_is_rejected(self):
        with pytest.raises(
            GraphError, match="^coloring has non-contiguous edge ids; rebuild before serializing$"
        ):
            coloring_to_obj(EdgeColoring({2: 1, 0: 0, 3: 1}, 2))

    @pytest.mark.parametrize(
        "assignment",
        [
            {1: 0, 2: 1},
            {0: 0, 1.5: 1, 2: 0},
            dict.fromkeys(k4().without_edges([2]).edge_ids, 0),
        ],
        ids=["not-from-zero", "non-int-between-int-ends", "without-edges"],
    )
    def test_other_non_contiguous_maps_rejected(self, assignment):
        with pytest.raises(GraphError, match="non-contiguous"):
            coloring_to_obj(EdgeColoring(assignment, 2))


def route_colorings():
    """One emitted coloring per route, labelled by route."""
    k4_base = EdgeColoring(solve_edge_coloring(k4(), 3)[0], 3)
    balanced = EdgeColoring({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}, 3)
    yield "complete-odd", color_complete_truncation(k33())[1]
    yield "complete-even", color_complete_truncation(k5())[1]
    yield "subtruncation", subtruncation_coloring(cyclic_truncation(k4()))
    yield "cyclic-even", cyclic_even_valency(k5())[1]
    yield "cyclic-classone", cyclic_from_class_one(k4(), k4_base)[1]
    yield "cyclic-enabling", color_via_enabling(k4(), [0, 5])[1]
    yield "cyclic-search", cyclic_class_one(prism3())[1]
    yield "strong", color_by_strong(arboreal_truncation(petersen()))
    yield "regular-even", regular_truncation(doubled_triangle(), 4)[1]
    yield "regular-odd", regular_truncation(prism3(), 3)[1]
    yield "semiregular", semiregular_truncation(doubled_triangle(), balanced)[1]
    yield "sun-odd", build_sun_odd((1, 1, 1)).sun_graph()[1]
    yield "sun-even", build_sun_even((2, 2)).sun_graph()[1]
    yield "oracle", chromatic_index(petersen()).certificate


class TestRouteColoringsRoundTrip:
    @pytest.mark.parametrize(
        "coloring", [pytest.param(c, id=label) for label, c in route_colorings()]
    )
    def test_every_route_survives_json(self, coloring):
        obj = json.loads(json.dumps(coloring_to_obj(coloring)))
        assert coloring_from_obj(obj) == coloring


class TestTruncationRoundTrip:
    def test_round_trip(self, tmp_path):
        tr = cyclic_truncation(k4())
        obj = truncation_to_obj(tr)
        again = truncation_from_obj(obj)
        assert again.source.edges == tr.source.edges
        assert again.constituents == tr.constituents
        path = tmp_path / "tr.json"
        path.write_text(json.dumps(obj))
        assert load_truncation(str(path)).constituents == tr.constituents

    def test_constituent_keys_are_strings(self):
        obj = truncation_to_obj(cyclic_truncation(k4()))
        assert all(isinstance(k, str) for k in obj["constituents"])

    @pytest.mark.parametrize("key", [" 1 ", "+2", "1_0", "00"])
    def test_constituent_keys_must_be_canonical(self, key):
        # int() reads each of these; "00" would silently replace vertex 0.
        obj = truncation_to_obj(cyclic_truncation(k4()))
        obj["constituents"][key] = [[1, 2]]
        with pytest.raises(GraphError, match=re.escape(f"constituent key {key!r} is not a vertex")):
            truncation_from_obj(obj)

    def test_bad_position_pair_rejected(self):
        obj = truncation_to_obj(cyclic_truncation(k4()))
        obj["constituents"]["0"] = [[0]]
        with pytest.raises(GraphError):
            truncation_from_obj(obj)

    def test_boolean_positions_rejected(self):
        obj = truncation_to_obj(cyclic_truncation(k4()))
        obj["constituents"]["0"] = [[False, True], [1, 2], [0, 2]]
        with pytest.raises(GraphError, match="integers"):
            truncation_from_obj(obj)


class TestCompleteByReference:
    """A complete truncation is stored as its source plus "kind":
    "complete"; the loader rebuilds the constituents."""

    @pytest.mark.parametrize("build", [k4, petersen, two_k5_bridge])
    def test_compact_form_round_trips(self, build, tmp_path):
        tr = complete_truncation(build())
        obj = {"source": graph_to_obj(tr.source), "kind": "complete"}
        path = tmp_path / "tr.json"
        path.write_text(json.dumps(obj))
        again = load_truncation(str(path))
        assert again.source.edges == tr.source.edges
        assert again.constituents == tr.constituents
        assert again.graph.edges == tr.graph.edges

    def test_explicit_constituents_still_load(self):
        # Files written before the compact form spell out every pair,
        # with or without "kind"; "kind" is then not consulted.
        tr = complete_truncation(k4())
        old = truncation_to_obj(tr)
        assert truncation_from_obj(old).constituents == tr.constituents
        for kind in ("complete", "cyclic"):
            loaded = truncation_from_obj({**old, "kind": kind})
            assert loaded.constituents == tr.constituents

    @pytest.mark.parametrize(
        "kind,message",
        [
            ("cyclic", '"kind" is "cyclic"'),
            ("arboreal", '"kind" is "arboreal"'),
            ("Complete", '"kind" is "Complete"'),
            (["complete"], '"kind" is ["complete"]'),
            (1, '"kind" is 1'),
            (None, '"kind" is null'),
        ],
    )
    def test_other_kinds_need_constituents(self, kind, message):
        obj = {"source": graph_to_obj(k4()), "kind": kind}
        with pytest.raises(GraphError, match=re.escape(f"tr.json: {message}")):
            truncation_from_obj(obj, "tr.json")

    def test_missing_kind_and_constituents(self):
        with pytest.raises(GraphError, match=re.escape('tr.json: missing "constituents"')):
            truncation_from_obj({"source": graph_to_obj(k4())}, "tr.json")

    def test_same_size_clusters_share_one_constituent(self):
        obj = {"source": graph_to_obj(two_k5_bridge()), "kind": "complete"}
        tr = truncation_from_obj(obj)
        # Vertices 0 and 5 carry the bridge: valency 5, the others 4.
        assert tr.constituents[0] is tr.constituents[5]
        assert all(tr.constituents[v] is tr.constituents[1] for v in (2, 3, 4, 6, 7, 8, 9))
        assert tr.constituents[0] is not tr.constituents[1]


class TestReportsAndDot:
    def test_sun_report_shape(self):
        sun = build_sun_odd((1, 1, 1))
        rep = sun_report(sun)
        assert rep["verdict"] == "ADMISSIBLE"
        assert rep["vector"] == [1, 1, 1]
        assert len(rep["constituent_edges"]) == len(rep["constituent_colors"])

    def test_first_clash_found_and_absent(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        assert first_clash(g, EdgeColoring({0: 0, 1: 1}, 2)) is None
        clash = first_clash(g, EdgeColoring({0: 0, 1: 0}, 1))
        assert clash == (1, 0, 1)

    def test_dot_contains_colors_bold_and_clusters(self):
        g = Multigraph(range(4), [(0, 1), (2, 3), (0, 2)])
        coloring = EdgeColoring({0: 0, 1: 1, 2: 2}, 3)
        text = to_dot(
            g,
            coloring,
            bold_ids=[1],
            clusters={7: [0, 1], 8: [2, 3]},
        )
        assert text.startswith("graph G {")
        assert "subgraph cluster_7 {" in text
        assert "subgraph cluster_8 {" in text
        assert f"color={DOT_COLORS[0]}" in text
        assert "style=bold" in text
        assert text.count(" -- ") == 3
        assert text.rstrip().endswith("}")

    def test_palette_wider_than_color_table_wraps(self):
        g = Multigraph(range(2), [(0, 1)])
        wide = EdgeColoring({0: len(DOT_COLORS)}, len(DOT_COLORS) + 1)
        text = to_dot(g, wide)
        assert f"color={DOT_COLORS[0]}" in text
