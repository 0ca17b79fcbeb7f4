import json

import pytest

from truncolor.catalog import k4, petersen
from truncolor.coloring import EdgeColoring
from truncolor.errors import GraphError
from truncolor.io import (
    DOT_COLORS,
    coloring_from_obj,
    coloring_to_obj,
    first_clash,
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
from truncolor.sun import build_sun_odd
from truncolor.truncation import cyclic_truncation


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
        with pytest.raises(GraphError, match=r"edges\[1\].*loop"):
            graph_from_obj(obj)

    def test_unknown_endpoint_diagnostic(self):
        obj = {"vertices": [0, 1], "edges": [[0, 2]]}
        with pytest.raises(GraphError, match="edges"):
            graph_from_obj(obj)

    def test_malformed_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [0, 1],\n  "edges": }')
        with pytest.raises(GraphError, match=r"broken\.json:2:"):
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
        with pytest.raises(GraphError, match="integers"):
            coloring_from_obj({"palette": 2, "colors": [False]})

    def test_non_contiguous_ids_rejected(self):
        with pytest.raises(GraphError, match="contiguous"):
            coloring_to_obj(EdgeColoring({0: 0, 2: 1}, 2))


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
            name="T",
        )
        assert text.startswith("graph T {")
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
