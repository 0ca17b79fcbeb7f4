import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import truncolor
import truncolor.cli as cli
from truncolor.canonical import complete_graph
from truncolor.catalog import k4, k5, petersen, q3, two_k5_bridge
from truncolor.cli import main
from truncolor.coloring import EdgeColoring
from truncolor.complete_coloring import color_complete_truncation
from truncolor.io import (
    coloring_from_obj,
    coloring_to_obj,
    first_clash,
    flat_graph_to_obj,
    graph_from_obj,
    graph_to_obj,
    truncation_from_obj,
    to_dot,
    truncation_to_obj,
)
from truncolor.truncation import Truncation, arboreal_truncation

from conftest import prism_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_obj(g)))
    return str(path)


def write_obj(tmp_path, obj, name):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestTruncate:
    def test_cyclic_truncation_of_k4(self, capsys, tmp_path):
        code, out, _ = run(capsys, "truncate", write_graph(tmp_path, k4()), "--kind", "cyclic")
        assert code == 0
        assert out["kind"] == "cyclic"
        assert out["max_valency"] == 3
        assert len(out["vertices"]) == 12
        assert len(out["edges"]) == 18
        # K4's cyclic constituents are triangles, complete graphs, but
        # only the complete kind is written by reference.
        assert len(out["constituents"]) == 4
        truncation_from_obj(out)  # emitted object reloads as a truncation

    def test_complete_truncation_is_written_by_reference(self, capsys, tmp_path):
        code, out, _ = run(capsys, "truncate", write_graph(tmp_path, k5()), "--kind", "complete")
        assert code == 0
        assert list(out) == ["source", "kind", "vertices", "edges", "max_valency"]
        assert out["kind"] == "complete" and out["source"] == graph_to_obj(k5())
        flat = truncation_from_obj(out).graph
        assert out["edges"] == graph_to_obj(flat)["edges"]
        assert out["max_valency"] == 4

    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "t.dot"
        code, _, _ = run(
            capsys,
            "truncate",
            write_graph(tmp_path, k4()),
            "--kind",
            "complete",
            "--dot",
            str(dot),
        )
        assert code == 0
        text = dot.read_text()
        assert "subgraph cluster_0 {" in text
        assert "style=bold" in text

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "truncate", str(tmp_path / "absent.json"))
        assert code == 1
        assert "absent.json" in err


class TestColorComplete:
    def test_class_one_bundle_reverifies(self, capsys, tmp_path):
        code, out, _ = run(capsys, "color-complete", write_graph(tmp_path, k4()))
        assert code == 0
        assert out["class"] == "I"
        assert out["delta"] == 3
        bundle = write_obj(tmp_path, out, "bundle.json")
        code2, verdict, _ = run(capsys, "verify", bundle)
        assert code2 == 0
        assert verdict["proper"] is True

    def test_bundle_stores_its_truncation_by_reference(self, capsys, tmp_path):
        code, out, _ = run(capsys, "color-complete", write_graph(tmp_path, two_k5_bridge()))
        assert code == 0
        assert out["truncation"] == {"source": graph_to_obj(two_k5_bridge()), "kind": "complete"}
        tr, coloring = color_complete_truncation(two_k5_bridge())
        assert out["coloring"] == coloring_to_obj(coloring)
        assert out["edges"] == graph_to_obj(tr.graph)["edges"]

    def test_bridge_graph_succeeds(self, capsys, tmp_path):
        code, out, _ = run(capsys, "color-complete", write_graph(tmp_path, two_k5_bridge()))
        assert code == 0
        assert out["class"] == "I"
        assert out["delta"] == 5

    def test_petersen_defaults_to_failure(self, capsys, tmp_path):
        code, out, err = run(capsys, "color-complete", write_graph(tmp_path, petersen()))
        assert code == 1
        assert out["class"] == "II"
        assert "class II" in err

    def test_petersen_out_of_budget_is_undecided(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "color-complete", write_graph(tmp_path, petersen()), "--budget", "0"
        )
        assert (code, out) == (2, None)
        assert err == "undecided: edge coloring search exceeded budget of 0 nodes\n"

    def test_petersen_witness_flag(self, capsys, tmp_path):
        code = main(["color-complete", write_graph(tmp_path, petersen()), "--witness"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        reason = (
            "exhaustive search found no coloring with all colors distinct at "
            "valency-3 vertices; the complete truncation needs 4 colors"
        )
        want = {"class": "II", "delta": 3, "witness": {"nodes": 30, "reason": reason}}
        assert captured.out == json.dumps(want) + "\n"


class TestCyclicColor:
    def test_enabling_search_out_of_budget_is_undecided(self, capsys, tmp_path):
        g = write_graph(tmp_path, petersen())
        code, out, err = run(capsys, "cyclic-color", g, "--strategy", "enabling", "--budget", "0")
        assert (code, out) == (2, None)
        assert err == "undecided: parity coloring search exceeded budget of 0 nodes\n"

    def test_even_strategy_with_seed(self, capsys, tmp_path):
        g = write_graph(tmp_path, k5())
        code, out, _ = run(capsys, "cyclic-color", g, "--strategy", "even", "--seed", "3")
        assert code == 0
        assert out["strategy"] == "even"
        assert "orders" in out
        bundle = write_obj(tmp_path, out, "bundle.json")
        code2, verdict, _ = run(capsys, "verify", bundle)
        assert code2 == 0 and verdict["proper"] is True

    def test_classone_strategy(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cyclic-color", write_graph(tmp_path, k4()), "--strategy", "classone"
        )
        assert code == 0
        assert out["coloring"]["palette"] == 3
        bundle = write_obj(tmp_path, out, "bundle.json")
        code2, verdict, _ = run(capsys, "verify", bundle)
        assert code2 == 0 and verdict["proper"] is True

    def test_classone_strategy_on_large_cubic_prism(self, capsys, tmp_path):
        # 1,500 edges: the class-one search must not run out of stack.
        prism = write_graph(tmp_path, prism_graph(500), "prism.json")
        code, out, _ = run(capsys, "cyclic-color", prism, "--strategy", "classone")
        assert code == 0
        assert out["coloring"]["palette"] == 3
        bundle = write_obj(tmp_path, out, "bundle.json")
        code2, verdict, _ = run(capsys, "verify", bundle)
        assert code2 == 0 and verdict["proper"] is True

    def test_classone_rejects_even_valency(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cyclic-color", write_graph(tmp_path, k5()), "--strategy", "classone"
        )
        assert code == 1
        assert "odd valency" in err

    def test_enabling_strategy_explicit_edges(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cyclic-color",
            write_graph(tmp_path, k4()),
            "--strategy",
            "enabling",
            "--enabling-edges",
            "0,5",
        )
        assert code == 0
        assert out["enabling_edges"] == [0, 5]

    def _auto_search(self, capsys, tmp_path, g):
        # Without --enabling-edges the found 3-coloring is the coloring
        # of the bundle's matching edges; no edge set is reported.
        code, out, _ = run(
            capsys, "cyclic-color", write_graph(tmp_path, g), "--strategy", "enabling"
        )
        assert code == 0
        assert "enabling_edges" not in out
        bundle = write_obj(tmp_path, out, "bundle.json")
        code2, verdict, _ = run(capsys, "verify", bundle)
        assert code2 == 0 and verdict["proper"] is True and verdict["palette"] == 3

    def test_enabling_strategy_auto_search(self, capsys, tmp_path):
        self._auto_search(capsys, tmp_path, q3())

    @pytest.mark.parametrize("n", [8, 10])
    def test_enabling_strategy_auto_search_on_prisms(self, capsys, tmp_path, n):
        # 24 and 30 edges: beyond a scan over edge subsets.
        self._auto_search(capsys, tmp_path, prism_graph(n))

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--strategy", "classone", "--enabling-edges", "0,5"], "--enabling-edges"),
            (["--strategy", "even", "--enabling-edges", "0,5"], "--enabling-edges"),
            (["--strategy", "classone", "--seed", "3"], "--seed"),
            (["--strategy", "enabling", "--seed", "3"], "--seed"),
            (["--strategy", "enabling", "--enabling-edges", "0,5,5"], "repeats"),
        ],
    )
    def test_flags_that_do_not_apply_are_rejected(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, "cyclic-color", write_graph(tmp_path, k4()), *argv)
        assert code == 1 and out is None
        assert err.startswith("error: ") and message in err

    def test_enabling_strategy_rejects_petersen(self, capsys, tmp_path):
        code = main(["cyclic-color", write_graph(tmp_path, petersen()), "--strategy", "enabling"])
        captured = capsys.readouterr()
        reason = (
            "the source has no parity-balanced 3-coloring, "
            "so no cyclic truncation of it is class I"
        )
        assert (code, captured.err) == (1, f"error: enabling strategy: {reason}\n")
        # The refusal reports the parity search's node count.
        want = {"strategy": "enabling", "applicable": False, "reason": reason, "nodes": 117}
        assert captured.out == json.dumps(want) + "\n"


class TestColorStrong:
    def _truncation_file(self, capsys, tmp_path, g, kind):
        code, out, _ = run(capsys, "truncate", write_graph(tmp_path, g), "--kind", kind)
        assert code == 0
        return write_obj(tmp_path, {"source": out["source"], "constituents": out["constituents"]}, "tr.json")

    def test_arboreal_truncation_applies(self, capsys, tmp_path):
        tr_file = self._truncation_file(capsys, tmp_path, k4(), "arboreal")
        code, out, _ = run(capsys, "color-strong", tr_file)
        assert code == 0
        assert out["applicable"] is True
        assert out["coloring"]["palette"] == out["delta"] == 3

    def test_flattens_only_to_draw(self, capsys, tmp_path, monkeypatch):
        tr_file = self._truncation_file(capsys, tmp_path, k4(), "arboreal")
        flattened = []
        graph = Truncation.graph

        def counted(tr):
            if tr._flat is None:
                flattened.append(tr)
            return graph.fget(tr)

        monkeypatch.setattr(Truncation, "graph", property(counted))
        code, out, _ = run(capsys, "color-strong", tr_file)
        assert code == 0 and out["delta"] == 3
        assert flattened == []
        dot = tmp_path / "strong.dot"
        code, drawn, _ = run(capsys, "color-strong", tr_file, "--dot", str(dot))
        assert code == 0 and drawn == out
        assert len(flattened) == 1
        monkeypatch.undo()
        tr = arboreal_truncation(k4())
        coloring = coloring_from_obj(out["coloring"])
        assert dot.read_text() == to_dot(tr.graph, coloring, tr.matching_ids, tr.clusters)

    def test_overfull_constituent_refusal(self, capsys, tmp_path):
        tr_file = write_obj(
            tmp_path, {"source": graph_to_obj(two_k5_bridge()), "kind": "complete"}, "tr.json"
        )
        code = main(["color-strong", tr_file])
        captured = capsys.readouterr()
        reason = "constituent at source vertex 0 holds a valency-5 end but admits no 4-coloring"
        assert (code, captured.err) == (1, f"not applicable: {reason}\n")
        want = {"applicable": False, "vertex": 0, "delta": 5, "reason": reason, "nodes": 0}
        assert captured.out == json.dumps(want) + "\n"

    def test_cyclic_cubic_truncation_is_not_applicable(self, capsys, tmp_path):
        tr_file = self._truncation_file(capsys, tmp_path, q3(), "cyclic")
        code, out, err = run(capsys, "color-strong", tr_file)
        assert code == 1
        assert out["applicable"] is False
        assert "not applicable" in err


class TestSun:
    def test_admissible_vector(self, capsys):
        code, out, _ = run(capsys, "sun", "--vector", "1,1,1")
        assert code == 0
        assert out["verdict"] == "ADMISSIBLE"
        assert out["pendant_colors"] == [0, 1, 2]

    def test_three_color_refutation(self, capsys):
        code, out, _ = run(capsys, "sun", "--vector", "2,1,1")
        assert code == 0
        assert out["verdict"] == "TOTALLY_INADMISSIBLE"

    def test_small_vector_refuted_by_enumeration(self, capsys):
        code, out, _ = run(capsys, "sun", "--vector", "2,1,1,1")
        assert code == 0
        assert out["verdict"] == "TOTALLY_INADMISSIBLE"

    def test_large_vector_reported_inadmissible_only(self, capsys):
        code, out, _ = run(capsys, "sun", "--vector", "9,1,1,1")
        assert code == 0
        assert out["verdict"] == "INADMISSIBLE"

    def test_malformed_vector(self, capsys):
        code, _, err = run(capsys, "sun", "--vector", "2,x")
        assert code == 1
        assert "vector" in err


class TestOracle:
    def test_petersen_class_two(self, capsys, tmp_path):
        code, out, _ = run(capsys, "oracle", write_graph(tmp_path, petersen()))
        assert code == 0
        assert out == {**out, "decided": True, "chi": 4, "delta": 3, "class": "II"}
        assert "coloring" in out

    def test_certificate_reverifies(self, capsys, tmp_path):
        g = k4()
        gfile = write_graph(tmp_path, g)
        code, out, _ = run(capsys, "oracle", gfile)
        assert code == 0 and out["chi"] == 3
        cfile = write_obj(tmp_path, out["coloring"], "cert.json")
        code2, verdict, _ = run(capsys, "verify", gfile, cfile)
        assert code2 == 0
        assert verdict["proper"] is True

    def test_budget_exhaustion_exits_two(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "oracle", write_graph(tmp_path, petersen()), "--budget", "1"
        )
        assert code == 2
        assert out["decided"] is False
        assert "undecided" in err

    def test_negative_budget_is_a_domain_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "oracle", write_graph(tmp_path, k4()), "--budget", "-1")
        assert code == 1
        assert out is None
        assert err == "error: --budget must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv",
        [[], ["oracle"], ["oracle", "g.json", "--budget", "abc"], ["demo", "nosuch"]],
        ids=["no-command", "no-graph", "budget-abc", "unknown-demo"],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        # Exit 2 is reserved for an undecided oracle.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: truncolor oracle")

    def test_negative_edge_cap_is_a_domain_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "oracle", write_graph(tmp_path, k4()), "--edge-cap", "-1")
        assert code == 1
        assert out is None
        assert err == "error: --edge-cap must be nonnegative\n"

    def test_edge_cap_guard(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oracle", write_graph(tmp_path, petersen()), "--edge-cap", "5"
        )
        assert code == 1
        assert "cap" in err


# A proper 5-coloring of K5, whose edges graph_to_obj lists as (0, 1),
# (0, 2), (0, 3), (0, 4), (1, 2), ..., (3, 4): edge (i, j) has color
# (i + j) % 5.
K5_PROPER = [1, 2, 3, 4, 3, 4, 0, 0, 1, 2]


def _k5_colors(colors, palette=5):
    return {"palette": palette, "colors": colors}


def _k5_recolored(eid, color):
    return _k5_colors(K5_PROPER[:eid] + [color] + K5_PROPER[eid + 1 :])


def _error(message):
    """A domain error's exit code, stdout and stderr."""
    return 1, "", f"error: {message}\n"


# verify's exit code, stdout and stderr for a K5 graph file and a
# coloring file, with {path} standing for the coloring file, with and
# without --dot.  A bad palette or color is named before a wrong length.
UNCOVERED = _error("coloring does not cover exactly the graph's edges")
K5_ANSWERS = {
    "palette-true": (
        _k5_colors(K5_PROPER, True),
        *_error("{path}: palette size True is not a nonnegative int"),
    ),
    "palette-negative": (
        _k5_colors(K5_PROPER, -1),
        *_error("{path}: palette size -1 is not a nonnegative int"),
    ),
    "palette-float": (
        _k5_colors(K5_PROPER, 2.0),
        *_error("{path}: palette size 2.0 is not a nonnegative int"),
    ),
    "color-true": (_k5_recolored(3, True), *_error("{path}: edge 3 has color True, not an int")),
    "color-float": (_k5_recolored(3, 1.5), *_error("{path}: edge 3 has color 1.5, not an int")),
    "color-out-of-range": (
        _k5_recolored(3, 5),
        *_error("{path}: edge 3 has color 5 outside palette of size 5"),
    ),
    "too-short": (_k5_colors(K5_PROPER[:-1]), *UNCOVERED),
    "too-long": (_k5_colors(K5_PROPER + [0]), *UNCOVERED),
    "bad-color-and-short": (
        _k5_colors([0, 9]),
        *_error("{path}: edge 1 has color 9 outside palette of size 5"),
    ),
    "bad-color-and-long": (
        _k5_colors(K5_PROPER + [True]),
        *_error("{path}: edge 10 has color True, not an int"),
    ),
    "bad-palette-and-short": (
        _k5_colors([0], -2),
        *_error("{path}: palette size -2 is not a nonnegative int"),
    ),
    "nested": (
        {"coloring": _k5_colors(K5_PROPER)},
        0,
        '{"proper": true, "palette": 5, "colors_used": 5}\n',
        "",
    ),
    "nested-short": ({"coloring": _k5_colors(K5_PROPER[:3])}, *UNCOVERED),
    "nested-twice": (
        {"coloring": {"coloring": _k5_colors(K5_PROPER)}},
        *_error('{path}: missing "palette"'),
    ),
    "clash": (
        _k5_recolored(1, 1),
        1,
        '{"proper": false, "vertex": 0, "clash": [0, 1], "color": 1}\n',
        "edges 0 and 1 share color 1 at vertex 0\n",
    ),
    "clash-at-the-last-vertex": (
        _k5_recolored(9, 1),
        1,
        '{"proper": false, "vertex": 4, "clash": [8, 9], "color": 1}\n',
        "edges 8 and 9 share color 1 at vertex 4\n",
    ),
}


class TestVerify:
    def test_bundle_flat_graph_must_match_its_truncation(self, capsys, tmp_path):
        code, bundle, _ = run(capsys, "color-complete", write_graph(tmp_path, k5()))
        assert code == 0
        assert bundle["edges"][0] == [0, 1]
        bad = dict(bundle, edges=[[0, 5]] + bundle["edges"][1:])
        del bad["vertices"]
        code, out, err = run(capsys, "verify", write_obj(tmp_path, bad, "bad.json"))
        assert code == 1 and out is None
        assert err.startswith("error: ") and "edges[0] is [0, 5]" in err
        # A bundle one edge short names the missing index; extra
        # vertices are caught too.
        short = dict(bundle, edges=bundle["edges"][:-1])
        code, _, err = run(capsys, "verify", write_obj(tmp_path, short, "short.json"))
        assert code == 1 and f"edges[{len(bundle['edges']) - 1}] is missing" in err
        more = dict(bundle, vertices=bundle["vertices"] + [10**6])
        code, _, err = run(capsys, "verify", write_obj(tmp_path, more, "more.json"))
        assert code == 1 and '"vertices" differ' in err
        code, verdict, _ = run(capsys, "verify", write_obj(tmp_path, bundle, "good.json"))
        assert code == 0 and verdict["proper"] is True

    def test_long_edge_list_names_the_flat_size(self, capsys, tmp_path):
        code, bundle, _ = run(capsys, "color-complete", write_graph(tmp_path, k5()))
        assert code == 0
        size = len(bundle["edges"])
        path = write_obj(tmp_path, dict(bundle, edges=bundle["edges"] + [[0, 1]]), "long.json")
        code, out, err = run(capsys, "verify", path)
        assert code == 1 and out is None
        assert err == (
            f"error: {path}: edges[{size}] is [0, 1], but the flattened truncation "
            f"has {size} edges\n"
        )

    @pytest.mark.parametrize(
        "key, index, value, message",
        [
            ("vertices", 1, 1.0, '"vertices" differ from the flattened truncation\'s'),
            ("vertices", 1, True, '"vertices" differ from the flattened truncation\'s'),
            (
                "edges",
                0,
                [0.0, 1],
                "edges[0] is [0.0, 1], but edge 0 of the flattened truncation is [0, 1]",
            ),
            (
                "edges",
                0,
                [0, True],
                "edges[0] is [0, True], but edge 0 of the flattened truncation is [0, 1]",
            ),
        ],
        ids=["float-vertex", "bool-vertex", "float-end", "bool-end"],
    )
    def test_flat_keys_hold_plain_ints(self, capsys, tmp_path, key, index, value, message):
        # Equal in value is not enough: every loader refuses a float or
        # a bool where an int belongs, and so does the flat-key check.
        code, bundle, _ = run(capsys, "color-complete", write_graph(tmp_path, k4()))
        assert code == 0 and bundle[key][index] == value
        bundle[key][index] = value
        path = write_obj(tmp_path, bundle, "bundle.json")
        assert run(capsys, "verify", path) == (1, None, f"error: {path}: {message}\n")

    def test_graph_file_edges_are_not_copied(self, capsys, tmp_path):
        # graph_from_obj hands the parsed [u, v] lists straight to
        # Multigraph, which keeps its own tuples: verify of K65's flat
        # graph peaks near 40 MiB traced, where a tuple copy of the
        # parsed edges took it past 48.
        tr, coloring = color_complete_truncation(complete_graph(65))
        graph = write_obj(tmp_path, flat_graph_to_obj(tr), "k65-flat.json")
        colors = write_obj(tmp_path, coloring_to_obj(coloring), "k65.coloring.json")
        del tr, coloring
        tracemalloc.start()
        try:
            code = main(["verify", graph, colors])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(capsys.readouterr().out)["proper"] is True
        assert peak < 42 * 2**20
        g = graph_from_obj(json.loads(Path(graph).read_text()))
        assert set(map(type, g.edges.values())) == {tuple}

    def test_flat_lists_are_dropped_before_flattening(self, capsys, tmp_path):
        # verify checks a bundle's flat "edges" and "vertices" against its
        # truncation, drops them and checks the coloring cluster by
        # cluster, so its traced peak stays well below the parsed bundle
        # and the flat graph held together.
        code, bundle, _ = run(capsys, "color-complete", write_graph(tmp_path, complete_graph(33)))
        assert code == 0
        path = write_obj(tmp_path, bundle, "k33.json")
        tr = truncation_from_obj(bundle["truncation"])
        del bundle

        def traced(f):
            """f(), with the traced peak and the traced growth it left."""
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = f()
                current, peak = tracemalloc.get_traced_memory()
                return out, peak - base, current - base
            finally:
                tracemalloc.stop()

        with open(path, encoding="utf-8") as fh:
            _, parse_peak, _ = traced(lambda: json.load(fh))
        _, _, graph_size = traced(lambda: tr.graph)
        code, verify_peak, _ = traced(lambda: main(["verify", path]))
        assert code == 0 and json.loads(capsys.readouterr().out)["proper"] is True
        assert verify_peak < 0.85 * (parse_peak + graph_size)

    def test_truncation_file_flat_graph_must_match(self, capsys, tmp_path):
        code, out, _ = run(capsys, "truncate", write_graph(tmp_path, k4()), "--kind", "cyclic")
        assert code == 0
        colors = {"palette": 3, "colors": [0] * len(out["edges"])}
        out["edges"][4] = out["edges"][4][::-1]
        files = [write_obj(tmp_path, out, "tr.json"), write_obj(tmp_path, colors, "c.json")]
        code, _, err = run(capsys, "verify", *files)
        assert code == 1 and "edges[4] is" in err

    def test_files_with_explicit_constituents_still_verify(self, capsys, tmp_path):
        # The form written before complete truncations were stored by
        # reference: every pair spelled out, and "kind" in truncate files.
        tr, coloring = color_complete_truncation(k4())
        bundle = {
            "class": "I",
            "delta": 3,
            "truncation": truncation_to_obj(tr),
            **graph_to_obj(tr.graph),
            "coloring": coloring_to_obj(coloring),
        }
        code, verdict, _ = run(capsys, "verify", write_obj(tmp_path, bundle, "old.json"))
        assert code == 0 and verdict["proper"] is True
        colors = write_obj(tmp_path, coloring_to_obj(coloring), "c.json")
        old_tr = {**truncation_to_obj(tr), **graph_to_obj(tr.graph)}
        for kind in (None, "complete"):
            obj = old_tr if kind is None else {**old_tr, "kind": kind}
            code, verdict, _ = run(capsys, "verify", write_obj(tmp_path, obj, "tr.json"), colors)
            assert code == 0 and verdict["proper"] is True

    def test_compact_truncation_file_plus_bundle(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, two_k5_bridge())
        code, tr, _ = run(capsys, "truncate", gfile, "--kind", "complete")
        assert code == 0 and "constituents" not in tr
        code, bundle, _ = run(capsys, "color-complete", gfile)
        assert code == 0
        files = [write_obj(tmp_path, tr, "tr.json"), write_obj(tmp_path, bundle, "b.json")]
        code, verdict, _ = run(capsys, "verify", *files)
        assert code == 0
        assert verdict == {"proper": True, "palette": 5, "colors_used": 5}

    def test_compact_truncation_file_flat_graph_must_match(self, capsys, tmp_path):
        # Without constituents the file still goes through the
        # truncation path, so its flat edges are compared, not loaded.
        tr, coloring = color_complete_truncation(k4())
        out = {"source": graph_to_obj(k4()), "kind": "complete", **graph_to_obj(tr.graph)}
        assert run(capsys, "truncate", write_graph(tmp_path, k4()))[1] == {**out, "max_valency": 3}
        colors = write_obj(tmp_path, coloring_to_obj(coloring), "c.json")
        out["edges"][7] = [0, 5]
        code, verdict, err = run(capsys, "verify", write_obj(tmp_path, out, "tr.json"), colors)
        assert code == 1 and verdict is None
        assert "edges[7] is [0, 5], but edge 7 of the flattened truncation is" in err

    @pytest.mark.parametrize("kind", ["cyclic", 3])
    def test_compact_form_of_another_kind_is_rejected(self, capsys, tmp_path, kind):
        obj = {"source": graph_to_obj(k4()), "kind": kind}
        colors = write_obj(tmp_path, {"palette": 3, "colors": [0, 1, 2, 2, 1, 0]}, "c.json")
        path = write_obj(tmp_path, obj, "tr.json")
        code, out, err = run(capsys, "verify", path, colors)
        assert code == 1 and out is None
        assert err.startswith(f"error: {path}: ") and '"kind" is' in err
        bundle = write_obj(tmp_path, {"truncation": obj, "coloring": {}}, "b.json")
        code, out, err = run(capsys, "verify", bundle)
        assert code == 1 and out is None and f"{bundle}: " in err

    def test_truncation_build_errors_name_the_file(self, capsys, tmp_path):
        # Vertex 2 is isolated: building the complete truncation fails.
        obj = {"source": {"vertices": [0, 1, 2], "edges": [[0, 1]]}, "kind": "complete"}
        path = write_obj(tmp_path, obj, "iso.json")
        colors = write_obj(tmp_path, {"palette": 1, "colors": [0]}, "c1.json")
        code, out, err = run(capsys, "verify", path, colors)
        assert code == 1 and out is None
        assert err == f"error: {path}: vertex 2 is isolated; truncation needs valency >= 1\n"
        # A constituent position outside its cluster is named the same way.
        obj = {"source": {"vertices": [0, 1], "edges": [[0, 1]]}, "constituents": {"0": [[0, 1]]}}
        path = write_obj(tmp_path, obj, "outside.json")
        code, out, err = run(capsys, "verify", path, colors)
        assert code == 1 and out is None
        assert err == f"error: {path}: constituent at vertex 0 uses position outside 0..0\n"

    def test_boolean_pair_after_an_equal_int_pair_is_named(self, capsys, tmp_path):
        # [0, true] equals [0, 1] in Python, and must not pass as the
        # checked constituent of vertex 0: vertex 1 is named as if alone.
        source = {"vertices": [0, 1], "edges": [[0, 1], [0, 1]]}
        colors = write_obj(tmp_path, {"palette": 3, "colors": [0, 0, 1, 1]}, "c.json")
        message = "constituent at vertex 1: pair 0 is not a pair of integers"
        for name, constituents in (
            ("alone.json", {"1": [[0, True]]}),
            ("after.json", {"0": [[0, 1]], "1": [[0, True]]}),
        ):
            path = write_obj(tmp_path, {"source": source, "constituents": constituents}, name)
            code, out, err = run(capsys, "verify", path, colors)
            assert code == 1 and out is None
            assert err == f"error: {path}: {message}\n"

    def test_duplicate_key_is_rejected(self, capsys, tmp_path):
        # With the last "colors" kept, this improper coloring of K4
        # would verify as proper.
        gfile = write_graph(tmp_path, k4())
        cfile = tmp_path / "dup.json"
        cfile.write_text('{"palette": 3, "colors": [0,0,0,0,0,0], "colors": [0,1,2,2,1,0]}')
        code, out, err = run(capsys, "verify", gfile, str(cfile))
        assert code == 1 and out is None
        assert err == f'error: {cfile}: duplicate key "colors"\n'

    def test_two_file_clash_report(self, capsys, tmp_path):
        g = k4()
        gfile = write_graph(tmp_path, g)
        bad = {"palette": 3, "colors": [0, 0] + [1] * (g.size - 2)}
        cfile = write_obj(tmp_path, bad, "bad.json")
        code, out, err = run(capsys, "verify", gfile, cfile)
        assert code == 1
        assert out["proper"] is False
        assert out["vertex"] == 0
        assert out["clash"] == [0, 1]
        assert "share color" in err

    def test_coverage_mismatch(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, k4())
        cfile = write_obj(tmp_path, {"palette": 3, "colors": [0, 1]}, "short.json")
        code, _, err = run(capsys, "verify", gfile, cfile)
        assert code == 1
        assert "cover" in err

    def test_truncation_file_plus_coloring_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "truncate", write_graph(tmp_path, q3()), "--kind", "arboreal")
        assert code == 0
        tr_file = write_obj(tmp_path, out, "tr.json")
        code, strong, _ = run(capsys, "color-strong", tr_file)
        assert code == 0
        colors = strong["coloring"]
        cfile = write_obj(tmp_path, colors, "colors.json")
        code, verdict, _ = run(capsys, "verify", tr_file, cfile)
        assert code == 0
        assert verdict == {"proper": True, "palette": 3, "colors_used": 3}
        # color-strong's own output verifies as it stands.
        strong_file = write_obj(tmp_path, strong, "strong.json")
        assert run(capsys, "verify", tr_file, strong_file)[:2] == (0, verdict)
        # Every end of the flattened truncation is checked: recolor one
        # constituent edge like a matching edge at its end.
        flat = truncation_from_obj(out).graph
        eid = len(out["source"]["edges"])  # the first constituent edge
        u = flat.endpoints(eid)[0]
        other = next(e for e in flat.incident(u) if e != eid)
        bad = dict(colors, colors=list(colors["colors"]))
        bad["colors"][eid] = bad["colors"][other]
        code, verdict, err = run(capsys, "verify", tr_file, write_obj(tmp_path, bad, "bad.json"))
        assert code == 1
        assert verdict["proper"] is False and verdict["vertex"] == u
        assert "share color" in err

    @pytest.mark.parametrize("count", [0, 3])
    def test_takes_one_or_two_files(self, capsys, tmp_path, count):
        g = k4()
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        coloring = {"palette": 3, "colors": [0, 1, 2, 2, 1, 0]}  # proper on K4
        files = [write_graph(tmp_path, g), write_obj(tmp_path, coloring, "c.json"), str(bad)]
        code, out, err = run(capsys, "verify", *files[:count])
        assert code == 1 and out is None
        assert err.startswith("error: ") and f"got {count} files" in err

    def test_single_file_needs_coloring_key(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, k4())
        code, _, err = run(capsys, "verify", gfile)
        assert code == 1
        assert "coloring" in err

    @pytest.mark.parametrize("name", sorted(K5_ANSWERS))
    def test_answers_on_k5_are_pinned(self, capsys, tmp_path, name):
        obj, code, stdout, stderr = K5_ANSWERS[name]
        graph = write_graph(tmp_path, complete_graph(5))
        path = write_obj(tmp_path, obj, "c.json")
        for dot in ([], ["--dot", str(tmp_path / "k5.dot")]):
            assert main(["verify", graph, path, *dot]) == code
            assert capsys.readouterr() == (stdout, stderr.format(path=path))

    def test_builds_a_coloring_only_to_draw(self, capsys, tmp_path, inputs, monkeypatch):
        # The parsed "colors" list is checked where it lies: a success
        # builds an EdgeColoring only for --dot, a bad value only to be
        # named.
        built = []
        post_init = EdgeColoring.__post_init__

        def counted(coloring):
            built.append(coloring)
            post_init(coloring)

        monkeypatch.setattr(EdgeColoring, "__post_init__", counted)
        colors = write_obj(tmp_path, {"palette": 5, "colors": K5_PROPER}, "c.json")
        two_files = [write_graph(tmp_path, complete_graph(5), "k5.json"), colors]
        for files, palette in (([inputs["bundle"]], 3), (two_files, 5)):
            assert main(["verify", *files]) == 0
            assert built == []
            assert main(["verify", *files, "--dot", str(tmp_path / "v.dot")]) == 0
            assert [coloring.palette_size for coloring in built] == [palette]
            built.clear()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "route", ["color-complete", "cyclic-color", "truncate-and-color-strong"]
    )
    def test_proper_truncation_coloring_is_accepted_without_flattening(
        self, capsys, tmp_path, monkeypatch, route
    ):
        gfile = write_graph(tmp_path, k5())
        if route == "truncate-and-color-strong":
            code, tr, _ = run(capsys, "truncate", gfile, "--kind", "cyclic")
            files = [write_obj(tmp_path, tr, "tr.json")]
            code, strong, _ = run(capsys, "color-strong", files[0])
            files.append(write_obj(tmp_path, strong, "strong.json"))
        else:
            strategy = ["--strategy", "even"] if route == "cyclic-color" else []
            code, bundle, _ = run(capsys, route, gfile, *strategy)
            files = [write_obj(tmp_path, bundle, "bundle.json")]
        assert code == 0

        def refuse(tr):
            raise AssertionError("verify built the flat graph of a proper coloring")

        monkeypatch.setattr(Truncation, "graph", property(refuse))
        code, verdict, err = run(capsys, "verify", *files)
        assert code == 0 and verdict["proper"] is True and err == ""

    def test_clash_is_named_as_on_the_flat_graph(self, capsys, tmp_path):
        # Recoloring constituent edge 9 of K4's complete truncation, on
        # ends 1 and 6, clashes at both ends.  The cluster check meets
        # end 6 first (edges 3 and 9), the flat graph's walk end 1
        # (edges 9 and 10); verify names the flat graph's, as it would
        # for the flat graph given as a plain graph file.
        code, bundle, _ = run(capsys, "color-complete", write_graph(tmp_path, k4()))
        assert code == 0
        colors = bundle["coloring"]["colors"]
        assert colors[9] != 2
        colors[9] = 2
        tr = truncation_from_obj(bundle["truncation"])
        assert tr.first_cluster_clash(colors, 3) == (6, 3, 9, 2)
        assert first_clash(tr.graph, colors) == (1, 9, 10)
        stdout = '{"proper": false, "vertex": 1, "clash": [9, 10], "color": 2}\n'
        stderr = "edges 9 and 10 share color 2 at vertex 1\n"
        flat = write_obj(tmp_path, graph_to_obj(tr.graph), "flat.json")
        for files in (
            [write_obj(tmp_path, bundle, "bad.json")],
            [flat, write_obj(tmp_path, bundle["coloring"], "c.json")],
        ):
            assert main(["verify", *files]) == 1
            assert capsys.readouterr() == (stdout, stderr)

    def test_cluster_clash_the_flat_graph_lacks_is_an_error(self, capsys, tmp_path, monkeypatch):
        # Should the two checks disagree, verify fails loudly and never
        # reports "proper": true.
        code, bundle, _ = run(capsys, "color-complete", write_graph(tmp_path, k4()))
        assert code == 0
        bundle["coloring"]["colors"][9] = 2
        monkeypatch.setattr(cli, "first_clash", lambda g, colors: None)
        with pytest.raises(AssertionError, match="clash the flat graph lacks"):
            main(["verify", write_obj(tmp_path, bundle, "bad.json")])
        assert capsys.readouterr().out == ""

    def test_dot_only_draws(self, capsys, tmp_path, monkeypatch, inputs):
        # --dot builds the flat graph to draw it; the cluster check still
        # decides, with no graph-level clash walk.
        def refuse(g, colors):
            raise AssertionError("verify walked the flat graph of a proper coloring")

        monkeypatch.setattr(cli, "first_clash", refuse)
        dot = tmp_path / "v.dot"
        code, verdict, err = run(capsys, "verify", inputs["bundle"], "--dot", str(dot))
        assert code == 0 and verdict["proper"] is True and err == ""
        assert dot.read_text().startswith("graph G {")


class TestDemo:
    @pytest.mark.parametrize(
        "name", ["petersen", "two-k5-bridge", "k4", "k5", "k33", "q3", "3-prism"]
    )
    def test_plain_graphs(self, capsys, name):
        code, out, _ = run(capsys, "demo", name)
        assert code == 0
        g = graph_from_obj(out)
        assert out["order"] == g.order
        assert out["size"] == g.size
        assert out["max_valency"] == g.max_valency()

    @pytest.mark.parametrize("name,order", [("q3-ccc", 24), ("truncated-tetrahedron", 12)])
    def test_truncation_demos_load_both_ways(self, capsys, name, order):
        code, out, _ = run(capsys, "demo", name)
        assert code == 0
        flat = graph_from_obj(out)
        assert flat.order == order
        assert flat.regular_valency() == 3
        tr = truncation_from_obj(out)
        assert tr.graph.order == order


@pytest.fixture
def inputs(tmp_path):
    """Graph files for K4 and the Petersen graph, K4's arboreal and
    complete truncations, and a color-complete bundle of K4."""
    tr, coloring = color_complete_truncation(k4())
    bundle = {"truncation": truncation_to_obj(tr), "coloring": coloring_to_obj(coloring)}
    return {
        "graph": write_graph(tmp_path, k4()),
        "petersen": write_graph(tmp_path, petersen(), "petersen.json"),
        "truncation": write_obj(tmp_path, truncation_to_obj(arboreal_truncation(k4())), "tr.json"),
        "complete": write_obj(tmp_path, bundle["truncation"], "complete.json"),
        "bundle": write_obj(tmp_path, bundle, "bundle.json"),
    }


# One successful run of every subcommand that can draw, and whether its
# drawing has clusters (a truncation) and colors (a coloring).
DRAWN = {
    "truncate": (lambda f: ["truncate", f["graph"], "--kind", "cyclic"], True, False),
    "color-complete": (lambda f: ["color-complete", f["graph"]], True, True),
    "cyclic-color": (lambda f: ["cyclic-color", f["graph"], "--strategy", "classone"], True, True),
    "color-strong": (lambda f: ["color-strong", f["truncation"]], True, True),
    "sun": (lambda f: ["sun", "--vector", "3,3,1"], False, True),
    "oracle": (lambda f: ["oracle", f["graph"]], False, True),
    "verify": (lambda f: ["verify", f["bundle"]], False, True),
    "demo": (lambda f: ["demo", "q3-ccc"], True, False),
}

# Runs that report a JSON object but draw nothing, with their exit codes.
UNDRAWN = {
    "class-two": (lambda f: ["color-complete", f["petersen"]], 1),
    "not-applicable": (lambda f: ["color-strong", f["complete"]], 1),
    "undecided": (lambda f: ["oracle", f["petersen"], "--budget", "1"], 2),
    "inadmissible": (lambda f: ["sun", "--vector", "2,1,1"], 0),
    "no-parity-coloring": (lambda f: ["cyclic-color", f["petersen"], "--strategy", "enabling"], 1),
}


class TestOutput:
    @pytest.mark.parametrize("name", sorted(DRAWN))
    def test_dot_per_subcommand(self, capsys, tmp_path, inputs, name):
        argv, clusters, colors = DRAWN[name]
        dot = tmp_path / f"{name}.dot"
        code, out, _ = run(capsys, *argv(inputs), "--dot", str(dot))
        assert code == 0 and out is not None
        text = dot.read_text()
        assert text.startswith("graph G {\n") and text.endswith("}\n")
        assert ("subgraph cluster_" in text) == clusters
        assert ("style=bold" in text) == clusters
        assert ("color=" in text) == colors

    @pytest.mark.parametrize("name", sorted(DRAWN) + sorted(UNDRAWN))
    def test_stdout_is_one_compact_json_line(self, capsys, inputs, name):
        argv, want = UNDRAWN[name] if name in UNDRAWN else (DRAWN[name][0], 0)
        code = main(argv(inputs))
        text = capsys.readouterr().out
        assert code == want
        obj = json.loads(text)
        assert isinstance(obj, dict) and text == json.dumps(obj) + "\n"

    def test_unwritable_dot_path_is_a_domain_error(self, capsys, tmp_path, inputs):
        code, out, err = run(
            capsys, "truncate", inputs["graph"], "--dot", str(tmp_path / "absent" / "t.dot")
        )
        assert code == 1
        assert out["kind"] == "complete"
        assert err.startswith("error: ") and "t.dot" in err


# sha256 of stdout and of the --dot file, per command, on K5 and K9
# graph files written by graph_to_obj: the bytes the flat graph's own
# writer gave before truncations were written from their clusters.
# verify's pins read a K9 bundle and a K5 coloring file, and hold the
# bytes verify gave when it still built an EdgeColoring on every run.
PINNED = {
    "color-complete-k5": (
        ["color-complete", "k5"],
        "b4cf29a70ab8aff9c5f5b5dffd239da5890f5e45d312e93e4f99b85be0eefaf7",
        "24d6a27bc6f1cce4a165f58d25a49340c8d0a2c8613ef5dbcf634643b0ded8ce",
    ),
    "color-complete-k9": (
        ["color-complete", "k9"],
        "b2cccdab6e24c9a05f30e833d11f9fbfbc1c7931678478bb47e1a8d3d6ded70e",
        "d26cdbf7da1a9111ecdddcfa0b68e8213840bcb0397d1dcc240a70437ccaf15f",
    ),
    "cyclic-color-even-seed-3": (
        ["cyclic-color", "k5", "--strategy", "even", "--seed", "3"],
        "b5236d0679fca4ef757ac1b8d5c0cbaac01d4d5e6f1eeffacc53b26d6425732e",
        "a30cb67ca5942c145a4864550786901dbe8251009cf3178ff2304c6dad7d4a4a",
    ),
    "truncate-complete": (
        ["truncate", "k5", "--kind", "complete"],
        "fdf824889e58683cd52554e7159c93ad23825a94357877e32fb12080ae4938f3",
        "378d0921fe0472a99fa32dc9344b8a8017382ad7d030e16897d9a3868ed18975",
    ),
    "truncate-cyclic": (
        ["truncate", "k5", "--kind", "cyclic"],
        "98a8d198fa62df8db525012066980ae515cbee65ed525cc1d3faebb0b795e616",
        "1a1f581edbd872f7b8fa3f395d85276c35b98b7b7e8690c01085a64601ce1829",
    ),
    "truncate-arboreal": (
        ["truncate", "k5", "--kind", "arboreal"],
        "2b8427db3a668035887d7cbb7b10252ec69c7067cfe86e0ed03bef7968bb1e0a",
        "176ecc136ab7fba26545f3c780af498bd29453d059c83b3f345b8f8005ba650e",
    ),
    "verify-bundle-k9": (
        ["verify", "k9-bundle"],
        "9dc3dad78caa9eb3d682f4d46b6bcdc740397e88af12e146af43e15747cff2ad",
        "6238ac8c9a8c34267d553692b3f52c00fe4272007f2f29fa9a2bce69aedb9000",
    ),
    "verify-graph-and-coloring-k5": (
        ["verify", "k5", "k5-coloring"],
        "da32a669cb507d18a3ec25cf91c3c3ace3397d86416fe64744897a7adc9eb6a0",
        "0d255eb7956a5f678dca468c39062adc98138ff2584d4a72a9e89a7b1150e7e5",
    ),
}


def _digit_limit() -> int:
    """The interpreter's limit on int literal digits; 0 if it has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


# File contents that the JSON parser itself fails on, past its syntax
# errors, by name.
UNREADABLE = {
    "not-utf8": lambda: b"\xff\xfe{}",
    "nested-too-deep": lambda: b"[" * 100_000,
    "int-past-the-digit-limit": lambda: b"1" * (_digit_limit() + 1),
}


class TestRefusals:
    @pytest.mark.parametrize("command", ["oracle", "color-strong", "verify"])
    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    def test_unreadable_json_names_its_file(self, capsys, tmp_path, name, command):
        if name == "int-past-the-digit-limit" and not _digit_limit():
            pytest.skip("this interpreter reads int literals of any length")
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNREADABLE[name]())
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out is None
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        if name == "int-past-the-digit-limit":
            # The limit, not the library call that would raise it.
            assert err == (
                f"error: {path}: an integer literal has more than {_digit_limit()} "
                "digits, the interpreter's limit\n"
            )

    @pytest.mark.parametrize("name", ["classone-without-3-coloring", "edges-not-a-list"])
    def test_degenerate_inputs(self, capsys, tmp_path, inputs, name):
        bundle = json.loads(Path(inputs["bundle"]).read_text())
        edges_object = write_obj(tmp_path, dict(bundle, edges={}), "edges.json")
        argv, message = {
            "classone-without-3-coloring": (
                ["cyclic-color", inputs["petersen"], "--strategy", "classone"],
                "source admits no proper 3-coloring; the folding route does not apply",
            ),
            "edges-not-a-list": (["verify", edges_object], f'{edges_object}: "edges" must be a list'),
        }[name]
        assert run(capsys, *argv) == (1, None, f"error: {message}\n")


class TestPinnedBytes:
    def argv(self, tmp_path, name):
        tr, coloring = color_complete_truncation(complete_graph(9))
        bundle = {"truncation": truncation_to_obj(tr), "coloring": coloring_to_obj(coloring)}
        files = {
            "k5": write_graph(tmp_path, complete_graph(5), "k5.json"),
            "k9": write_graph(tmp_path, complete_graph(9), "k9.json"),
            "k9-bundle": write_obj(tmp_path, bundle, "k9-bundle.json"),
            "k5-coloring": write_obj(tmp_path, _k5_colors(K5_PROPER), "k5-coloring.json"),
        }
        return [files.get(arg, arg) for arg in PINNED[name][0]]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stdout_and_dot_bytes(self, capsys, tmp_path, name):
        dot = tmp_path / "out.dot"
        assert main(self.argv(tmp_path, name) + ["--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        _, stdout_sha, dot_sha = PINNED[name]
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_sha

    # verify of a plain graph file has no truncation to flatten.
    @pytest.mark.parametrize("name", sorted(n for n in PINNED if n != "verify-graph-and-coloring-k5"))
    def test_flattens_only_to_draw(self, capsys, tmp_path, monkeypatch, name):
        argv = self.argv(tmp_path, name)
        flattened = []
        graph = Truncation.graph

        def counted(tr):
            if tr._flat is None:
                flattened.append(tr)
            return graph.fget(tr)

        monkeypatch.setattr(Truncation, "graph", property(counted))
        assert main(argv) == 0
        assert flattened == []
        assert main(argv + ["--dot", str(tmp_path / "out.dot")]) == 0
        assert len(flattened) == 1
        capsys.readouterr()


class Interrupted(BaseException):
    """Stands in for KeyboardInterrupt or a deadline signal."""


# Runs of main by how they end, each with the subcommand it goes through.
ENDINGS = {
    "ok": ("cmd_demo", lambda f: ["demo", "k4"], 0),
    "graph-error": ("cmd_oracle", lambda f: ["oracle", f["graph"] + ".absent"], 1),
    "undecided": ("cmd_oracle", lambda f: ["oracle", f["petersen"], "--budget", "1"], 2),
    "base-exception": ("cmd_demo", lambda f: ["demo", "k4"], Interrupted),
}


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_main_leaves_the_collector_as_it_found_it(
        self, capsys, inputs, monkeypatch, ending, enabled
    ):
        name, argv, want = ENDINGS[ending]
        command = getattr(cli, name)
        during = []

        def watched(args):
            during.append(gc.isenabled())
            if want is Interrupted:
                raise Interrupted
            return command(args)

        monkeypatch.setattr(cli, name, watched)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if want is Interrupted:
                with pytest.raises(Interrupted):
                    main(argv(inputs))
            else:
                assert main(argv(inputs)) == want
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()
        assert during == [False]

    def test_no_garbage_grows_with_the_input(self, capsys, tmp_path):
        # Objects left unreachable by one color-complete run: argparse's,
        # not the input's, so K17 leaves no more than K5.
        def unreachable(n):
            path = write_graph(tmp_path, complete_graph(n), f"k{n}.json")
            gc.collect()
            assert main(["color-complete", path]) == 0
            capsys.readouterr()
            return gc.collect()

        was = gc.isenabled()
        gc.disable()
        try:
            unreachable(5)
            k17, k5_again = unreachable(17), unreachable(5)
        finally:
            if was:
                gc.enable()
        assert k17 <= k5_again


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # Run the package these tests imported, wherever it lives.
        src = str(Path(truncolor.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "truncolor.cli", "demo", "k4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["name"] == "k4"
