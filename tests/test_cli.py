import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import truncolor
from truncolor.catalog import k4, k5, petersen, q3, two_k5_bridge
from truncolor.cli import main
from truncolor.io import graph_from_obj, graph_to_obj, truncation_from_obj


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
        truncation_from_obj(out)  # emitted object reloads as a truncation

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

    def test_petersen_witness_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "color-complete", write_graph(tmp_path, petersen()), "--witness"
        )
        assert code == 0
        assert out["class"] == "II"
        assert out["delta"] == 3
        assert out["witness"]["nodes"] > 0


class TestCyclicColor:
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

    def test_enabling_strategy_auto_search(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cyclic-color", write_graph(tmp_path, q3()), "--strategy", "enabling"
        )
        assert code == 0
        assert len(out["enabling_edges"]) > 0

    def test_enabling_strategy_rejects_petersen(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cyclic-color", write_graph(tmp_path, petersen()), "--strategy", "enabling"
        )
        assert code == 1
        assert "enabling" in err


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

    def test_edge_cap_guard(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oracle", write_graph(tmp_path, petersen()), "--edge-cap", "5"
        )
        assert code == 1
        assert "cap" in err


class TestVerify:
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

    def test_single_file_needs_coloring_key(self, capsys, tmp_path):
        gfile = write_graph(tmp_path, k4())
        code, _, err = run(capsys, "verify", gfile)
        assert code == 1
        assert "coloring" in err


class TestDemo:
    @pytest.mark.parametrize("name", ["petersen", "two-k5-bridge", "k4"])
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
