import pytest

from truncolor.catalog import k4, k5, petersen, q3
from truncolor.coloring import EdgeColoring, is_proper
from truncolor.errors import GraphError
from truncolor.multigraph import Multigraph
from truncolor.truncation import (
    Truncation,
    arboreal_truncation,
    assemble,
    complete_truncation,
    contract,
    cyclic_truncation,
    excise,
)

from conftest import random_multigraph


class TestExcise:
    def test_matching_ends_and_clusters(self):
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        matching, clusters = excise(g)
        assert matching == {0: (0, 1), 1: (2, 3), 2: (4, 5)}
        # Each cluster holds one end per incident edge, ascending by edge id.
        assert clusters[0] == (0, 4)
        assert clusters[1] == (1, 2)
        assert clusters[2] == (3, 5)

    def test_rejects_isolated_vertices(self):
        g = Multigraph([0, 1, 2], [(0, 1)])
        with pytest.raises(GraphError, match="isolated"):
            excise(g)


class TestTruncationShape:
    def test_flatten_counts(self, rng):
        for _ in range(30):
            x = random_multigraph(rng)
            tr = complete_truncation(x)
            flat = tr.graph
            assert flat.order == 2 * x.size
            expected_constituent = sum(
                len(tr.constituents[v]) for v in x.vertices
            )
            assert flat.size == x.size + expected_constituent

    def test_complete_truncation_preserves_valencies(self, rng):
        for _ in range(20):
            x = random_multigraph(rng)
            tr = complete_truncation(x)
            flat = tr.graph
            for v in x.vertices:
                for end in tr.clusters[v]:
                    assert flat.valency(end) == x.valency(v)
            assert flat.max_valency() == x.max_valency()

    def test_cyclic_truncation_is_cubic(self, rng):
        for _ in range(20):
            x = random_multigraph(rng, min_edges=4)
            if any(x.valency(v) < 3 for v in x.vertices):
                with pytest.raises(GraphError):
                    cyclic_truncation(x, None)
                continue
            tr = cyclic_truncation(x, None)
            assert tr.graph.regular_valency() == 3

    def test_edge_kind_and_id_split(self):
        tr = complete_truncation(k4())
        flat = tr.graph
        kinds = {tr.edge_kind(eid) for eid in flat.edge_ids}
        assert kinds == {"matching", "constituent"}
        for eid in tr.matching_ids:
            assert tr.edge_kind(eid) == "matching"
            assert eid in tr.source.edges

    def test_sun_subgraph_contains_cluster_and_pendants(self):
        tr = complete_truncation(k4())
        v = 0
        sun = tr.sun(v)
        cluster = set(tr.clusters[v])
        assert cluster <= set(sun.vertices)
        # One pendant matching edge per cluster vertex.
        pendant = [e for e in sun.edge_ids if tr.edge_kind(e) == "matching"]
        assert len(pendant) == len(cluster)


class TestValidation:
    def test_constituent_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            Truncation(k4(), {0: [(1, 1)]})

    def test_constituent_position_out_of_range(self):
        with pytest.raises(GraphError, match="position"):
            Truncation(k4(), {0: [(0, 3)]})

    def test_constituent_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="repeats"):
            Truncation(k4(), {0: [(0, 1), (1, 0)]})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="unknown"):
            Truncation(k4(), {9: []})

    def test_arboreal_rejects_cycles(self):
        with pytest.raises(GraphError, match="cycle|forest"):
            arboreal_truncation(k4(), {v: [(0, 1), (1, 2), (0, 2)] for v in range(4)})

    def test_arboreal_rejects_out_of_range_position(self):
        with pytest.raises(GraphError, match="outside"):
            arboreal_truncation(k4(), {0: [(0, 3)]})

    def test_cyclic_rejects_low_valency(self):
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            cyclic_truncation(g, None)

    def test_cyclic_rejects_bad_order(self):
        with pytest.raises(GraphError):
            cyclic_truncation(k4(), {0: [0, 1, 1]})


class TestRoundTrip:
    def test_contract_recovers_source(self, rng):
        for _ in range(30):
            x = random_multigraph(rng)
            tr = complete_truncation(x)
            palette = x.size
            coloring = EdgeColoring(
                {eid: eid % palette for eid in tr.graph.edge_ids}, palette
            )
            back, back_coloring = contract(tr, coloring)
            assert back.vertices == x.vertices
            assert back.edges == x.edges
            for eid in x.edge_ids:
                assert back_coloring.color_of(eid) == coloring.color_of(eid)

    def test_assemble_equals_constructor(self):
        x = k4()
        constituents = {v: [(0, 1), (1, 2)] for v in x.vertices}
        a = assemble(x, constituents)
        b = Truncation(x, constituents)
        assert a.graph.edges == b.graph.edges

    def test_truncated_tetrahedron_shape(self):
        tr = cyclic_truncation(k4(), None)
        flat = tr.graph
        assert flat.order == 12 and flat.size == 18
        assert flat.regular_valency() == 3

    def test_cube_connected_cycles_shape(self):
        tr = cyclic_truncation(q3(), None)
        flat = tr.graph
        assert flat.order == 24 and flat.size == 36
        assert flat.regular_valency() == 3


class TestColor:
    def test_glues_cluster_colors_onto_matching(self):
        tr = cyclic_truncation(k4(), None)
        calls = []

        def pair_color(v):
            calls.append(v)
            return dict(zip(tr.constituents[v], (1, 2, 3)))

        out = tr.color(dict.fromkeys(tr.matching, 0), pair_color, 4)
        assert sorted(calls) == sorted(k4().vertices)
        assert out.palette_size == 4
        assert is_proper(tr.graph, out)
        for eid in tr.matching:
            assert out.color_of(eid) == 0

    def test_clashing_cluster_map_raises(self):
        tr = cyclic_truncation(k4(), None)
        with pytest.raises(AssertionError, match="not proper"):
            tr.color(dict.fromkeys(tr.matching, 0), lambda v: dict.fromkeys(tr.constituents[v], 1), 3)
