import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncolor.errors import GraphError
from truncolor.multigraph import Multigraph

from conftest import outcome, random_multigraph


def brute_force_bridges(g: Multigraph) -> frozenset:
    """An edge is a bridge iff deleting it increases the component count."""
    base = len(g.components())
    out = set()
    for eid in g.edge_ids:
        if len(g.without_edges([eid]).components()) > base:
            out.add(eid)
    return frozenset(out)


# Edge lists drawn over a small vertex pool; parallel edges are welcome.
edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=12,
)


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(GraphError, match="loop"):
            Multigraph([0, 1], [(0, 0)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            Multigraph([0, 1], [(0, 2)])

    def test_edge_map_is_read_only(self):
        g = Multigraph([0, 1], [(0, 1)])
        with pytest.raises(TypeError):
            g.edges[1] = (0, 1)
        with pytest.raises(TypeError):
            del g.edges[0]
        assert g.edges == {0: (0, 1)} and g.size == 1

    def test_parallel_edges_kept_distinct(self):
        g = Multigraph([0, 1], [(0, 1), (0, 1), (1, 0)])
        assert g.size == 3
        assert g.valency(0) == g.valency(1) == 3
        assert g.multiplicity() == 3
        assert not g.is_simple()


class TestValencySum:
    @given(edge_lists)
    def test_valency_sum_is_twice_size(self, pairs):
        vertices = sorted({v for p in pairs for v in p})
        g = Multigraph(vertices, pairs)
        assert sum(g.valency(v) for v in g.vertices) == 2 * g.size

    def test_max_valency_and_regularity(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0)])
        assert g.max_valency() == 2
        assert g.regular_valency() == 2
        g2 = Multigraph(range(3), [(0, 1), (1, 2)])
        assert g2.regular_valency() is None


class TestBridges:
    @given(edge_lists)
    @settings(max_examples=150)
    def test_agrees_with_brute_force(self, pairs):
        vertices = sorted({v for p in pairs for v in p})
        g = Multigraph(vertices, pairs)
        assert g.bridges() == brute_force_bridges(g)

    def test_random_sweep_agrees_with_brute_force(self):
        rng = random.Random(5)
        for _ in range(120):
            g = random_multigraph(rng, max_vertices=7, max_edges=12)
            assert g.bridges() == brute_force_bridges(g)

    def test_parallel_pair_is_never_a_bridge(self):
        g = Multigraph([0, 1, 2], [(0, 1), (0, 1), (1, 2)])
        assert g.bridges() == frozenset({2})


class TestEulerTour:
    def test_tour_covers_component_once_with_shared_endpoints(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2), (2, 0)])
        tour = g.euler_tour(0)
        assert sorted(tour) == sorted(g.edge_ids)
        # Consecutive tour edges must share a vertex, chained as a walk.
        at = 0
        for eid in tour:
            u, w = g.endpoints(eid)
            assert at in (u, w)
            at = w if at == u else u
        assert at == 0

    def test_rejects_odd_valency(self):
        g = Multigraph(range(2), [(0, 1)])
        with pytest.raises(GraphError):
            g.euler_tour(0)

    def test_tour_searches_only_the_root_component(self, monkeypatch):
        def no_components(self):
            raise AssertionError("euler_tour listed every component")

        monkeypatch.setattr(Multigraph, "components", no_components)
        g = Multigraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert sorted(g.euler_tour(4)) == [3, 4, 5]

    def test_tours_of_random_even_graphs(self, rng):
        for _ in range(60):
            base = random_multigraph(rng, max_vertices=5, max_edges=8)
            # Doubling every edge makes all valencies even.
            pairs = [base.endpoints(e) for e in base.edge_ids]
            g = Multigraph(base.vertices, pairs + pairs)
            for comp in g.components():
                root = min(comp)
                tour = g.euler_tour(root)
                expect = [e for e in g.edge_ids if g.endpoints(e)[0] in comp or g.endpoints(e)[1] in comp]
                assert sorted(tour) == sorted(expect)


class TestComponents:
    def test_two_components(self):
        g = Multigraph(range(5), [(0, 1), (2, 3), (3, 4)])
        comps = {frozenset(c) for c in g.components()}
        assert comps == {frozenset({0, 1}), frozenset({2, 3, 4})}

    def test_without_edges_keeps_vertices(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        h = g.without_edges([0])
        assert h.order == 3
        assert sorted(h.edge_ids) == [1]


PATH_AND_POINT = Multigraph([0, 1, 2], [(0, 1)])


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: PATH_AND_POINT.endpoints(99), "GraphError: no edge with id 99"),
        (lambda: PATH_AND_POINT.other_end(0, 2), "GraphError: vertex 2 is not an endpoint of edge 0"),
        (
            lambda: Multigraph([], []).max_valency(),
            "GraphError: max_valency of an empty graph is undefined",
        ),
        (lambda: Multigraph([], []).regular_valency(), None),
        (lambda: Multigraph([0, 1], []).multiplicity(), 0),
        (lambda: PATH_AND_POINT.euler_tour(7), "GraphError: no vertex 7 in graph"),
        (lambda: PATH_AND_POINT.euler_tour(2), ()),
        (lambda: PATH_AND_POINT.without_edges([99]), "GraphError: no edge with id 99"),
    ],
    ids=[
        "endpoints-unknown-edge",
        "other-end-off-the-edge",
        "max-valency-empty",
        "regular-valency-empty",
        "multiplicity-edgeless",
        "euler-tour-unknown-root",
        "euler-tour-isolated-root",
        "without-unknown-edge",
    ],
)
def test_degenerate_inputs(call, want):
    assert outcome(call) == want
