import random

import pytest

import truncolor.strong_arboreal as strong_module

from truncolor.canonical import complete_graph
from truncolor.catalog import k4, k5, petersen, q3
from truncolor.coloring import is_proper
from truncolor.multigraph import Multigraph
from truncolor.errors import Refusal
from truncolor.strong_arboreal import color_by_strong
from truncolor.truncation import (
    Truncation,
    arboreal_truncation,
    complete_truncation,
    cyclic_truncation,
)

from conftest import constituent_edge_ids, path_graph, random_multigraph


def random_forests(g, rng):
    """A random forest on each cluster: children attach to earlier positions."""
    forests = {}
    for v in g.vertices:
        size = g.valency(v)
        pairs = []
        for i in range(1, size):
            if rng.random() < 0.7:
                pairs.append((rng.randrange(i), i))
        forests[v] = pairs
    return forests


def arboreal_is_class_one(x, forests=None):
    """Build a forest-constituent truncation and color it optimally.

    Always succeeds: forests are class I, so the strong-constituent
    route applies unconditionally.
    """
    tr = arboreal_truncation(x, forests)
    out = color_by_strong(tr)
    if isinstance(out, Refusal):
        raise AssertionError(f"forest constituents reported class II: {out.reason}")
    return tr, out


class TestColorByStrong:
    def test_path_constituents_of_k4(self):
        tr = arboreal_truncation(k4())
        out = color_by_strong(tr)
        assert not isinstance(out, Refusal)
        assert out.palette_size == tr.graph.max_valency() == 3
        assert is_proper(tr.graph, out)

    def test_matching_keeps_color_zero_and_constituents_avoid_it(self):
        tr = arboreal_truncation(k4())
        out = color_by_strong(tr)
        for eid in tr.matching:
            assert out.color_of(eid) == 0
        for v in k4().vertices:
            for eid in constituent_edge_ids(tr, v):
                assert out.color_of(eid) >= 1

    def test_single_edge_source(self):
        tr = arboreal_truncation(path_graph(2))
        out = color_by_strong(tr)
        assert not isinstance(out, Refusal)
        assert out.palette_size == 1

    def test_complete_constituents_of_k5_are_class_one(self):
        # K4 clusters take 3 = delta - 1 colors, so the route applies.
        tr = complete_truncation(k5())
        out = color_by_strong(tr)
        assert not isinstance(out, Refusal)
        assert out.palette_size == 4
        assert is_proper(tr.graph, out)

    def test_petersen_constituent_is_not_applicable(self):
        # A valency-10 hub whose cluster carries the Petersen graph:
        # the critical constituent needs 4 colors but only 3 fit.
        leaves = list(range(1, 11))
        g = Multigraph(range(11), [(0, leaf) for leaf in leaves])
        pete = petersen()
        pairs = [pete.endpoints(eid) for eid in sorted(pete.edge_ids)]
        tr = Truncation(g, {0: pairs})
        out = color_by_strong(tr)
        assert isinstance(out, Refusal)
        assert out.at == 0
        assert "valency-4" in out.reason

    def test_cyclic_cubic_constituents_are_not_applicable(self):
        # Triangle clusters in a cubic flatten graph: chi' of C3 is 3,
        # one more than delta - 1 = 2.
        tr = cyclic_truncation(q3())
        out = color_by_strong(tr)
        assert isinstance(out, Refusal)
        assert "valency-3 end" in out.reason

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_overfull_complete_constituents_need_no_search(self, n):
        # Each cluster carries K_{n-1} of odd order, overfull in n - 2
        # colors: refuted by counting, with a budget of zero nodes.
        out = color_by_strong(complete_truncation(complete_graph(n)), budget=0)
        assert isinstance(out, Refusal)
        assert f"valency-{n - 1} end" in out.reason
        assert out.nodes == 0

    def test_each_constituent_is_searched_on_its_own_cluster(self, monkeypatch):
        # Cyclic truncation of the 4-regular circulant C_11(1, 2): every
        # search sees a 4-cycle on its cluster's positions only.
        orders = []
        solve = strong_module.solve_edge_coloring

        def recorded(g, k, **kwargs):
            orders.append(g.order)
            return solve(g, k, **kwargs)

        monkeypatch.setattr(strong_module, "solve_edge_coloring", recorded)
        source = Multigraph(range(11), [(v, (v + s) % 11) for v in range(11) for s in (1, 2)])
        tr = cyclic_truncation(source)
        out = color_by_strong(tr)
        assert is_proper(tr.graph, out)
        # In the default orders every cluster has the same 4-cycle,
        # searched once for all eleven.
        assert orders == [4]
        # The three 4-cycles on four positions, in turn: one search per
        # distinct constituent.
        orders.clear()
        cycles = ([0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3])
        tr = cyclic_truncation(source, {v: cycles[v % 3] for v in source.vertices})
        out = color_by_strong(tr)
        assert is_proper(tr.graph, out)
        distinct = set(tr.constituents.values())
        assert len(distinct) == 3 and orders == [4] * len(distinct)

    def test_a_repeated_failing_constituent_is_named_at_its_first_vertex(self):
        # K5's clusters of four: a triangle (a valency-3 end, D = 3) is
        # class II in D - 1 = 2 colors.  Vertices 4 and 2 hold equal
        # triangles, given in that order; vertex 3 another one.  The
        # first failing vertex in sorted order is 2.
        triangle = [(0, 1), (1, 2), (0, 2)]
        constituents = {
            4: triangle,
            2: list(triangle),
            3: [(1, 2), (2, 3), (1, 3)],
            0: [(0, 1)],
            1: [(2, 3)],
        }
        tr = Truncation(k5(), constituents)
        assert tr.constituents[2] is tr.constituents[4]
        out = color_by_strong(tr)
        assert isinstance(out, Refusal)
        assert out.at == 2
        assert out.reason.startswith("constituent at source vertex 2 holds a valency-3 end")


class TestArborealRoute:
    def test_always_class_one_default_paths(self):
        for factory in (k4, k5, petersen, q3):
            g = factory()
            tr, out = arboreal_is_class_one(g)
            assert out.palette_size == tr.graph.max_valency()
            assert is_proper(tr.graph, out)

    def test_seeded_random_sources_and_forests(self):
        rng = random.Random(20240817)
        for _ in range(25):
            g = random_multigraph(rng, max_vertices=6, max_edges=10)
            tr, out = arboreal_is_class_one(g, random_forests(g, rng))
            assert is_proper(tr.graph, out)
            assert out.palette_size == tr.graph.max_valency()

    def test_star_forests_on_k5(self):
        g = k5()
        forests = {v: [(0, i) for i in range(1, g.valency(v))] for v in g.vertices}
        tr, out = arboreal_is_class_one(g, forests)
        assert is_proper(tr.graph, out)
        # star centers carry 3 forest edges plus the matching end
        assert out.palette_size == tr.graph.max_valency() == 4
