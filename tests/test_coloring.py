import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncolor.canonical import complete_graph
from truncolor.catalog import k4, k33, petersen, prism3
from truncolor.coloring import (
    CLASS_I,
    CLASS_II,
    EdgeColoring,
    chromatic_index,
    cluster_clash,
    first_clash,
    is_proper,
    list_edge_coloring,
    solve_edge_coloring,
    _vizing_coloring,
)
from truncolor.errors import GraphError, UndecidedError
from truncolor.multigraph import Multigraph

from conftest import brute_force, prism_graph, random_multigraph


class TestEdgeColoring:
    def test_rejects_out_of_palette_colors(self):
        with pytest.raises(GraphError):
            EdgeColoring({0: 3}, 3)

    @pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
    def test_names_the_first_color_that_is_not_an_int(self, bad):
        with pytest.raises(GraphError, match=f"^edge 1 has color {bad!r}, not an int$"):
            EdgeColoring({0: 0, 1: bad, 2: True}, 3)

    @pytest.mark.parametrize("bad", [True, 2.5, "3", -1], ids=["bool", "float", "str", "negative"])
    def test_rejects_a_palette_that_is_not_a_nonnegative_int(self, bad):
        with pytest.raises(GraphError, match=f"^palette size {re.escape(repr(bad))} is not a nonnegative int$"):
            EdgeColoring({0: 0}, bad)

    def test_is_proper_requires_total_coverage(self):
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="^no color assigned to edge 1$"):
            is_proper(g, EdgeColoring({0: 0}, 2))
        # Colors on ids the graph lacks are not a coverage failure.
        assert is_proper(g, EdgeColoring({0: 0, 1: 1, 7: 0}, 2))

    def test_is_proper_is_false_on_a_clash_met_before_an_uncolored_edge(self):
        # Vertex 1 shows the clash of edges 0 and 1 before vertex 2
        # reaches uncolored edge 2.
        g = Multigraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
        assert not is_proper(g, EdgeColoring({0: 0, 1: 0}, 1))

    def test_detects_clash(self):
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2)])
        assert not is_proper(g, EdgeColoring({0: 0, 1: 0}, 1))
        assert is_proper(g, EdgeColoring({0: 0, 1: 1}, 2))


def reference_first_clash(g, coloring):
    """first_clash as one walk over each vertex's edges."""
    for v in g.vertices:
        seen = {}
        for eid in g.incident(v):
            if eid not in coloring.assignment:
                raise GraphError(f"no color assigned to edge {eid}")
            c = coloring.assignment[eid]
            if c in seen:
                return (v, seen[c], eid)
            seen[c] = eid
    return None


@st.composite
def partial_colorings(draw):
    """A small multigraph with valencies on both sides of first_clash's
    set pass, a proper coloring (each edge its own color) with a few
    edges recolored and a few left uncolored."""
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    g = Multigraph(range(n), draw(st.lists(pair, max_size=24)))
    palette = g.size + 1
    assignment = dict(zip(g.edge_ids, g.edge_ids))
    if g.size:
        eid = st.sampled_from(g.edge_ids)
        assignment.update(draw(st.dictionaries(eid, st.integers(0, palette - 1), max_size=3)))
        for gone in draw(st.sets(eid, max_size=2)):
            del assignment[gone]
    return g, EdgeColoring(assignment, palette)


class TestFirstClash:
    @given(partial_colorings())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference_walk(self, case):
        g, coloring = case
        try:
            want = reference_first_clash(g, coloring)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                first_clash(g, coloring)
            assert str(got.value) == str(exc)
        else:
            assert first_clash(g, coloring) == want


class TestClusterClash:
    # Three positions, all with pendant color 3, and the triangle on them.
    PENDANT = [3, 3, 3]
    TRIANGLE = [(0, 1), (1, 2), (0, 2)]

    def test_proper_cluster(self):
        assert cluster_clash(self.PENDANT, self.TRIANGLE, [0, 1, 2]) is None
        assert cluster_clash([0, 1], [], []) is None

    # Witnesses use sun graph ids: the matching edge at position p is
    # edge p, pair k is edge 3 + k.
    def test_pair_meets_a_pendant(self):
        assert cluster_clash(self.PENDANT, self.TRIANGLE, [0, 3, 2]) == (1, 1, 4, 3)
        assert cluster_clash([0, 1, 2], self.TRIANGLE, [2, 0, 0]) == (0, 0, 5, 0)

    def test_pair_meets_an_earlier_pair(self):
        # Pair 2 (0, 2) meets pair 0 at position 0; pair 1 (1, 2) meets
        # pair 0 at position 1.
        assert cluster_clash(self.PENDANT, self.TRIANGLE, [0, 1, 0]) == (0, 3, 5, 0)
        assert cluster_clash(self.PENDANT, self.TRIANGLE, [0, 0, 1]) == (1, 3, 4, 0)


class TestOracle:
    @pytest.mark.parametrize(
        "build,chi,verdict",
        [
            (k4, 3, CLASS_I),
            (k33, 3, CLASS_I),
            (petersen, 4, CLASS_II),
            (prism3, 3, CLASS_I),
            (lambda: complete_graph(5), 5, CLASS_II),
            (lambda: complete_graph(6), 5, CLASS_I),
        ],
    )
    def test_known_chromatic_indices(self, build, chi, verdict):
        g = build()
        res = chromatic_index(g)
        assert res.decided and res.chi == chi
        assert res.classify(g.max_valency()) == verdict

    def test_certificate_is_proper_and_tight(self, rng):
        for _ in range(40):
            g = random_multigraph(rng, max_vertices=5, max_edges=9)
            res = chromatic_index(g)
            assert res.decided
            assert res.chi >= g.max_valency()
            assert is_proper(g, res.certificate)
            assert res.certificate.palette_size == res.chi
            assert len(res.certificate.used_colors()) <= res.chi
            # One fewer color must be impossible, else chi is not minimal.
            down, _ = solve_edge_coloring(g, res.chi - 1)
            assert down is None

    def test_simple_graphs_within_one_of_max_valency(self, rng):
        for _ in range(40):
            g = random_multigraph(rng, max_vertices=6, max_edges=10, allow_parallel=False)
            res = chromatic_index(g)
            assert g.max_valency() <= res.chi <= g.max_valency() + 1

    def test_multigraph_exceeding_vizing_range(self):
        # Triple edge between two vertices of a triangle: chi' = 2*3 - ... the
        # fat triangle on valency 4 needs 6 colors, far above max valency + 1.
        g = Multigraph(
            [0, 1, 2],
            [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)],
        )
        res = chromatic_index(g)
        assert res.chi == 6

    def test_fat_triangle_starts_at_the_overfull_bound(self):
        # 6 edges on 3 vertices: each color is one edge, so chi' >= 6
        # before any search; an undecided run reports that bound.
        g = Multigraph(
            [0, 1, 2],
            [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)],
        )
        res = chromatic_index(g, budget=0)
        assert not res.decided
        assert res.lower_bound == 6

    @pytest.mark.parametrize("n,edge_cap", [(9, 40), (11, 60)])
    def test_odd_complete_graphs_decided_by_overfull_bound(self, n, edge_cap):
        # |E| = n(n-1)/2 > (n-1) * (n-1)/2: class II with no search.
        g = complete_graph(n)
        res = chromatic_index(g, edge_cap=edge_cap)
        assert res.decided and res.chi == n
        assert res.nodes == 0
        assert res.classify(n - 1) == CLASS_II
        assert is_proper(g, res.certificate)
        assert res.certificate.palette_size == n

    def test_dense_odd_order_graphs_are_tight(self, rng):
        # K5 and K7 minus up to n // 2 edges: overfull ones take the
        # Vizing certificate, the rest the search; either way one color
        # fewer must be impossible.
        for n in (5, 7):
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            for drop in range(0, n // 2 + 1):
                kept = pairs[:]
                rng.shuffle(kept)
                g = Multigraph(range(n), kept[drop:])
                res = chromatic_index(g)
                assert res.decided and is_proper(g, res.certificate)
                down, _ = solve_edge_coloring(g, res.chi - 1)
                assert down is None

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_vizing_coloring_of_any_simple_graph(self, data):
        # The certificate route is proved for every simple graph, not
        # only the overfull ones the oracle hands it.
        n = data.draw(st.integers(2, 9), label="order")
        all_pairs = list(itertools.combinations(range(n), 2))
        pairs = data.draw(
            st.lists(st.sampled_from(all_pairs), min_size=1, unique=True), label="edges"
        )
        g = Multigraph(range(n), pairs)
        k = g.max_valency() + 1
        col = EdgeColoring(_vizing_coloring(g), k)
        assert col.assignment.keys() == g.edges.keys()
        assert is_proper(g, col)

    def test_budget_exhaustion_reports_undecided(self):
        res = chromatic_index(petersen(), budget=3)
        assert not res.decided
        assert res.lower_bound >= 3
        with pytest.raises(UndecidedError):
            res.classify(3)

    def test_edge_cap_refuses_large_instances(self):
        b = [(i, i + 1) for i in range(50)]
        g = Multigraph(range(51), b)
        with pytest.raises(GraphError, match="cap"):
            chromatic_index(g)
        assert chromatic_index(g, edge_cap=60).chi == 2


class TestSolver:
    def test_overfull_palette_is_refuted_before_search(self):
        # K7 has 21 edges, and 6 colors hold at most 6 * 3 of them.
        g = complete_graph(7)
        assert solve_edge_coloring(g, 6, budget=0) == (None, 0)
        lists = dict.fromkeys(g.edge_ids, 0b111111)
        assert solve_edge_coloring(g, 6, lists=lists, budget=0) == (None, 0)

    def test_unsat_on_empty_list(self):
        g = Multigraph([0, 1], [(0, 1)])
        sol, nodes = solve_edge_coloring(g, 2, lists={0: 0})
        assert sol is None and nodes == 0

    @given(st.integers(3, 6))
    @settings(max_examples=4, deadline=None)
    def test_list_coloring_full_lists_matches_plain(self, n):
        g = complete_graph(n)
        lists = {eid: (1 << n) - 1 for eid in g.edge_ids}
        col = list_edge_coloring(g, {e: list(range(n)) for e in g.edge_ids})
        assert col is not None and is_proper(g, col)

    @pytest.mark.parametrize("n", [7, 8])
    def test_full_list_coloring_of_larger_complete_graphs(self, n):
        g = complete_graph(n)
        col = list_edge_coloring(g, {e: list(range(n)) for e in g.edge_ids})
        assert col is not None and is_proper(g, col)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, data):
        n = data.draw(st.integers(2, 5), label="order")
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                min_size=1,
                max_size=8,
            ),
            label="edges",
        )
        g = Multigraph(range(n), pairs)
        k = data.draw(st.integers(1, 4), label="k")
        full = (1 << k) - 1
        use_lists = data.draw(st.booleans(), label="use_lists")
        lists = None
        if use_lists:
            lists = {
                eid: data.draw(st.integers(0, full), label=f"list {eid}")
                for eid in g.edge_ids
            }
        sol, nodes = solve_edge_coloring(g, k, lists=lists)
        expected = brute_force(g, k, lists, g.vertices)
        assert (sol is not None) == expected
        if sol is not None:
            assert sorted(sol) == sorted(g.edge_ids)
            assert nodes >= g.size
            for eid, c in sol.items():
                assert 0 <= c < k
                if lists is not None:
                    assert lists[eid] >> c & 1
            for v in g.vertices:
                seen = [sol[eid] for eid in g.incident(v)]
                assert len(seen) == len(set(seen))

    def test_search_depth_is_not_bounded_by_recursion(self):
        # A 1,500-edge cubic prism: one stack frame per edge would blow
        # the interpreter's default recursion limit.
        g = prism_graph(500)
        sol, nodes = solve_edge_coloring(g, 3)
        assert sol is not None and nodes >= g.size
        assert is_proper(g, EdgeColoring(sol, 3))

    def test_list_coloring_respects_bans(self, rng):
        for _ in range(25):
            g = random_multigraph(rng, max_vertices=5, max_edges=7)
            k = g.max_valency() + g.multiplicity()
            lists = {}
            for eid in g.edge_ids:
                banned = eid % k
                lists[eid] = [c for c in range(k) if c != banned]
            col = list_edge_coloring(g, lists)
            if col is not None:
                assert is_proper(g, col)
                for eid in g.edge_ids:
                    assert col.color_of(eid) != eid % k
