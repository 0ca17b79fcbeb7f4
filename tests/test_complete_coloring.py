import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from truncolor.catalog import k4, k5, k33, path_graph, petersen, two_k5_bridge
from truncolor.coloring import CLASS_I, CLASS_II, EdgeColoring, classify, is_proper
from truncolor.complete_coloring import (
    ClassIIWitness,
    color_complete_truncation,
    color_delta_minus_one,
    find_edge_feasible,
    is_edge_feasible,
    regular_odd_equivalence,
    subtruncation_coloring,
)
from truncolor.errors import GraphError
from truncolor.multigraph import Multigraph
from truncolor.truncation import (
    assemble,
    complete_truncation,
    contract,
    cyclic_truncation,
)


class TestEdgeFeasibility:
    def test_found_coloring_is_feasible(self):
        for g in (k4(), k33()):
            coloring = find_edge_feasible(g)
            assert coloring is not None
            assert is_edge_feasible(g, coloring)

    def test_petersen_has_none(self):
        assert find_edge_feasible(petersen()) is None

    def test_bridge_graph_has_one_despite_class_two_blocks(self):
        # Only the two valency-5 bridge ends are constrained; the K5
        # blocks may clash internally.
        g = two_k5_bridge()
        coloring = find_edge_feasible(g)
        assert coloring is not None
        assert is_edge_feasible(g, coloring)
        assert not is_proper(g, coloring)

    def test_rejects_even_max_valency(self):
        with pytest.raises(GraphError):
            find_edge_feasible(k5())
        with pytest.raises(GraphError):
            is_edge_feasible(k5(), EdgeColoring({e: 0 for e in k5().edge_ids}, 1))

    def test_rejects_oversized_palette(self):
        g = k4()
        with pytest.raises(GraphError):
            is_edge_feasible(g, EdgeColoring({e: e for e in g.edge_ids}, 6))

    def test_distinctness_checked_only_at_max_valency(self):
        # Path with middle vertex of valency 2... use a star plus tail so
        # the max-valency vertex is unique.
        g = Multigraph(range(5), [(0, 1), (0, 2), (0, 3), (3, 4)])
        ok = EdgeColoring({0: 0, 1: 1, 2: 2, 3: 2}, 3)
        assert is_edge_feasible(g, ok)  # clash at vertex 3 is allowed
        bad = EdgeColoring({0: 0, 1: 1, 2: 1, 3: 2}, 3)
        assert not is_edge_feasible(g, bad)


class TestCompleteTruncationColoring:
    def test_even_valency_source(self):
        out = color_complete_truncation(k5())
        assert not isinstance(out, ClassIIWitness)
        tr, coloring = out
        assert coloring.palette_size == 4
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 4

    @pytest.mark.parametrize("factory", [k4, k33])
    def test_odd_class_one_source(self, factory):
        g = factory()
        out = color_complete_truncation(g)
        assert not isinstance(out, ClassIIWitness)
        tr, coloring = out
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)

    def test_mixed_valency_source_uses_repair_path(self):
        # Bridge ends have valency 5, the rest 4 = delta - 1, so the
        # K5 clusters run through the deficient-cluster construction.
        g = two_k5_bridge()
        out = color_complete_truncation(g)
        assert not isinstance(out, ClassIIWitness)
        tr, coloring = out
        assert coloring.palette_size == 5
        assert is_proper(tr.graph, coloring)

    def test_petersen_witness(self):
        out = color_complete_truncation(petersen())
        assert isinstance(out, ClassIIWitness)
        assert out.delta == 3
        assert out.nodes > 0
        assert "4" in out.reason

    def test_witness_agrees_with_oracle(self):
        tr = complete_truncation(petersen())
        assert classify(tr.graph, edge_cap=tr.graph.size) == CLASS_II

    def test_low_valency_clusters_via_padding(self):
        # A source with valencies 3, 2, 1: clusters below delta - 1 are
        # padded to delta - 1 positions and colored as that case.
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        out = color_complete_truncation(g)
        assert not isinstance(out, ClassIIWitness)
        tr, coloring = out
        assert is_proper(tr.graph, coloring)
        assert coloring.palette_size == 3

    @pytest.mark.parametrize("d", [41, 51, 101])
    def test_large_odd_delta_with_small_cluster(self, d):
        # a-b by d-2 parallel edges, b-c by 2: a's cluster has order d-2.
        g = Multigraph([0, 1, 2], [(0, 1)] * (d - 2) + [(1, 2)] * 2)
        out = color_complete_truncation(g)
        assert not isinstance(out, ClassIIWitness)
        tr, coloring = out
        assert coloring.palette_size == d
        assert is_proper(tr.graph, coloring)

    def test_matching_colors_contract_to_feasible_coloring(self):
        for factory in (k4, k33, two_k5_bridge):
            g = factory()
            out = color_complete_truncation(g)
            tr, coloring = out
            back, back_coloring = contract(tr, coloring)
            assert back.edges == g.edges
            assert is_edge_feasible(back, back_coloring)


@st.composite
def small_sources(draw):
    n = draw(st.integers(2, 5))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(edge, min_size=1, max_size=9))
    return Multigraph(sorted({v for p in pairs for v in p}), pairs)


class TestAgainstOracle:
    @given(small_sources())
    @example(Multigraph(range(4), [(0, 1), (1, 2), (1, 3), (2, 3), (2, 3)]))  # class II
    @settings(max_examples=80, deadline=None)
    def test_coloring_or_confirmed_witness(self, x):
        tr = complete_truncation(x)
        assume(tr.graph.size <= 40)
        out = color_complete_truncation(x)
        if isinstance(out, ClassIIWitness):
            assert classify(tr.graph, edge_cap=40) == CLASS_II
        else:
            colored, coloring = out
            assert coloring.palette_size == x.max_valency()
            assert is_proper(colored.graph, coloring)


class TestDeltaMinusOneConstituent:
    def _check(self, pend, palette):
        out = color_delta_minus_one(pend, palette)
        m = len(pend)
        seen = {p: {pend[p]} for p in range(m)}
        for (p, q), c in out.items():
            assert 0 <= c < palette
            assert c not in seen[p]
            assert c not in seen[q]
            seen[p].add(c)
            seen[q].add(c)
        assert len(out) == m * (m - 1) // 2

    def test_exhaustive_small_palettes(self):
        for palette in (3, 5):
            for pend in product(range(palette), repeat=palette - 1):
                self._check(pend, palette)

    def test_sampled_palette_seven(self):
        rng = random.Random(20240817)
        for _ in range(300):
            pend = tuple(rng.randrange(7) for _ in range(6))
            self._check(pend, 7)

    def test_domain_errors(self):
        with pytest.raises(GraphError):
            color_delta_minus_one((0, 1), 4)  # even palette
        with pytest.raises(GraphError):
            color_delta_minus_one((0, 1, 2), 5)  # wrong cluster size
        with pytest.raises(GraphError):
            color_delta_minus_one((0, 1, 5, 2), 5)  # color outside palette


class TestSubtruncationColoring:
    def test_cyclic_subtruncation_of_k4(self):
        g = k4()
        tr = cyclic_truncation(g)
        coloring = subtruncation_coloring(g, tr)
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)

    def test_assume_class_one_matches_checked_run(self):
        g = k33()
        tr = cyclic_truncation(g)
        checked = subtruncation_coloring(g, tr)
        assumed = subtruncation_coloring(g, tr, assume_class_one=True)
        assert checked.assignment == assumed.assignment

    def test_rejects_foreign_source(self):
        tr = cyclic_truncation(k4())
        with pytest.raises(GraphError):
            subtruncation_coloring(k33(), tr)

    def test_rejects_lowered_max_valency(self):
        g = k4()
        tr = assemble(g, {v: [] for v in g.vertices})
        assert tr.graph.max_valency() == 1
        with pytest.raises(GraphError):
            subtruncation_coloring(g, tr)

    def test_rejects_class_two_source(self):
        g = petersen()
        tr = cyclic_truncation(g)
        with pytest.raises(GraphError):
            subtruncation_coloring(g, tr)


class TestRegularOddEquivalence:
    def test_class_one_side(self):
        assert regular_odd_equivalence(k4()) == (True, True)
        assert regular_odd_equivalence(k33()) == (True, True)

    def test_class_two_side(self):
        assert regular_odd_equivalence(petersen()) == (False, False)

    def test_rejects_even_or_irregular(self):
        with pytest.raises(GraphError):
            regular_odd_equivalence(k5())
        with pytest.raises(GraphError):
            regular_odd_equivalence(path_graph(4))
