import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from truncolor.catalog import k4, k5, petersen, q3, two_k5_bridge
from truncolor.coloring import (
    EdgeColoring,
    chromatic_index,
    is_proper,
    solve_edge_coloring,
)
from truncolor.cyclic_coloring import (
    ADMISSIBLE,
    TOTALLY_INADMISSIBLE,
    color_via_enabling,
    cut_edge_class_two,
    cyclic_class_one,
    cyclic_even_valency,
    cyclic_from_class_one,
    is_enabling,
    vector3_admissible,
    _single_cycle_sun,
)
from truncolor.errors import GraphError, Refusal, UndecidedError
from truncolor.multigraph import Multigraph
from truncolor.sun import _glue_suns, _parity_coloring_search, is_parity_balanced
from truncolor.truncation import contract, cyclic_truncation

from conftest import cycle_graph, disjoint_union, prism_graph


def _cycle_components(r, edges):
    """Vertex lists of the cycles of a 2-regular graph on 0..r-1."""
    adj = {i: [] for i in range(r)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    if any(len(ns) != 2 for ns in adj.values()):
        raise AssertionError("constituent is not 2-regular")
    seen = set()
    comps = []
    for start in range(r):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        comps.append(cyc)
    return comps


def doubled_triangle():
    return Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])


class TestVectorVerdicts:
    @pytest.mark.parametrize(
        "vec,verdict,universal",
        [
            ((1, 1, 1), ADMISSIBLE, False),
            ((4, 0, 0), ADMISSIBLE, True),
            ((6, 0, 0), ADMISSIBLE, True),
            ((0, 0, 6), ADMISSIBLE, True),
            ((2, 2, 0), ADMISSIBLE, False),
            ((2, 2, 2), ADMISSIBLE, False),
            ((5, 1, 1), ADMISSIBLE, False),
            ((3, 0, 0), TOTALLY_INADMISSIBLE, False),
            ((2, 1, 1), TOTALLY_INADMISSIBLE, False),
            ((5, 0, 0), TOTALLY_INADMISSIBLE, False),
            ((3, 2, 1), TOTALLY_INADMISSIBLE, False),
        ],
    )
    def test_verdicts(self, vec, verdict, universal):
        assert vector3_admissible(*vec) == (verdict, universal)

    def test_small_totals_rejected(self):
        with pytest.raises(GraphError):
            vector3_admissible(1, 1, 0)


# At three colors a vector is admissible iff its entries share a parity.
ADMISSIBLE_3_VECTORS = [
    (a, b, r - a - b)
    for r in range(3, 25)
    for a in range(r + 1)
    for b in range(r + 1 - a)
    if a % 2 == b % 2 == (r - a - b) % 2
]


class TestSingleCycleSuns:
    @pytest.mark.parametrize("vec", ADMISSIBLE_3_VECTORS)
    def test_merged_to_one_cycle(self, vec):
        sun = _single_cycle_sun(vec)
        sun.validate(regular=2)
        # walk the constituent: one component means r steps return home
        r = sum(vec)
        adj = {}
        for a, b in sun.constituent_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        prev, cur, steps = 0, adj[0][0], 1
        while cur != 0:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            steps += 1
        assert steps == r

    @pytest.mark.parametrize("vec", [(2, 1, 1), (3, 0, 0), (3, 2, 1), (1, 1, 0)])
    def test_inadmissible_vector_raises(self, vec):
        with pytest.raises(GraphError):
            _single_cycle_sun(vec)


class TestEvenValencyRoute:
    def test_k5_default_orders(self):
        tr, coloring = cyclic_even_valency(k5())
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 3

    def test_multigraph_source(self):
        tr, coloring = cyclic_even_valency(doubled_triangle())
        assert is_proper(tr.graph, coloring)

    def test_any_cycle_orders_work(self):
        # The even route is universal: twenty scrambled cluster orders.
        g = k5()
        for seed in range(20):
            rng = random.Random(seed)
            orders = {}
            for v in g.vertices:
                order = list(range(g.valency(v)))
                rng.shuffle(order)
                orders[v] = order
            tr, coloring = cyclic_even_valency(g, orders)
            assert is_proper(tr.graph, coloring)

    def test_rejects_odd_or_low_valencies(self):
        with pytest.raises(GraphError):
            cyclic_even_valency(k4())
        with pytest.raises(GraphError):
            cyclic_even_valency(cycle_graph(5))


class TestClassOneRoute:
    @pytest.mark.parametrize("factory", [k4, q3])
    def test_cubic_class_one_sources(self, factory):
        g = factory()
        sol, _ = solve_edge_coloring(g, 3)
        tr, coloring = cyclic_from_class_one(g, EdgeColoring(sol, 3))
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 3

    def test_five_regular_source(self):
        g = Multigraph(range(6), [(a, b) for a in range(6) for b in range(a + 1, 6)])
        sol, _ = solve_edge_coloring(g, 5)
        tr, coloring = cyclic_from_class_one(g, EdgeColoring(sol, 5))
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)

    def test_rejects_even_valency_source(self):
        g = k5()
        sol, _ = solve_edge_coloring(g, 5)
        with pytest.raises(GraphError):
            cyclic_from_class_one(g, EdgeColoring(sol, 5))

    def test_rejects_improper_coloring(self):
        g = k4()
        with pytest.raises(GraphError):
            cyclic_from_class_one(g, EdgeColoring({e: 0 for e in g.edge_ids}, 3))


class TestEnablingRoute:
    def test_perfect_matching_enables_cubic(self):
        g = k4()
        matching = [0, 5]  # (0,1) and (2,3)
        assert g.endpoints(0) != g.endpoints(5)
        assert is_enabling(g, matching)

    def test_wrong_count_is_not_enabling(self):
        g = k4()
        assert not is_enabling(g, [0])

    def test_unknown_edge_rejected(self):
        with pytest.raises(GraphError):
            is_enabling(k4(), [99])

    def test_color_via_enabling_k4(self):
        g = k4()
        tr, coloring = color_via_enabling(g, [0, 5])
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 3

    def test_enabling_colors_balance_at_source(self):
        # The matching edges carry the 3-coloring the search found, and
        # it is parity-balanced at every source vertex.
        g = q3()
        tr, coloring = cyclic_class_one(g)
        assert is_proper(tr.graph, coloring)
        assert is_parity_balanced(*contract(tr, coloring))

    def test_odd_component_rejected(self):
        # Petersen minus any perfect matching leaves two 5-cycles, so
        # enabling sets exist but never with even component sizes.
        g = petersen()
        # greedy perfect matching of the standard layout
        pm = []
        used = set()
        for eid in sorted(g.edge_ids):
            u, v = g.endpoints(eid)
            if u not in used and v not in used:
                pm.append(eid)
                used.add(u)
                used.add(v)
        assert len(pm) == 5
        assert is_enabling(g, pm)
        with pytest.raises(GraphError):
            color_via_enabling(g, pm)

    def test_petersen_has_no_enabling_submultigraph(self):
        assert isinstance(cyclic_class_one(petersen()), Refusal)

    def test_search_budget_raises(self):
        message = "^parity coloring search exceeded budget of 1 nodes$"
        with pytest.raises(UndecidedError, match=message):
            cyclic_class_one(petersen(), budget=1)


def _cycle_orders(k):
    """Every cyclic order of 0..k-1, once each: start at 0, and read
    the cycle in the direction whose second entry is smaller."""
    for rest in itertools.permutations(range(1, k)):
        if rest[0] < rest[-1]:
            yield (0,) + rest


def _small_sources():
    """Loopless multigraphs on 2 or 3 vertices with valencies 3..5, and
    on 4 vertices with valencies 3..4.  The 4-vertex ones include the
    bridged sources, which are the only ones here without a
    parity-balanced 3-coloring."""
    out = []
    for n, top in ((2, 5), (3, 5), (4, 4)):
        pairs = list(itertools.combinations(range(n), 2))
        for mult in itertools.product(range(top + 1), repeat=len(pairs)):
            edges = [p for p, m in zip(pairs, mult) for _ in range(m)]
            g = Multigraph(range(n), edges) if edges else None
            if g and all(3 <= g.valency(v) <= top for v in range(n)):
                out.append(g)
    return out


SMALL_SOURCES = _small_sources()
# Two triple edges joined by a bridge: valencies 3, 3, 4, 4.
BRIDGED = Multigraph(range(4), [(0, 3)] * 3 + [(1, 2)] * 3 + [(2, 3)])


class TestParityCriterion:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_SOURCES))
    @example(BRIDGED)
    def test_agrees_with_the_oracle_over_every_cycle_order(self, g):
        found = cyclic_class_one(g)
        if not isinstance(found, Refusal):
            tr, coloring = found
            assert coloring.palette_size == 3 and is_proper(tr.graph, coloring)
            for v in g.vertices:
                assert len(_cycle_components(g.valency(v), tr.constituents[v])) == 1
            assert chromatic_index(tr.graph).chi == 3
            return
        per_vertex = [list(_cycle_orders(g.valency(v))) for v in g.vertices]
        for orders in itertools.product(*per_vertex):
            tr = cyclic_truncation(g, dict(zip(g.vertices, orders)))
            assert chromatic_index(tr.graph).chi == 4

    def test_small_sources_cover_both_answers(self):
        answers = {isinstance(cyclic_class_one(g), Refusal) for g in SMALL_SOURCES}
        assert answers == {True, False}
        assert isinstance(cyclic_class_one(BRIDGED), Refusal)

    @pytest.mark.parametrize("n", [8, 10])
    def test_prisms(self, n):
        # 24 and 30 edges, out of reach of a scan over edge subsets.
        tr, coloring = cyclic_class_one(prism_graph(n))
        assert coloring.palette_size == 3 and is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 3

    @pytest.mark.parametrize("prism_first", [True, False])
    def test_class_two_component_is_refuted_on_its_own(self, prism_first):
        # The 20-prism's colorings are never re-enumerated to refute the
        # Petersen copy, whichever side has the lower vertex ids.
        parts = (prism_graph(20), petersen())
        g = disjoint_union(*(parts if prism_first else parts[::-1]))
        assert isinstance(cyclic_class_one(g, budget=10_000), Refusal)

    def test_components_colored_separately_glue_into_one_truncation(self):
        g = disjoint_union(prism_graph(8), k4(), prism_graph(5))
        tr, coloring = cyclic_class_one(g, budget=10_000)
        assert coloring.palette_size == 3 and is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 3

    def test_rejects_low_valency(self):
        with pytest.raises(GraphError, match="valency 2"):
            cyclic_class_one(cycle_graph(5))

    def test_unbalanced_coloring_is_a_graph_error(self):
        # Every vertex of K4 sees color 0 three times and colors 1, 2
        # zero times: even counts at odd valency.
        monochrome = EdgeColoring({e: 0 for e in k4().edge_ids}, 3)
        with pytest.raises(GraphError, match="not parity-balanced"):
            _glue_suns(k4(), monochrome, _single_cycle_sun)


# The parity search's smallest deciding budget on each source, and a
# sha256 over repr((palette_size, sorted assignment)) of its coloring,
# or None where no parity-conforming coloring exists.
PARITY_SEARCH_PINS = {
    "k4": (k4(), 3, 12, "69ccb5312a37102244a04cf9c60c5266cc111d3ea60c95d1f97ab6d408d3ae08"),
    "q3": (q3(), 3, 24, "1ada50523bb9d0efd90225d194b5819e23e936c40a19388e8c1bff7a1d3b3949"),
    "prism3": (prism_graph(3), 3, 18, "61cbbdb0108c0a79476a85a56744c4633f82980b3fb283f1c03285b8261698df"),
    "prism8": (prism_graph(8), 3, 48, "1c14fe5a483b52c5825f5bb3308930ee86dd23e4173c92813c5d083cfd711bf1"),
    "prism10": (prism_graph(10), 3, 60, "5d9ca4e42ef28a21c0e73211c8113af641ee8b2e61f87c9057d7daf93ab95e10"),
    "petersen": (petersen(), 3, 117, None),
    "bridged": (BRIDGED, 3, 6, None),
    "prism20+petersen": (disjoint_union(prism_graph(20), petersen()), 3, 237, None),
    "petersen+prism20": (disjoint_union(petersen(), prism_graph(20)), 3, 117, None),
    "prism8+k4+prism5": (
        disjoint_union(prism_graph(8), k4(), prism_graph(5)),
        3,
        90,
        "fa8bc69151b51acf7bad7be8e17554f41519d27d5eb6c7d4a41d9a057e36787e",
    ),
    # regular_truncation's clause (i) search: a bridge forbids parity
    # conformity; valencies 5, 5, 6 admit it.
    "bonds-bridged-d5": (Multigraph(range(4), [(0, 1)] * 5 + [(1, 2)] + [(2, 3)] * 5), 5, 10, None),
    "triangle-d5": (
        Multigraph(range(3), [(0, 1)] * 2 + [(0, 2)] * 3 + [(1, 2)] * 3),
        5,
        27,
        "b2de42aeceda2653f319e25a34a2acaa1c3171ff65764e95026e2c10e34f8c52",
    ),
}


class TestParitySearchPins:
    @pytest.mark.parametrize("name", sorted(PARITY_SEARCH_PINS))
    def test_nodes_and_colorings_are_pinned(self, name):
        g, d, nodes, digest = PARITY_SEARCH_PINS[name]
        with pytest.raises(UndecidedError) as err:
            _parity_coloring_search(g, d, nodes - 1)
        assert err.value.nodes == nodes
        found, spent = _parity_coloring_search(g, d, nodes)
        assert spent == nodes
        if digest is None:
            assert found is None
        else:
            text = repr((found.palette_size, sorted(found.assignment.items())))
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            assert is_parity_balanced(g, found)


class TestCutEdgeObstruction:
    def test_bridge_forces_class_two(self):
        tr = cyclic_truncation(two_k5_bridge())
        assert tr.graph.regular_valency() == 3
        assert cut_edge_class_two(tr.graph)

    def test_bridgeless_cubic_graph_is_not_caught(self):
        assert not cut_edge_class_two(petersen())
        tr = cyclic_truncation(k4())
        assert not cut_edge_class_two(tr.graph)

    def test_rejects_non_cubic(self):
        with pytest.raises(GraphError):
            cut_edge_class_two(k5())
