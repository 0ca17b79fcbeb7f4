import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import truncolor.canonical as canonical
import truncolor.complete_coloring as complete_coloring

from truncolor.canonical import class_of_pair
from truncolor.catalog import complete_bipartite, k4, k5, k33, petersen, two_k5_bridge
from truncolor.coloring import (
    CLASS_II,
    EdgeColoring,
    chromatic_index,
    cluster_clash,
    first_clash,
    is_proper,
)
from truncolor.complete_coloring import (
    color_complete_truncation,
    color_delta_minus_one,
    find_edge_feasible,
    is_edge_feasible,
    subtruncation_coloring,
)
from truncolor.errors import GraphError, Refusal
from truncolor.multigraph import Multigraph
from truncolor.truncation import (
    Truncation,
    complete_truncation,
    contract,
    cyclic_truncation,
)

from conftest import (
    brute_force,
    constituent_edge_ids,
    outcome,
    path_graph,
    regular_odd_equivalence,
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
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert coloring.palette_size == 4
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 4

    @pytest.mark.parametrize("factory", [k4, k33])
    def test_odd_class_one_source(self, factory):
        g = factory()
        out = color_complete_truncation(g)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)

    def test_mixed_valency_source_uses_repair_path(self):
        # Bridge ends have valency 5, the rest 4 = delta - 1, so the
        # K5 clusters run through the deficient-cluster construction.
        g = two_k5_bridge()
        out = color_complete_truncation(g)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert coloring.palette_size == 5
        assert is_proper(tr.graph, coloring)

    def test_petersen_witness(self):
        out = color_complete_truncation(petersen())
        assert isinstance(out, Refusal)
        assert out.at is None
        assert out.nodes > 0
        assert "4" in out.reason

    def test_witness_agrees_with_oracle(self):
        tr = complete_truncation(petersen())
        g = tr.graph
        assert chromatic_index(g, edge_cap=g.size).classify(g.max_valency()) == CLASS_II

    def test_low_valency_clusters_via_padding(self):
        # A source with valencies 3, 2, 1: order-2 clusters take the
        # order delta - 1 case, and order-1 clusters have no pairs.
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        out = color_complete_truncation(g)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert is_proper(tr.graph, coloring)
        assert coloring.palette_size == 3

    @pytest.mark.parametrize("d", [41, 51, 101])
    def test_large_odd_delta_with_small_cluster(self, d):
        # a-b by d-2 parallel edges, b-c by 2: a's cluster has order d-2.
        g = Multigraph([0, 1, 2], [(0, 1)] * (d - 2) + [(1, 2)] * 2)
        out = color_complete_truncation(g)
        assert not isinstance(out, Refusal)
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


class TestCoreLemma:
    """An edge-feasible coloring exists exactly when the core (the
    subgraph on the maximum-valency vertices) is max-valency colorable."""

    @given(small_sources())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, x):
        delta = x.max_valency()
        assume(delta % 2 == 1)
        top = [v for v in x.vertices if x.valency(v) == delta]
        coloring = find_edge_feasible(x)
        assert (coloring is not None) == brute_force(x, delta, None, top)
        if coloring is not None:
            assert coloring.assignment.keys() == x.edges.keys()
            assert is_edge_feasible(x, coloring)

    def test_overfull_core_is_refuted_without_search(self):
        # The doubled triangle has 6 edges on 3 vertices, so 5 colors
        # hold at most 5 of them; a pendant edge per vertex raises the
        # valency to 5 and leaves the core as it is.
        doubled = [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]
        x = Multigraph(range(6), doubled + [(0, 3), (1, 4), (2, 5)])
        out = color_complete_truncation(x, budget=0)
        assert isinstance(out, Refusal)
        assert out.nodes == 0
        assert "valency-5 vertices" in out.reason

    def test_core_coloring_is_completed_with_free_colors(self):
        # The hub's core is the hub alone: its edges take 0..4 in id
        # order, and the path edges, with no valency-5 end, take 0.
        x = hub_source(5, 2)
        coloring = find_edge_feasible(x, budget=0)
        assert coloring.assignment == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 0, 6: 0}


@st.composite
def subtruncations(draw):
    """A small source and a truncation of it that keeps a complete
    constituent on one cluster of maximum size and any subset of the
    complete pairs elsewhere."""
    x = draw(small_sources())
    delta = x.max_valency()
    keep = next(v for v in x.vertices if x.valency(v) == delta)
    constituents = {}
    for v in x.vertices:
        pairs = list(combinations(range(x.valency(v)), 2))
        if v != keep and pairs:
            pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
        constituents[v] = pairs
    return Truncation(x, constituents)


class TestSubtruncationIsRestriction:
    @given(subtruncations())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_restricted_complete_coloring(self, tr):
        full = color_complete_truncation(tr.source)
        if isinstance(full, Refusal):
            with pytest.raises(GraphError, match="^exhaustive search found no coloring"):
                subtruncation_coloring(tr)
            return
        comp, coloring = full
        colors = coloring.assignment
        got = subtruncation_coloring(tr).assignment
        for eid in tr.matching:
            assert got[eid] == colors[eid]
        for v, pairs in tr.constituents.items():
            want = dict(zip(comp.constituents[v], map(colors.get, constituent_edge_ids(comp, v))))
            assert list(map(got.get, constituent_edge_ids(tr, v))) == list(map(want.get, pairs))


class TestAgainstOracle:
    @given(small_sources())
    @example(Multigraph(range(4), [(0, 1), (1, 2), (1, 3), (2, 3), (2, 3)]))  # class II
    @settings(max_examples=80, deadline=None)
    def test_coloring_or_confirmed_witness(self, x):
        tr = complete_truncation(x)
        assume(tr.graph.size <= 40)
        out = color_complete_truncation(x)
        if isinstance(out, Refusal):
            g = tr.graph
            assert chromatic_index(g, edge_cap=40).classify(g.max_valency()) == CLASS_II
        else:
            colored, coloring = out
            assert coloring.palette_size == x.max_valency()
            assert is_proper(colored.graph, coloring)


# sha256 of the sorted colorings of every pendant vector for palettes 3
# and 5, then of 12 seeded vectors per odd palette 7..51 (see
# delta_minus_one_sample).
DELTA_MINUS_ONE_SHA256 = "04fdbd94d43ce7331a58b1d2a3bf49966b7affdf3cc0d12f541c76db90a0f6a9"


def delta_minus_one_sample():
    for palette in (3, 5):
        for pend in product(range(palette), repeat=palette - 1):
            yield pend, palette
    rng = random.Random(15)
    for palette in range(7, 52, 2):
        for _ in range(12):
            colors = rng.sample(range(palette), rng.randint(2, palette))
            yield tuple(rng.choice(colors) for _ in range(palette - 1)), palette


def by_pair(n, colors):
    """A constituent's colors in combinations(range(n), 2) order, keyed
    by their position pairs."""
    assert len(colors) == n * (n - 1) // 2
    return dict(zip(combinations(range(n), 2), colors))


def reserved_colors(pend):
    """c(t-1) and c(t): the two most frequent pendant colors, ties by
    color.  No class takes them, so only the repair can use them."""
    return sorted(set(pend), key=lambda c: (pend.count(c), c))[-2:]


class TestDeltaMinusOneConstituent:
    def test_colorings_are_pinned(self):
        digest = hashlib.sha256()
        repaired = 0
        for pend, palette in delta_minus_one_sample():
            out = by_pair(palette - 1, color_delta_minus_one(pend, palette))
            digest.update(repr(sorted(out.items())).encode())
            repaired += palette >= 7 and not set(reserved_colors(pend)).isdisjoint(out.values())
        assert repaired == 265
        assert digest.hexdigest() == DELTA_MINUS_ONE_SHA256

    def _check(self, pend, palette):
        out = by_pair(palette - 1, color_delta_minus_one(pend, palette))
        m = len(pend)
        seen = {p: {pend[p]} for p in range(m)}
        for (p, q), c in out.items():
            assert 0 <= c < palette
            assert c not in seen[p]
            assert c not in seen[q]
            seen[p].add(c)
            seen[q].add(c)
        assert len(out) == m * (m - 1) // 2

    def test_reads_classes_without_building_the_scheme(self, monkeypatch):
        # Each pair's class comes from its labels by class_of_pair's
        # closed form; no scheme class is built.
        def refuse(*args):
            raise AssertionError("the order D-1 lemma built a scheme class")

        monkeypatch.setattr(canonical, "scheme_class", refuse)
        monkeypatch.setattr(complete_coloring, "scheme_class", refuse, raising=False)
        for pend, palette in delta_minus_one_sample():
            self._check(pend, palette)

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


def hub_source(d, path, extra=()):
    """A hub of valency d with leaves 1..d, a path of `path` more
    vertices hung off leaf 1, and any extra edges."""
    walk = [1, *range(d + 1, d + 1 + path)]
    edges = [(0, leaf) for leaf in range(1, d + 1)] + list(zip(walk, walk[1:]))
    return Multigraph(range(d + 1 + path), edges + list(extra))


class TestPaddedClusters:
    def counted(self, monkeypatch):
        calls = []

        def counted(pend, palette):
            calls.append((tuple(pend), palette))
            return color_delta_minus_one(pend, palette)

        monkeypatch.setattr(complete_coloring, "color_delta_minus_one", counted)
        return calls

    def test_one_call_per_padded_vector_on_the_hub(self, monkeypatch):
        # 2,000 order-2 clusters at D = 41, all with one padded vector.
        calls = self.counted(monkeypatch)
        tr, coloring = color_complete_truncation(hub_source(41, 2000))
        assert len(calls) == 1
        assert first_clash(tr.graph, coloring) is None

    def test_shared_colorings_equal_per_cluster_ones(self, monkeypatch):
        # D = 7: order-2 clusters on the path, order-3 clusters at 2 and
        # 3, and an order-4 cluster at 4, seeing several padded vectors.
        x = hub_source(7, 12, [(2, 3), (2, 3), (4, 5), (4, 6), (4, 19)])
        calls = self.counted(monkeypatch)
        tr, coloring = color_complete_truncation(x)
        colors = coloring.assignment
        padded, vectors, relabeled = 0, set(), set()
        pad = {2: 0, 3: 1, 4: 0}  # zeros up to order P-1, P = 3, 5, 5
        for v, ends in tr.clusters.items():
            if len(ends) in (1, 7):
                continue
            padded += 1
            pend = tr.pendant_colors(v, colors)
            vectors.add(tuple(pend))
            relabeled.add(tuple(sorted(set(pend)).index(c) for c in pend) + (0,) * pad[len(pend)])
            got = dict(zip(tr.constituents[v], map(colors.__getitem__, constituent_edge_ids(tr, v))))
            assert got == small_palette_rule(pend, 7)
        # One call per relabeled padded vector, not per pendant vector.
        assert padded > len(vectors) > len(calls) == len(relabeled) > 1
        assert {palette for _, palette in calls} == {3, 5}

    @pytest.mark.parametrize("d", [101, 201])
    def test_two_hubs_color_order_two_clusters_in_palette_three(self, monkeypatch, d):
        # K_{2,d}: two order-d clusters and d order-2 clusters, each
        # seeing a pendant color twice, so all relabel to (0, 0).
        x = Multigraph(range(d + 2), [(h, m) for m in range(2, d + 2) for h in (0, 1)])
        calls = self.counted(monkeypatch)
        tr, coloring = color_complete_truncation(x)
        assert coloring.palette_size == d
        assert first_clash(tr.graph, coloring) is None
        assert calls == [((0, 0), 3)]


def small_palette_rule(pend, d):
    """The order s <= d-2 rule written out: color the present colors'
    ranks, padded with 0 to order P-1, in the least odd palette P > s,
    then read palette color k as the k-th of the present colors followed
    by the absent ones."""
    s = len(pend)
    palette = s + 1 if s % 2 == 0 else s + 2
    present = sorted(set(pend))
    order = present + [c for c in range(d) if c not in present]
    padded = [present.index(c) for c in pend] + [0] * (palette - 1 - s)
    full = by_pair(palette - 1, color_delta_minus_one(padded, palette))
    return {(i, j): order[full[i, j]] for i, j in combinations(range(s), 2)}


# sha256 of the small-cluster colorings of 12 seeded pendant vectors per
# odd D in 5..51 (see small_cluster_sample).
SMALL_CLUSTER_SHA256 = "f4fb62aeec30dccce9e9f2d3019c62f3666add609963b09a9396e7c0e3c4d506"


def small_cluster_sample():
    rng = random.Random(21)
    for d in range(5, 52, 2):
        for _ in range(12):
            s = rng.randint(2, d - 2)
            colors = rng.sample(range(d), rng.randint(1, s))
            yield tuple(rng.choice(colors) for _ in range(s)), d


class TestSmallClusters:
    def test_colorings_are_pinned(self):
        digest = hashlib.sha256()
        for pend, d in small_cluster_sample():
            out = by_pair(len(pend), complete_coloring._small_cluster_colors(pend, d, {}))
            assert out == small_palette_rule(pend, d)
            digest.update(repr(sorted(out.items())).encode())
        assert digest.hexdigest() == SMALL_CLUSTER_SHA256

    def test_one_memo_entry_serves_both_orders_of_a_padded_vector(self):
        # An order-4 cluster and a padded order-3 one pass the same
        # vector (0, 1, 0, 0) to the lemma: one entry, and each cluster
        # reads its own pairs from it.
        memo = {}
        for pend in ((0, 1, 0, 0), (0, 1, 0), (0, 1, 0, 0), (0, 1, 0)):
            out = by_pair(len(pend), complete_coloring._small_cluster_colors(pend, 7, memo))
            assert out == small_palette_rule(pend, 7)
        assert list(memo) == [(0, 1, 0, 0)]

    @given(st.integers(2, 50).map(lambda k: 2 * k + 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_pair_colored_below_d_without_clash(self, d, data):
        s = data.draw(st.integers(2, d - 2))
        pend = data.draw(st.lists(st.integers(0, d - 1), min_size=s, max_size=s))
        out = by_pair(s, complete_coloring._small_cluster_colors(pend, d, {}))
        assert sorted(out) == list(combinations(range(s), 2))
        assert all(0 <= c < d for c in out.values())
        assert cluster_clash(pend, list(out), list(out.values())) is None


class TestOrderDClusters:
    def test_closed_form_is_the_odd_chord_rule(self):
        # The order-D case reads class_of_pair(n, (a+1, b+1)) as
        # (a + b) * ((n + 1) // 2) % n for odd n.
        for n in range(3, 102, 2):
            half = (n + 1) // 2
            for a, b in combinations(range(n), 2):
                assert (a + b) * half % n == class_of_pair(n, (a + 1, b + 1))

    def test_order_d_clusters_follow_the_missing_color_alignment(self):
        x = Multigraph(range(9), [(h, m) for m in range(2, 9) for h in (0, 1)])
        tr, coloring = color_complete_truncation(x)
        for v in (0, 1):
            pend = tr.pendant_colors(v, coloring.assignment)
            got = map(coloring.color_of, constituent_edge_ids(tr, v))
            want = (class_of_pair(7, (pend[i] + 1, pend[j] + 1)) for i, j in tr.constituents[v])
            assert list(got) == list(want)


def capped_source(rng, d):
    """Two nonadjacent hubs of valency d on random partners, then random
    edges between vertices of capacity d-1 or less until few fit."""
    n = rng.randint(d + 3, 3 * d)
    caps = [d, d] + [d - 1] * (n // 2) + [rng.randint(1, d - 1) for _ in range(n - 2 - n // 2)]
    left, edges = caps[:], []
    for hub in (0, 1):
        for w in rng.sample(range(2, n), d):
            edges.append((hub, w))
            left[hub] -= 1
            left[w] -= 1
    for _ in range(4 * n * d):
        u, w = rng.sample(range(2, n), 2)
        if left[u] > 0 and left[w] > 0:
            edges.append((u, w))
            left[u] -= 1
            left[w] -= 1
    return Multigraph(sorted({v for e in edges for v in e}), edges)


def order_d_minus_one_sources():
    """Odd-D sources with order D-1 clusters: hubs with a second hub of
    valency D-1, K_{D-1,D}, K_{2,3} and seeded random multigraphs whose
    valency-D vertices are nonadjacent, so each has an edge-feasible
    coloring."""
    for d in range(3, 16, 2):
        second = [(d + 1, leaf) for leaf in range(2, d - 1)]
        yield hub_source(d, 6, second)
    for d in (3, 5, 7, 9, 11):
        yield complete_bipartite(d - 1, d)
    yield complete_bipartite(2, 3)
    rng = random.Random(25)
    for _ in range(24):
        yield capped_source(rng, rng.choice([3, 5, 7, 9, 11]))


# sha256 of repr((palette, sorted assignment)) of color_complete_truncation
# on each of order_d_minus_one_sources, in order; 234 of their clusters
# have order D-1.
ORDER_D_MINUS_ONE_SHA256 = "9e01f0041a8b37b618c1fb2f02e333798ad0a1715dbcdc452850e41ae3fefd2f"


class TestOrderDMinusOneClusters:
    def test_colorings_are_pinned(self):
        digest = hashlib.sha256()
        clusters = 0
        for x in order_d_minus_one_sources():
            tr, coloring = color_complete_truncation(x)
            delta = x.max_valency()
            if delta % 2:
                clusters += sum(len(ends) == delta - 1 for ends in tr.clusters.values())
            digest.update(repr((coloring.palette_size, sorted(coloring.assignment.items()))).encode())
        assert clusters == 234
        assert digest.hexdigest() == ORDER_D_MINUS_ONE_SHA256


class TestSubtruncationColoring:
    def test_cyclic_subtruncation_of_k4(self):
        g = k4()
        tr = cyclic_truncation(g)
        coloring = subtruncation_coloring(tr)
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)

    def test_colors_class_two_even_source_without_the_oracle(self, monkeypatch):
        # K5 is class II with maximum valency 4; a star in each cluster
        # keeps valency 4, and restriction needs no class test and no
        # search of any kind.
        def no_search(*args, **kwargs):
            raise AssertionError("subtruncation_coloring ran an exact search")

        assert not hasattr(complete_coloring, "classify")
        monkeypatch.setattr(complete_coloring, "solve_edge_coloring", no_search)
        g = k5()
        tr = Truncation(g, {v: [(0, 1), (0, 2), (0, 3)] for v in g.vertices})
        coloring = subtruncation_coloring(tr)
        assert coloring.palette_size == 4
        assert is_proper(tr.graph, coloring)

    def test_rejects_lowered_max_valency(self):
        g = k4()
        tr = Truncation(g, {v: [] for v in g.vertices})
        assert tr.graph.max_valency() == 1
        with pytest.raises(GraphError):
            subtruncation_coloring(tr)

    def test_rejects_class_two_source(self):
        g = petersen()
        tr = cyclic_truncation(g)
        refusal = color_complete_truncation(g)
        assert isinstance(refusal, Refusal) and refusal.nodes > 0
        # The message names the search nodes the refusal cost.
        with pytest.raises(GraphError) as exc:
            subtruncation_coloring(tr)
        assert str(exc.value) == f"{refusal.reason} ({refusal.nodes} search nodes)"


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


@pytest.mark.parametrize(
    "call, want",
    [
        (
            lambda: color_delta_minus_one([0, 1, 2], 4),
            "GraphError: this constituent case needs an odd palette >= 3, got 4",
        ),
    ],
    ids=["even-palette"],
)
def test_degenerate_inputs(call, want):
    assert outcome(call) == want
