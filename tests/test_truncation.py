import json
import re
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncolor.complete_coloring as complete_coloring
import truncolor.truncation as truncation_module

from truncolor.canonical import complete_graph
from truncolor.catalog import k4, k5, petersen, q3
from truncolor.coloring import EdgeColoring, _vizing_coloring, first_clash, is_proper
from truncolor.complete_coloring import color_complete_truncation, subtruncation_coloring
from truncolor.cyclic_coloring import cyclic_class_one, cyclic_even_valency
from truncolor.errors import GraphError
from truncolor.io import graph_to_obj, load_truncation, truncation_to_obj
from truncolor.multigraph import Multigraph
from truncolor.strong_arboreal import color_by_strong
from truncolor.sun import regular_truncation, semiregular_truncation
from truncolor.truncation import (
    Truncation,
    arboreal_truncation,
    complete_truncation,
    contract,
    cyclic_truncation,
    excise,
)

from conftest import constituent_edge_ids, random_multigraph


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

    def test_end_valencies_match_the_flat_graph(self, rng):
        for _ in range(20):
            x = random_multigraph(rng)
            for tr in (complete_truncation(x), arboreal_truncation(x)):
                flat = tr.graph
                for v, ends in tr.clusters.items():
                    assert tr.end_valencies(v) == [flat.valency(end) for end in ends]
                assert tr.max_valency() == flat.max_valency()
        with pytest.raises(GraphError, match="empty"):
            Truncation(Multigraph([], []), {}).max_valency()

    def test_cyclic_truncation_is_cubic(self, rng):
        for _ in range(20):
            x = random_multigraph(rng, min_edges=4)
            if any(x.valency(v) < 3 for v in x.vertices):
                with pytest.raises(GraphError):
                    cyclic_truncation(x, None)
                continue
            tr = cyclic_truncation(x, None)
            assert tr.graph.regular_valency() == 3

    def test_cyclic_pairs_skip_normalization(self, monkeypatch, rng):
        # Ascending pairs pass Truncation's whole-list check, so the
        # per-pair walk runs for no cluster, default order or not.
        calls = []
        normalize = truncation_module._normalize

        def counted(*args):
            calls.append(args[0])
            return normalize(*args)

        monkeypatch.setattr(truncation_module, "_normalize", counted)
        for x in (k4(), q3(), petersen()):
            cyclic_truncation(x)
            orders = {v: rng.sample(range(x.valency(v)), x.valency(v)) for v in x.vertices}
            cyclic_truncation(x, orders)
        assert calls == []

    def test_matching_and_constituent_ids_split_the_flat_edges(self):
        tr = complete_truncation(k4())
        flat = tr.graph
        constituent = [eid for v in tr.source.vertices for eid in constituent_edge_ids(tr, v)]
        assert tr.matching_ids == tuple(sorted(tr.source.edges))
        assert set(tr.matching_ids).isdisjoint(constituent)
        assert sorted(tr.matching_ids + tuple(constituent)) == sorted(flat.edge_ids)

    def test_id_split_with_non_contiguous_source_ids(self):
        # Source ids 0, 2, 5: constituent ids run on from 6, and no other
        # id is an edge of the truncation.
        x = Multigraph(range(3), {0: (0, 1), 2: (1, 2), 5: (0, 2)})
        tr = complete_truncation(x)
        assert tr.matching_ids == (0, 2, 5)
        assert [constituent_edge_ids(tr, v) for v in x.vertices] == [(6,), (7,), (8,)]
        assert set(tr.graph.edge_ids) == {0, 2, 5, 6, 7, 8}
        coloring = color_complete_truncation(x)[1]
        assert coloring.assignment.keys() == tr.graph.edges.keys()
        for eid in (-1, 1, 3, 4, 9):
            assert eid not in tr.graph.edges
            assert eid not in coloring.assignment


def checked_flat(tr):
    """The flat graph built the checked way, through Multigraph.__init__."""
    edges = dict(tr.matching)
    for v, ends in tr.clusters.items():
        pairs = [(ends[i], ends[j]) for i, j in tr.constituents[v]]
        edges.update(zip(constituent_edge_ids(tr, v), pairs))
    return Multigraph(chain.from_iterable(tr.matching.values()), edges)


def assert_flat_as_checked(tr):
    flat, want = tr.graph, checked_flat(tr)
    assert flat.vertices == want.vertices
    assert list(flat.edges.items()) == list(want.edges.items())
    for v in want.vertices:
        assert flat.incident(v) == want.incident(v)
    assert flat.max_valency() == want.max_valency()
    with pytest.raises(GraphError, match="no vertex"):
        flat.incident(max(want.vertices) + 1)


@st.composite
def shared_constituent_truncations(draw):
    """A source with parallel edges and clusters of several sizes, where
    some clusters are left out or given empty lists (the empty tuple is
    one object at every size), some share one pair list whatever their
    size, and the rest get their own pairs."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, min_size=1, max_size=10))
    x = Multigraph(sorted({v for e in edges for v in e}), edges)
    shared = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(2, 3)), max_size=2, unique=True))
    constituents = {}
    for v in x.vertices:
        size = x.valency(v)
        every = list(combinations(range(size), 2))
        choice = draw(st.sampled_from(["omit", "empty", "shared", "own"]))
        if choice == "empty":
            constituents[v] = []
        elif choice == "shared" and all(j < size for _, j in shared):
            constituents[v] = shared
        elif choice == "own" and every:
            constituents[v] = draw(st.lists(st.sampled_from(every), unique=True))
    return Truncation(x, constituents)


class TestTrustedFlattening:
    """Truncation.graph skips Multigraph.__init__'s checks; it must build
    the same vertices, edge map (order included) and incidence."""

    def test_routes_truncations(self, rng):
        for _ in range(30):
            x = random_multigraph(rng, max_vertices=7, max_edges=14)
            assert_flat_as_checked(complete_truncation(x))
            assert_flat_as_checked(arboreal_truncation(x))
            if all(x.valency(v) >= 3 for v in x.vertices):
                assert_flat_as_checked(cyclic_truncation(x))
        for x in (k4(), k5(), q3(), petersen()):
            orders = {v: rng.sample(range(x.valency(v)), x.valency(v)) for v in x.vertices}
            for tr in (complete_truncation(x), cyclic_truncation(x, orders), arboreal_truncation(x)):
                assert_flat_as_checked(tr)

    @given(shared_constituent_truncations())
    @settings(max_examples=150, deadline=None)
    def test_custom_and_shared_constituents(self, tr):
        assert_flat_as_checked(tr)

    def test_empty_constituents_on_clusters_of_different_sizes(self):
        # Valencies 1, 3, 2, 2: every cluster left empty gets the one
        # empty tuple, the smallest cluster first.
        g = Multigraph(range(4), [(0, 1), (1, 2), (1, 3), (2, 3)])
        for tr in (Truncation(g, {}), Truncation(g, {0: [], 2: [(0, 1)]})):
            assert_flat_as_checked(tr)

    def test_non_contiguous_source_edge_ids(self, rng):
        # Source ids with gaps: constituent ids run on past the largest.
        x = k5().without_edges([1, 9])
        assert set(x.edge_ids) == {0, 2, 3, 4, 5, 6, 7, 8}
        orders = {v: rng.sample(range(x.valency(v)), x.valency(v)) for v in x.vertices}
        for tr in (
            complete_truncation(x),
            cyclic_truncation(x, orders),
            arboreal_truncation(x),
            Truncation(x, {0: [(0, 2)], 2: [(0, 2)], 4: [(1, 2)]}),
        ):
            assert_flat_as_checked(tr)

    @given(shared_constituent_truncations())
    @settings(max_examples=150, deadline=None)
    def test_flat_edges_are_the_flat_graphs_edges(self, tr):
        # Custom, omitted and empty constituents; one pair list shared
        # across clusters or each cluster its own.
        assert list(tr.flat_edges()) == list(tr.graph.edges.values())
        assert list(tr.flat_ends()) == list(chain.from_iterable(tr.graph.edges.values()))

    def test_flat_edges_of_route_truncations(self, rng):
        # Complete truncations share one tuple per cluster size, cyclic
        # ones give each cluster its own; gaps in the source ids too.
        for x in (k4(), k5(), q3(), petersen(), k5().without_edges([1, 9])):
            orders = {v: rng.sample(range(x.valency(v)), x.valency(v)) for v in x.vertices}
            for tr in (complete_truncation(x), cyclic_truncation(x, orders), arboreal_truncation(x)):
                assert list(tr.flat_edges()) == list(tr.graph.edges.values())

    def test_flattens_once_without_the_checked_constructor(self, monkeypatch):
        tr = complete_truncation(k5())
        built = []
        init = Multigraph.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Multigraph, "__init__", counted)
        assert tr.graph is tr.graph
        assert built == []


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
        # An exact repeat of an ascending pair is caught too.
        with pytest.raises(GraphError, match=r"repeats edge \(0, 2\)"):
            Truncation(k4(), {0: [(0, 2), (1, 2), (0, 2)]})

    def test_shared_pairs_are_checked_once_per_size(self):
        # Valencies: vertex 0 has 3, vertices 1 and 2 have 2, vertex 3 has 1.
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        shared = [(1, 0)]
        tr = Truncation(g, {0: shared, 1: shared, 2: shared})
        assert tr.constituents[0] == tr.constituents[1] == ((0, 1),)
        assert tr.constituents[1] is tr.constituents[2]
        assert tr.constituents[0] is not tr.constituents[1]
        assert tr.constituents[3] == ()

    def test_shared_pairs_are_checked_at_each_size(self):
        # (0, 2) fits vertex 0's three positions but not vertex 1's two.
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        shared = [(0, 2)]
        with pytest.raises(GraphError, match="constituent at vertex 1 uses position outside 0..1"):
            Truncation(g, {0: shared, 1: shared})

    def test_distinct_pair_lists_are_checked_on_their_own(self):
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        with pytest.raises(GraphError, match="constituent at vertex 2 has a loop at position 1"):
            Truncation(g, {1: [(0, 1)], 2: [(1, 1)]})
        # One bad object shared by clusters of one size is reported at
        # the first of them, as a walk over every cluster would.
        bad = [(1, 1)]
        with pytest.raises(GraphError, match="constituent at vertex 1 has a loop at position 1"):
            Truncation(g, {1: bad, 2: bad})

    def test_equal_pairs_share_one_tuple(self, tmp_path):
        # Separate but equal pair lists on clusters of one size, in any
        # order or orientation, share one checked tuple.
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        tr = Truncation(g, {0: [(0, 1), (1, 2)], 1: [(1, 2), (0, 1)], 2: [[2, 1], (0, 1)]})
        assert tr.constituents[0] == ((0, 1), (1, 2))
        assert tr.constituents[0] is tr.constituents[1] is tr.constituents[2]
        # A loaded file gives every cluster its own lists.
        path = tmp_path / "tr.json"
        path.write_text(json.dumps({
            "source": graph_to_obj(g),
            "constituents": {str(v): [[0, 2], [1, 2]] for v in g.vertices},
        }))
        loaded = load_truncation(str(path))
        assert len(set(map(id, loaded.constituents.values()))) == 1
        # On K5's clusters of four, cycle orders that trace one cycle,
        # from any start in either direction, share its tuple.
        orders = {0: [0, 1, 2, 3], 1: [2, 1, 0, 3], 2: [1, 3, 2, 0], 3: [3, 0, 1, 2], 4: [0, 2, 3, 1]}
        tr = cyclic_truncation(k5(), orders)
        assert tr.constituents[0] is tr.constituents[1] is tr.constituents[3]
        assert tr.constituents[2] is tr.constituents[4]
        assert tr.constituents[0] != tr.constituents[2]
        # Each distinct tuple's first vertex, for passes run once per tuple.
        assert tr.representatives() == {id(tr.constituents[0]): 0, id(tr.constituents[2]): 2}

    def test_equal_pairs_on_clusters_of_different_sizes_are_distinct_tuples(self):
        # Valencies: vertex 0 has 3, vertices 1 and 2 have 2.
        g = Multigraph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])
        tr = Truncation(g, {0: [(0, 1)], 1: [(0, 1)], 2: [(0, 1)]})
        assert tr.constituents[0] == tr.constituents[1] == ((0, 1),)
        assert tr.constituents[0] is not tr.constituents[1]
        assert tr.constituents[1] is tr.constituents[2]

    @pytest.mark.parametrize("bad", [(0, True), (False, 1), (True, 0), (0, 1.0), (0.0, 1)])
    def test_bool_pairs_are_named_after_an_equal_int_pair(self, bad):
        # (0, True) equals and hashes as (0, 1), as (0, 1.0) does, but is
        # no pair of plain ints: vertex 1 is named as if its constituent
        # were alone.
        g = Multigraph(range(2), [(0, 1), (0, 1)])
        with pytest.raises(GraphError) as alone:
            Truncation(g, {1: [bad]})
        with pytest.raises(GraphError) as after:
            Truncation(g, {0: [(0, 1)], 1: [bad]})
        assert str(after.value) == str(alone.value)
        assert str(alone.value) == "constituent at vertex 1: pair 0 is not a pair of integers"

    def test_each_distinct_value_is_checked_once(self, monkeypatch, tmp_path):
        # Separate but equal pair lists take one whole check per value
        # and cluster size; the others pass a plain-type pass only.
        checked = []
        check = truncation_module._ascending_and_simple

        def counted(pairs, size):
            checked.append(size)
            return check(pairs, size)

        monkeypatch.setattr(truncation_module, "_ascending_and_simple", counted)
        orders = {0: [0, 1, 2, 3], 1: [2, 1, 0, 3], 2: [1, 3, 2, 0], 3: [3, 0, 1, 2], 4: [0, 2, 3, 1]}
        tr = cyclic_truncation(k5(), orders)
        assert checked == [4, 4] and len(set(map(id, tr.constituents.values()))) == 2
        # arboreal_truncation's default paths, and the file that spells
        # them out, one list per cluster: one check each.
        checked.clear()
        tr = arboreal_truncation(complete_graph(6))
        path = tmp_path / "tr.json"
        path.write_text(json.dumps(truncation_to_obj(tr)))
        assert checked == [5]
        tr = load_truncation(str(path))
        assert checked == [5, 5] and len(set(map(id, tr.constituents.values()))) == 1

    def test_a_value_that_fails_the_check_is_not_kept(self):
        # (1, 0) fails the whole-list check at vertex 0 and is normalized;
        # the equal list at vertex 1 is checked and normalized again, not
        # taken as checked.
        tr = Truncation(k4(), {0: [(1, 0)], 1: [(1, 0)], 2: [(0, 1)]})
        assert tr.constituents[0] == ((0, 1),)
        assert tr.constituents[0] is tr.constituents[1] is tr.constituents[2]

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="unknown"):
            Truncation(k4(), {9: []})

    def test_arboreal_rejects_cycles(self):
        with pytest.raises(GraphError, match="cycle|forest"):
            arboreal_truncation(k4(), {v: [(0, 1), (1, 2), (0, 2)] for v in range(4)})

    def test_arboreal_rejects_out_of_range_position(self):
        with pytest.raises(GraphError, match="outside"):
            arboreal_truncation(k4(), {0: [(0, 3)]})

    def test_arboreal_rejects_unknown_vertex(self):
        with pytest.raises(GraphError, match="^constituent given for unknown vertex 99$"):
            arboreal_truncation(k4(), {99: [(0, 1)]})

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([(1, 1)], "has a loop at position 1"),
            ([(0, 1), (1, 0)], r"repeats edge \(0, 1\)"),
            ([(0, 1.0)], ": pair 0 is not a pair of integers"),
        ],
    )
    def test_arboreal_names_loops_repeats_and_non_int_pairs(self, pairs, message):
        with pytest.raises(GraphError, match="constituent at vertex 0 ?" + message):
            arboreal_truncation(k4(), {0: pairs})

    def test_cyclic_rejects_low_valency(self):
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError):
            cyclic_truncation(g, None)

    def test_cyclic_names_an_isolated_vertex_by_its_valency(self):
        # K4 plus isolated vertex 4: the valency rule, not excision, rejects it.
        g = Multigraph(range(5), k4().edges)
        with pytest.raises(
            GraphError, match="^vertex 4 has valency 0; cyclic truncation needs valency >= 3$"
        ):
            cyclic_truncation(g)

    def test_cyclic_rejects_bad_order(self):
        with pytest.raises(GraphError):
            cyclic_truncation(k4(), {0: [0, 1, 1]})

    def test_cyclic_rejects_unknown_vertex(self):
        with pytest.raises(GraphError, match="^constituent given for unknown vertex 99$"):
            cyclic_truncation(k4(), {99: [0, 1, 2]})


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
            return [1, 2, 3]

        out = tr.color(dict.fromkeys(tr.matching, 0), pair_color, 4)
        assert sorted(calls) == sorted(k4().vertices)
        assert out.palette_size == 4
        assert is_proper(tr.graph, out)
        for eid in tr.matching:
            assert out.color_of(eid) == 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_color_list_of_another_length_names_its_cluster(self, count):
        # Every cluster of K4's cyclic truncation has three constituent
        # edges; vertex 2's list is one short or one long.
        tr = cyclic_truncation(k4(), None)

        def pair_color(v):
            return list(range(1, count + 1)) if v == 2 else [1, 2, 3]

        message = f"^cluster 2 has 3 edges, {count} colors$"
        with pytest.raises(GraphError, match=message):
            tr.color(dict.fromkeys(tr.matching, 0), pair_color, 5)

    def test_clash_names_a_huge_color(self):
        # Edge 0's matching color meets constituent edge 2 at end 0.
        huge = 10**12
        tr = Truncation(Multigraph(range(2), [(0, 1), (0, 1)]), {0: [(0, 1)]})
        message = (
            f"^truncation coloring is not proper: edges 0 and 2 share color {huge} at vertex 0$"
        )
        with pytest.raises(AssertionError, match=message):
            tr.color({0: huge, 1: huge + 1}, lambda v: [huge], huge + 2)
        out = tr.color({0: huge, 1: huge + 1}, lambda v: [huge + 2], huge + 3)
        assert out.assignment == {0: huge, 1: huge + 1, 2: huge + 2}

    def test_clashing_cluster_map_raises(self):
        # The error names the clash: vertex, both edges and their color.
        tr = cyclic_truncation(k4(), None)
        with pytest.raises(AssertionError) as exc:
            tr.color(dict.fromkeys(tr.matching, 0), lambda v: [1] * len(tr.constituents[v]), 3)
        found = re.fullmatch(
            r"truncation coloring is not proper: edges (\d+) and (\d+) share color 1 at vertex (\d+)",
            str(exc.value),
        )
        assert found is not None
        e1, e2, v = map(int, found.groups())
        assert e1 != e2
        assert v in tr.graph.endpoints(e1) and v in tr.graph.endpoints(e2)


    def test_repeated_cluster_with_other_pendant_colors_is_checked(self):
        # On the 4-cycle every cluster has two ends and shares the one
        # pair (0, 1), colored 2 everywhere.  Clusters 0 and 1 see
        # pendant colors (0, 1) and pass; cluster 2 has the same shape
        # and pair colors but pendant colors (1, 2), so its end 4 (edge
        # 2 at vertex 2) clashes, as does cluster 3 after it.  A check
        # keyed without the pendant colors would pass both.
        tr = complete_truncation(Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert tr.clusters[2] == (3, 4)
        matching = {0: 0, 1: 1, 2: 2, 3: 1}
        with pytest.raises(AssertionError) as exc:
            tr.color(matching, lambda v: [2], 3)
        e1, e2, color, end = map(int, CLASH.fullmatch(str(exc.value)).groups())
        assert (e1, e2, color, end) == (2, constituent_edge_ids(tr, 2)[0], 2, 4)

    def test_checks_each_distinct_cluster_once(self, monkeypatch):
        calls = []
        check = truncation_module.cluster_clash

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(truncation_module, "cluster_clash", counted)
        # K9 (D = 8): every cluster has the same shape, pendant colors
        # and pair colors.
        tr, coloring = color_complete_truncation(complete_graph(9))
        assert len(calls) == 1 and first_clash(tr.graph, coloring) is None
        # The cyclic truncation of K5 in the default orders: every
        # cluster has the same 4-cycle, alternately colored from the
        # same end, so one check covers all five.
        calls.clear()
        tr, coloring = cyclic_even_valency(k5())
        assert len(calls) == 1 and first_clash(tr.graph, coloring) is None
        # Three distinct 4-cycles, and vertex 3's rotation of vertex 0's
        # cycle colors it the other way round: one check per distinct
        # (constituent, pendant colors, pair colors), vertex 4 sharing
        # vertex 0's.
        calls.clear()
        orders = {0: [0, 1, 2, 3], 1: [0, 1, 3, 2], 2: [0, 2, 1, 3], 3: [1, 2, 3, 0], 4: [0, 1, 2, 3]}
        tr, coloring = cyclic_even_valency(k5(), orders)
        color_of = coloring.assignment.__getitem__
        keys = {
            (
                tr.constituents[v],
                tuple(tr.pendant_colors(v, coloring.assignment)),
                tuple(map(color_of, constituent_edge_ids(tr, v))),
            )
            for v in tr.clusters
        }
        assert len(calls) == len(keys) == 4 and first_clash(tr.graph, coloring) is None


CLASH = re.compile(
    r"truncation coloring is not proper: edges (\d+) and (\d+) share color (\d+) at vertex (\d+)"
)


@st.composite
def small_truncations(draw):
    """A source on up to five vertices with up to seven edges, parallel
    ones allowed, and any simple constituent on each cluster."""
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, min_size=1, max_size=7))
    x = Multigraph(sorted({v for e in edges for v in e}), edges)
    constituents = {}
    for v in x.vertices:
        every = list(combinations(range(x.valency(v)), 2))
        constituents[v] = draw(st.lists(st.sampled_from(every), unique=True)) if every else []
    return Truncation(x, constituents)


class TestClusterCheck:
    @given(small_truncations())
    @settings(max_examples=80, deadline=None)
    def test_accepts_exactly_what_first_clash_accepts(self, tr):
        self.check_every_recoloring(tr)

    @pytest.mark.parametrize("kind", ["complete", "arboreal"])
    def test_source_ids_with_gaps(self, kind):
        # Matching ids 0 and 2..8, constituent ids from 9 on: Truncation.color
        # lists the colors by flat id with a gap at 1.
        x = k5().without_edges([1, 9])
        tr = complete_truncation(x) if kind == "complete" else arboreal_truncation(x)
        self.check_every_recoloring(tr)

    @staticmethod
    def check_every_recoloring(tr):
        # Recolor each edge of a proper Vizing coloring in every palette
        # color: the cluster checks behind Truncation.color must accept
        # exactly the recolorings with no clash on the flat graph, and
        # name a real clash otherwise.
        flat = tr.graph
        base = _vizing_coloring(flat)
        palette = flat.max_valency() + 1
        for eid in flat.edge_ids:
            for c in range(palette):
                recolored = EdgeColoring({**base, eid: c}, palette)
                colors = recolored.assignment

                def pair_color(v):
                    return list(map(colors.__getitem__, constituent_edge_ids(tr, v)))

                if first_clash(flat, recolored) is None:
                    assert tr.color(colors, pair_color, palette) == recolored
                    continue
                with pytest.raises(AssertionError) as exc:
                    tr.color(colors, pair_color, palette)
                e1, e2, color, end = map(int, CLASH.fullmatch(str(exc.value)).groups())
                assert e1 != e2 and colors[e1] == colors[e2] == color
                assert end in flat.endpoints(e1) and end in flat.endpoints(e2)

    @given(small_truncations(), st.sampled_from(["any", "matching", "several"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_verify_accepts_exactly_what_first_clash_accepts(self, tr, corruption, data):
        # The check verify runs on a flat colors list: any coloring in
        # the palette, or a proper one with some matching edges or some
        # edges of any kind recolored.
        flat = tr.graph
        palette = flat.max_valency() + 1
        color = st.integers(0, palette - 1)
        if corruption == "any":
            colors = data.draw(st.lists(color, min_size=flat.size, max_size=flat.size))
        else:
            base = _vizing_coloring(flat)
            colors = [base[eid] for eid in flat.edge_ids]
            ids = sorted(tr.matching) if corruption == "matching" else flat.edge_ids
            for eid in data.draw(st.lists(st.sampled_from(ids), max_size=4)):
                colors[eid] = data.draw(color)
        clash = tr.first_cluster_clash(colors, palette)
        assert (clash is None) == (first_clash(flat, colors) is None)
        if clash is not None:
            end, e1, e2, c = clash
            assert e1 != e2 and colors[e1] == colors[e2] == c
            assert end in flat.endpoints(e1) and end in flat.endpoints(e2)

    def test_equal_clusters_differ_by_their_pendant_colors(self):
        # The triangle's clusters share one constituent, colored 2 in
        # each; only the pendant colors tell them apart.  Vertex 0's
        # cluster has none of color 2, vertex 1's has it at end 2.
        triangle = Multigraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        tr = Truncation(triangle, {v: [(0, 1)] for v in range(3)})
        colors = [0, 2, 0, 2, 2, 2]
        assert first_clash(tr.graph, colors) == (2, 1, 4)
        assert tr.first_cluster_clash(colors, 3) == (2, 1, 4, 2)


@pytest.fixture
def no_flat(monkeypatch):
    """Make flattening a truncation fail the test, and so a graph built
    inside complete_coloring that is larger than the source it searches
    (the core it may build is a subgraph of that source)."""

    def refuse(*args, **kwargs):
        raise AssertionError("a constructive route built a flat graph")

    sources = []
    search = complete_coloring._feasible_search

    def noting(x, budget):
        sources.append(x)
        return search(x, budget)

    def bounded(vertices, edges):
        g = Multigraph(vertices, edges)
        if not sources or g.order > sources[-1].order or g.size > sources[-1].size:
            refuse()
        return g

    monkeypatch.setattr(Truncation, "graph", property(refuse))
    monkeypatch.setattr(complete_coloring, "_feasible_search", noting)
    monkeypatch.setattr(complete_coloring, "Multigraph", bounded)


class TestRoutesWithoutTheFlatGraph:
    def odd_padded_source(self):
        # D = 7: vertex 1's cluster has order 7, vertex 0's order 5 and
        # vertex 2's order 2, both padded to 6 positions.
        return Multigraph([0, 1, 2], [(0, 1)] * 5 + [(1, 2)] * 2)

    def test_routes_build_and_check_without_flattening(self, no_flat, monkeypatch):
        built = [
            color_complete_truncation(k5()),
            color_complete_truncation(self.odd_padded_source()),
            cyclic_even_valency(k5()),
            semiregular_truncation(
                Multigraph(range(3), [(0, 1), (1, 2), (2, 0)] * 2),
                EdgeColoring({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}, 2),
            ),
            regular_truncation(k5(), 4),
            regular_truncation(k4(), 3),
            cyclic_class_one(q3()),
        ]
        # Routes that color a given truncation; color_by_strong searches
        # K5's 4-cycle constituents cluster by cluster.
        padded = self.odd_padded_source()
        for tr, color in [
            (arboreal_truncation(k4()), color_by_strong),
            (cyclic_truncation(k5()), color_by_strong),
            (cyclic_truncation(k4()), subtruncation_coloring),
            (
                Truncation(padded, {1: list(combinations(range(7), 2))}),
                subtruncation_coloring,
            ),
        ]:
            built.append((tr, color(tr)))
        monkeypatch.undo()
        for tr, coloring in built:
            assert is_proper(tr.graph, coloring)
