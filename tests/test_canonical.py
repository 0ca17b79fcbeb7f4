import hashlib

import pytest

from truncolor.canonical import class_of_pair, complete_graph, scheme_class
from truncolor.coloring import is_proper
from truncolor.errors import GraphError

from conftest import canonical_coloring, missing_color, scheme_class_count


def scheme_vertex_names(n):
    """Hub 0 plus residues 1..n-1 for even n; residues 1..n for odd n."""
    return tuple(range(n % 2, n + n % 2))


def _anchor_base(n):
    # The cycle length, and the residue where anchor 0 starts.
    mod = n - 1 if n % 2 == 0 else n
    if mod < 3:
        raise GraphError(f"order {n} scheme has no anchor edges")
    return mod, (n + 1) // 2


def scheme_anchor(n, t):
    """The length-1 cycle edge [a, a+1] (residues in 1..mod) in class t."""
    mod, base = _anchor_base(n)
    a, b = (base + t - 1) % mod + 1, (base + t) % mod + 1
    return (min(a, b), max(a, b))


def class_by_anchor(n, edge):
    """Inverse of scheme_anchor; rejects pairs that are not cycle edges."""
    mod, base = _anchor_base(n)
    a, b = sorted(edge)
    if a < 1 or b > mod:
        raise GraphError(f"{edge} is not a cycle edge of the order-{n} scheme")
    if b == a + 1:
        lo = a
    elif (a, b) == (1, mod):
        lo = mod
    else:
        raise GraphError(f"{edge} is not a length-1 cycle edge of the order-{n} scheme")
    return (lo - base) % mod


class TestScheme:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_canonical_coloring_is_proper(self, n):
        g = complete_graph(n)
        col = canonical_coloring(n)
        assert is_proper(g, col)
        assert col.palette_size == (n - 1 if n % 2 == 0 else n)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
    def test_even_classes_are_perfect_matchings(self, n):
        g = complete_graph(n)
        col = canonical_coloring(n)
        for t in range(n - 1):
            eids = [e for e in g.edge_ids if col.color_of(e) == t]
            covered = sorted(v for e in eids for v in g.endpoints(e))
            assert covered == list(range(n))

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_odd_classes_are_near_perfect(self, n):
        g = complete_graph(n)
        col = canonical_coloring(n)
        for t in range(n):
            eids = [e for e in g.edge_ids if col.color_of(e) == t]
            assert len(eids) == (n - 1) // 2
            covered = [v for e in eids for v in g.endpoints(e)]
            assert len(set(covered)) == len(covered) == n - 1

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 9, 10, 12])
    def test_anchor_classes_partition_edges(self, n):
        seen = set()
        for t in range(scheme_class_count(n)):
            assert class_by_anchor(n, scheme_anchor(n, t)) == t
            for pair in scheme_class(n, t):
                assert pair not in seen
                seen.add(pair)
        names = scheme_vertex_names(n)
        assert len(seen) == len(names) * (len(names) - 1) // 2

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
    def test_class_of_pair_inverts_scheme_class(self, n):
        for t in range(scheme_class_count(n)):
            for pair in scheme_class(n, t):
                assert class_of_pair(n, pair) == t

    def test_every_class_up_to_order_64_is_pinned(self):
        # sha256 over repr(scheme_class(n, t)) for n = 2..64 and every t.
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 65):
            for t in range(scheme_class_count(n)):
                edges = scheme_class(n, t)
                digest.update(repr(edges).encode())
                for pair in edges:
                    assert class_of_pair(n, pair) == t
                count += 1
        assert count == 2047
        assert digest.hexdigest() == (
            "f47e4d81a4ea4e4d964e55288528ee67f3fc8ebdfb87768f737e393fce870961"
        )

    def test_class_index_out_of_range(self):
        for n, t in [(8, 7), (8, -1), (9, 9)]:
            with pytest.raises(GraphError, match=f"class index {t} out of range"):
                scheme_class(n, t)
        with pytest.raises(GraphError):
            scheme_class(1, 0)

    def test_anchor_rejects_non_cycle_edges(self):
        with pytest.raises(GraphError):
            class_by_anchor(8, (1, 4))


class TestMissingColor:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_missing_color_map_is_a_bijection(self, n):
        g = complete_graph(n)
        col = canonical_coloring(n)
        missing = [missing_color(g, col, v) for v in g.vertices]
        assert sorted(missing) == list(range(n))

    def test_even_complete_graph_misses_nothing(self):
        g = complete_graph(6)
        col = canonical_coloring(6)
        for v in g.vertices:
            assert sorted(col.color_of(e) for e in g.incident(v)) == list(range(5))
