import hashlib
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations, groupby, permutations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import truncolor.sun as sun_module
from truncolor.catalog import k4, petersen, prism3
from truncolor.coloring import EdgeColoring, is_proper, solve_edge_coloring
from truncolor.errors import GraphError, Refusal, UndecidedError
from truncolor.multigraph import Multigraph
from truncolor.sun import (
    SunColoring,
    admissible,
    build_sun_even,
    build_sun_odd,
    build_sun_valency,
    is_parity_balanced,
    pendant_layout,
    regular_constituents,
    regular_truncation,
    semiregular_truncation,
    verify_totally_inadmissible,
)
from truncolor.truncation import contract

from conftest import cycle_graph, disjoint_union, outcome, prism_graph


def all_vectors(r, d):
    """Every length-d tuple of nonnegative integers summing to r."""
    if d == 1:
        yield (r,)
        return
    for head in range(r + 1):
        for tail in all_vectors(r - head, d - 1):
            yield (head,) + tail


def pendant_counts(sun):
    counts = [0] * sun.palette_size
    for c in sun.pendant_colors:
        counts[c] += 1
    return tuple(counts)


def constituent_color_counts(sun):
    counts = [0] * sun.palette_size
    for c in sun.constituent_colors:
        counts[c] += 1
    return tuple(counts)


def build(vector):
    r = sum(vector)
    return build_sun_odd(vector) if r % 2 == 1 else build_sun_even(vector)


# sha256 over repr(sun) of each build, in the order of the sweeps below;
# pinned so that a rewrite of the builders must reproduce every sun.
ODD_SUNS_SHA256 = "0a25ad5da7ff755463b0be48990137825b7c9d7ab0500e9caf86cce90841c843"
EVEN_SUNS_SHA256 = "eb089fa74a1e566dbe45014d3ae8fa2cd4b6688e9ff5d4f8b8d0fb8afd22ca89"
VALENCY_SUNS_SHA256 = "cbdd36f7b54790e4d4786623c75a9aa26ffc3849e6e5af25a1ababed393f80b2"


class TestAdmissibility:
    def test_parity_rule(self):
        assert admissible((1, 1, 1))
        assert admissible((2, 2, 0))
        assert admissible((4, 0, 0, 0))
        assert admissible((1, 1, 1, 1, 1))
        assert not admissible((2, 1, 1))
        assert not admissible((1, 1))  # odd entries with an even color count
        assert not admissible((3, 1))
        assert admissible((2, 2))
        # All entries odd, an even color count: the odd build refuses.
        for vector in [(1, 1), (3, 1), (1, 1, 1, 1), (5, 3, 1, 1)]:
            assert not admissible(vector)
            with pytest.raises(GraphError, match=re.escape(f"vector {vector} is not admissible")):
                build_sun_odd(vector)

    def test_domain_errors(self):
        with pytest.raises(GraphError):
            admissible((1, 0))  # fewer ends than colors
        with pytest.raises(GraphError):
            admissible((0, 0))
        with pytest.raises(GraphError):
            admissible((2, -1, 1))
        # bool is an int subclass, but not a count.
        with pytest.raises(GraphError, match="nonnegative integers, got False"):
            build_sun_even((2, False))
        with pytest.raises(GraphError, match="nonnegative integers, got True"):
            build_sun_odd((True, True, True))


class TestBuiltSuns:
    def test_every_admissible_vector_up_to_ten_builds(self):
        # Odd r only: TestEvenLayout builds every even-r vector up to
        # ten, and an admissible vector with even r is all even.
        checked = 0
        digest = hashlib.sha256()
        for r in range(1, 11, 2):
            for d in range(1, r + 1):
                for vector in all_vectors(r, d):
                    if not admissible(vector):
                        continue
                    sun = build(vector)
                    sun.validate(regular=d - 1)
                    assert pendant_counts(sun) == vector
                    digest.update(repr(sun).encode())
                    checked += 1
        assert checked == 55
        assert digest.hexdigest() == ODD_SUNS_SHA256

    def test_counting_identity_per_color(self):
        # Pendants of color i fill what the constituent leaves uncovered:
        # r minus two ends per constituent edge of that color.
        for vector in [(1, 1, 1), (2, 2, 0), (3, 3, 1, 1, 1), (2, 2, 2, 2), (5, 1, 1, 1, 1)]:
            sun = build(vector)
            r = sum(vector)
            cc = constituent_color_counts(sun)
            for i, x in enumerate(vector):
                assert x == r - 2 * cc[i]

    def test_zero_color_classes_still_cover_constituent(self):
        sun = build_sun_even((2, 2, 2, 0, 0, 0))
        sun.validate(regular=5)
        assert pendant_counts(sun) == (2, 2, 2, 0, 0, 0)


def even_vectors(r):
    """Every all-even vector with total r and any number of entries."""
    for d in range(1, r + 1):
        for vector in all_vectors(r, d):
            if all(x % 2 == 0 for x in vector):
                yield vector


@pytest.fixture
def no_search(monkeypatch):
    """Make any exact search inside the sun module fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("an even sun build ran an exact search")

    monkeypatch.setattr(sun_module, "solve_edge_coloring", refuse)


@pytest.fixture
def no_graph(monkeypatch):
    """Make any graph built inside the sun module fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sun build or validate built a Multigraph")

    monkeypatch.setattr(sun_module, "Multigraph", refuse)


@pytest.fixture
def clear_even_caches():
    """Empty the even-sun cache, so earlier builds cannot warm it, and
    hand over the function that does it for later clears."""
    clear = sun_module._even_positions.cache_clear
    clear()
    return clear


@pytest.fixture
def counted_checks(monkeypatch):
    """Record each structure check's target valency and each color
    check's vector, in call order."""
    structure, colors = [], []
    check_structure, check_colors = sun_module._check_constituent, SunColoring._check_colors

    def counted_structure(edges, r, regular):
        structure.append(regular)
        return check_structure(edges, r, regular)

    def counted_colors(self):
        colors.append(self.vector)
        return check_colors(self)

    monkeypatch.setattr(sun_module, "_check_constituent", counted_structure)
    monkeypatch.setattr(SunColoring, "_check_colors", counted_colors)
    return structure, colors


class TestEvenLayout:
    def test_every_even_vector_up_to_ten_builds_without_search(self, no_search):
        checked = 0
        digest = hashlib.sha256()
        for r in range(2, 11, 2):
            for vector in even_vectors(r):
                sun = build_sun_even(vector)
                sun.validate(regular=len(vector) - 1)
                assert pendant_counts(sun) == vector
                digest.update(repr(sun).encode())
                checked += 1
        assert checked == 5946
        assert digest.hexdigest() == EVEN_SUNS_SHA256

    def test_every_valency_target_up_to_eight(self, no_search):
        checked = 0
        digest = hashlib.sha256()
        for r in range(2, 9, 2):
            for vector in even_vectors(r):
                for k in range(sum(1 for x in vector if x) - 1, r):
                    sun = build_sun_valency(vector, k)
                    sun.validate(regular=k)
                    assert pendant_counts(sun)[: len(vector)] == vector
                    digest.update(repr(sun).encode())
                    checked += 1
        assert checked == 5642
        assert digest.hexdigest() == VALENCY_SUNS_SHA256

    def test_every_even_vector_up_to_eight_builds_without_a_graph(self, no_graph):
        for r in range(2, 9, 2):
            for vector in even_vectors(r):
                build_sun_even(vector).validate(regular=len(vector) - 1)

    @pytest.mark.parametrize(
        "vector",
        # Equal entries weave blocks (four 2s take the fixed layout); two
        # blocks share one class; the last three ran unbounded before the
        # closed form.
        [(2, 2, 2, 2), (2,) * 6, (4, 4, 4, 4)]
        + [(2, r - 2) for r in (4, 6, 8, 12, 14)]
        + [(2, 60), (4,) * 20, (2,) * 22],
    )
    def test_pinned_layouts(self, vector, no_search):
        sun = build_sun_even(vector)
        sun.validate(regular=len(vector) - 1)
        assert pendant_counts(sun) == vector

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_even_vectors(self, data):
        # r = 2 * half ends cut into d even entries, zeros allowed.
        half = data.draw(st.integers(1, 30), label="r/2")
        d = data.draw(st.integers(1, 2 * half), label="d")
        cuts = sorted(data.draw(st.lists(st.integers(0, half), min_size=d - 1, max_size=d - 1)))
        vector = tuple(2 * (b - a) for a, b in zip([0] + cuts, cuts + [half]))
        sun = build_sun_even(vector)
        sun.validate(regular=len(vector) - 1)
        assert pendant_counts(sun) == vector

    def test_free_classes_are_built_only_when_taken(self, monkeypatch, clear_even_caches):
        calls = []
        real = sun_module.scheme_class

        def counted(n, t):
            calls.append(t)
            return real(n, t)

        monkeypatch.setattr(sun_module, "scheme_class", counted)
        # A 0-regular constituent needs only the color's own class.
        build_sun_even((1000,)).validate(regular=0)
        assert len(calls) == 1
        calls.clear()
        build_sun_valency((1000,), 3).validate(regular=3)
        assert len(calls) == 4
        calls.clear()
        build_sun_even((4, 4, 0, 0)).validate(regular=3)
        assert len(calls) == 4

    @pytest.mark.parametrize("vector", [(4, 2, 2, 0), (2, 2, 2, 2, 0, 0)])
    def test_one_layout_per_ordered_shape(self, monkeypatch, vector, clear_even_caches):
        layouts = []
        real = sun_module._even_layout

        def counted(r, nz):
            layouts.append(nz)
            return real(r, nz)

        monkeypatch.setattr(sun_module, "_even_layout", counted)
        perms = sorted(set(permutations(vector)))
        warm = {perm: build_sun_even(perm) for perm in perms}
        shapes = {tuple(x for x in perm if x) for perm in perms}
        # Blocks are labelled by their index in the ordered shape and
        # laid out largest first, ties by label.
        assert sorted(layouts) == sorted(
            sorted(enumerate(shape), key=lambda jx: (-jx[1], jx[0])) for shape in shapes
        )
        for perm, sun in warm.items():
            clear_even_caches()
            assert build_sun_even(perm) == sun

    def test_every_build_validates_cache_hits_included(self, counted_checks, clear_even_caches):
        structure, colors = counted_checks
        vectors = [(4, 2, 2, 0), (2, 4, 0, 2), (4, 2, 2, 0), (0, 2, 2, 4)]
        for vector in vectors:
            build_sun_even(vector)
        # Every build checks its colors; every cache fill checks its
        # template as a 3-regular constituent.
        assert colors == vectors
        # Three ordered shapes: (4, 2, 2) twice, (2, 4, 2) and (2, 2, 4).
        assert structure == [3, 3, 3]
        assert sun_module._even_positions.cache_info().misses == 3

    def test_even_sweep_checks_each_template_once(self, counted_checks, clear_even_caches):
        # Work counts, not times: every even vector with r <= 10.
        structure, colors = counted_checks
        for r in range(2, 11, 2):
            for vector in even_vectors(r):
                build_sun_even(vector)
        assert len(colors) == 5946
        assert len(structure) == sun_module._even_positions.cache_info().misses == 209

    @given(st.data())
    # The fixture hands over a function and keeps no state per example.
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_warm_builds_equal_cold_ones(self, clear_even_caches, data):
        # A random even vector warms the cache for a random permutation
        # of it, at one random target valency.
        half = data.draw(st.integers(1, 20), label="r/2")
        d = data.draw(st.integers(1, 2 * half), label="d")
        cuts = sorted(data.draw(st.lists(st.integers(0, half), min_size=d - 1, max_size=d - 1)))
        vector = tuple(2 * (b - a) for a, b in zip([0] + cuts, cuts + [half]))
        perm = tuple(data.draw(st.permutations(vector), label="permutation"))
        k = data.draw(st.integers(sum(1 for x in vector if x) - 1, 2 * half - 1), label="k")
        clear_even_caches()
        cold = build_sun_valency(perm, k)
        clear_even_caches()
        build_sun_valency(vector, k)
        assert build_sun_valency(perm, k) == cold
        # The warm build hits the cache exactly when perm keeps the
        # nonzero entries' order.
        same_shape = [x for x in perm if x] == [x for x in vector if x]
        assert sun_module._even_positions.cache_info().hits == same_shape

    @pytest.mark.parametrize(
        "build",
        [build_sun_even, lambda vector: build_sun_valency(vector, 5)],
        ids=["even", "valency-5"],
    )
    def test_one_ordered_shape_shares_one_edges_tuple(self, build, clear_even_caches):
        # The first two keep the nonzero entries' order; the third does not.
        vectors = [(4, 0, 2, 2), (4, 2, 0, 2), (2, 4, 2, 0)]
        warm = [build(vector) for vector in vectors]
        assert warm[0].constituent_edges is warm[1].constituent_edges
        assert warm[0].constituent_edges is not warm[2].constituent_edges
        for vector, sun in zip(vectors, warm):
            clear_even_caches()
            assert build(vector) == sun


class TestBuildChecksFire:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            # Every scheme class repeats its first pair.
            (lambda real: lambda n, t: real(n, t) + real(n, t)[:1], "repeats edge"),
            # Every scheme class loses its first pair.
            (lambda real: lambda n, t: real(n, t)[1:], "constituent valencies"),
        ],
        ids=["repeated-pair", "valency-off"],
    )
    def test_a_corrupt_template_raises_at_fill_and_is_not_cached(
        self, monkeypatch, clear_even_caches, corrupt, message
    ):
        vector = (4, 2, 2)
        monkeypatch.setattr(sun_module, "scheme_class", corrupt(sun_module.scheme_class))
        # What validate says of the corrupt sun, with the fill's check off.
        with monkeypatch.context() as m:
            m.setattr(sun_module, "_check_constituent", lambda *args: None)
            edges, labels = sun_module._even_positions.__wrapped__(vector, 0)
        with pytest.raises(AssertionError, match=message) as said:
            SunColoring(vector, pendant_layout(vector), edges, labels, 3).validate(regular=2)
        # Twice: a fill that raised left no entry behind.
        for _ in range(2):
            with pytest.raises(AssertionError, match=f"^{re.escape(str(said.value))}$"):
                build_sun_even(vector)
        assert sun_module._even_positions.cache_info().currsize == 0

    def test_clashing_labels_on_a_cached_shape_are_refused(self, monkeypatch, clear_even_caches):
        vector = (4, 2, 2)
        build_sun_even(vector)
        real = sun_module._even_positions

        def one_label(shape, extra):
            edges, labels = real(shape, extra)
            return edges, (0,) * len(labels)

        monkeypatch.setattr(sun_module, "_even_positions", one_label)
        with pytest.raises(AssertionError, match="^sun coloring is not proper: "):
            build_sun_even(vector)
        assert real.cache_info().hits == 1


class TestValidateMessages:
    def test_clash_names_vertex_edges_and_color(self):
        # Pendant color 0 at position 0 meets constituent edge (0, 1) of color 0.
        sun = SunColoring(
            vector=(1, 1),
            pendant_colors=(0, 1),
            constituent_edges=((0, 1),),
            constituent_colors=(0,),
            palette_size=2,
        )
        with pytest.raises(
            AssertionError,
            match=r"sun coloring is not proper: edges 0 and 2 share color 0 at vertex 0",
        ):
            sun.validate()


# Vector (2, 2): pendants 0, 0, 1, 1 and the matching (0, 1), (2, 3) in
# the colors the pendants leave free.
PROPER_SUN = SunColoring(
    vector=(2, 2),
    pendant_colors=(0, 0, 1, 1),
    constituent_edges=((0, 1), (2, 3)),
    constituent_colors=(1, 0),
    palette_size=2,
)


class TestMalformedSuns:
    @pytest.mark.parametrize(
        "changes, regular, message",
        [
            (dict(constituent_edges=((0, 1), (0, 1), (2, 3)), constituent_colors=(1, 2, 0),
                  palette_size=3), None,
             r"^sun constituent repeats edge \(0, 1\); constituents are simple$"),
            (dict(constituent_edges=((0, 1), (1, 0), (2, 3)), constituent_colors=(1, 2, 0),
                  palette_size=3), None,
             r"^sun constituent repeats edge \(0, 1\); constituents are simple$"),
            (dict(constituent_edges=((0, 0), (2, 3))), None,
             r"^sun constituent has a loop at position 0$"),
            (dict(constituent_edges=((-1, 1), (2, 3))), None,
             r"^sun constituent uses position outside 0\.\.3$"),
            # Position 4 is the stub of pendant 0 in sun_graph().
            (dict(constituent_edges=((0, 4), (2, 3))), None,
             r"^sun constituent uses position outside 0\.\.3$"),
            # Not a comparison's TypeError or an unpacking's ValueError,
            # and a bool position is no int, so (True, 1) is not a loop.
            *[(dict(constituent_edges=(bad, (2, 3))), None,
               r"^sun constituent: pair 0 is not a pair of integers$")
              for bad in [(0.0, 1), ("0", 1), (0, 1, 2), (True, 1)]],
            (dict(constituent_colors=(2, 0)), None,
             r"^sun coloring: edge 4 has color 2 outside palette of size 2$"),
            (dict(constituent_colors=(-1, 0)), None,
             r"^sun coloring: edge 4 has color -1 outside palette of size 2$"),
            (dict(constituent_colors=(1.0, 0)), None,
             r"^sun coloring: edge 4 has color 1\.0, not an int$"),
            (dict(constituent_colors=("1", 0)), None,
             r"^sun coloring: edge 4 has color '1', not an int$"),
            (dict(pendant_colors=(0, 0, 1, 2)), None,
             r"^sun coloring: edge 3 has color 2 outside palette of size 2$"),
            (dict(pendant_colors=(0, 0, 1.0, 1)), None,
             r"^sun coloring: edge 2 has color 1\.0, not an int$"),
            (dict(palette_size=2.5), None, r"^sun coloring: palette size 2\.5 is not a nonnegative int$"),
            (dict(constituent_colors=(1,)), None, r"1 constituent colors for 2 edges"),
            (dict(constituent_colors=(0, 0)), None,
             r"sun coloring is not proper: edges 0 and 4 share color 0 at vertex 0"),
            (dict(vector=(3, 1)), None, r"pendant colors do not realize the vector"),
            (dict(), 2, r"constituent valencies \[1\] instead of 2-regular"),
        ],
        ids=[
            "repeat", "reversed-repeat", "loop", "negative-position", "stub-position",
            "float-position", "str-position", "triple-position", "bool-position",
            "color-past-palette", "negative-color", "float-color", "str-color",
            "pendant-past-palette", "float-pendant", "float-palette", "colors-short",
            "clash", "wrong-vector", "wrong-regularity",
        ],
    )
    def test_each_breach_is_named(self, changes, regular, message):
        PROPER_SUN.validate(regular=1)
        with pytest.raises(AssertionError, match=message):
            replace(PROPER_SUN, **changes).validate(regular=regular)

    def test_vector_check_holds_at_a_huge_palette(self):
        huge = 10**12
        SunColoring((2,), (0, 0), ((0, 1),), (1,), huge).validate(regular=1)
        with pytest.raises(AssertionError, match="^pendant colors do not realize the vector$"):
            replace(PROPER_SUN, vector=(3, 1), palette_size=huge).validate(regular=1)
        # A vector longer than the palette names colors outside it.
        with pytest.raises(AssertionError, match="^pendant colors do not realize the vector$"):
            SunColoring((2, 0), (0, 0), (), (), 1).validate()

    def test_clash_check_holds_at_a_huge_color(self):
        # The clash check's masks are as wide as the sun has edges, not
        # as its largest color, and a clash names the color itself.
        c = 10**8
        tracemalloc.start()
        try:
            SunColoring((2,), (0, 0), ((0, 1),), (c,), c + 1).validate(regular=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        huge = 10**12
        sun = SunColoring((3,), (0, 0, 0), ((0, 1), (0, 2)), (huge, huge), huge + 1)
        message = f"^sun coloring is not proper: edges 3 and 4 share color {huge} at vertex 0$"
        with pytest.raises(AssertionError, match=message):
            sun.validate()

    def test_edges_reaching_pendant_stubs_are_rejected(self):
        # Positions 2 and 3 are the stubs r..2r-1 of sun_graph().
        sun = SunColoring((1, 1), (0, 1), ((0, 3), (1, 2)), (2, 2), 3)
        message = r"^sun constituent uses position outside 0\.\.1$"
        with pytest.raises(AssertionError, match=message):
            sun.validate()
        with pytest.raises(AssertionError, match=message):
            SunColoring((1, 1), (0, 1), ((0, 2),), (2,), 3).validate(regular=1)

    def test_accepts_exactly_the_proper_recolorings(self):
        # Recolor one constituent edge in every palette color: validate
        # must agree with the properness of the plain sun graph.
        for vector in [(2, 2, 2), (4, 2, 0), (3, 1, 1), (1, 1, 1, 1, 1)]:
            sun = build(vector)
            for idx in range(len(sun.constituent_edges)):
                for c in range(sun.palette_size):
                    colors = list(sun.constituent_colors)
                    colors[idx] = c
                    other = replace(sun, constituent_colors=tuple(colors))
                    if is_proper(*other.sun_graph()):
                        other.validate()
                    else:
                        with pytest.raises(AssertionError, match="is not proper"):
                            other.validate()


class TestTotallyInadmissible:
    @pytest.mark.parametrize(
        "vector",
        [(2, 1, 1), (1, 1), (3, 1), (2, 1, 1, 1, 1), (4, 1, 1), (1, 1, 1, 1)],
    )
    def test_enumeration_confirms_parity_failures(self, vector):
        assert not admissible(vector)
        assert verify_totally_inadmissible(vector)

    def test_refuses_large_totals(self):
        with pytest.raises(GraphError):
            verify_totally_inadmissible((9, 1))

    def test_constituent_enumeration_counts(self):
        assert len(regular_constituents(4, 2)) == 3
        assert len(regular_constituents(6, 3)) == 70
        assert len(regular_constituents(8, 1)) == 105
        assert len(regular_constituents(8, 3)) == 19_355

    def test_block_layout_counts(self):
        # Of the 19,355 labelled cubic graphs on 8 vertices, these are
        # left once same-colored positions are interchangeable.
        assert len(regular_constituents(8, 3, pendant_layout((0, 0, 1, 7)))) == 15
        assert len(regular_constituents(8, 3, pendant_layout((1, 2, 2, 3)))) == 962

    def test_no_block_orbit_is_lost(self):
        # Brute force: a graph's canonical form is its least image under
        # all within-block permutations, with graphs ordered by upper
        # triangle in row-major order and an edge before a non-edge.
        # As an integer with the first pair on the highest bit, the
        # least graph has the largest code.
        def block_permutations(layout):
            blocks = [list(b) for _, b in groupby(range(len(layout)), key=layout.__getitem__)]
            for images in product(*(permutations(b) for b in blocks)):
                perm = list(range(len(layout)))
                for block, image in zip(blocks, images):
                    for p, q in zip(block, image):
                        perm[p] = q
                yield perm

        for r in range(1, 8):
            pairs = list(combinations(range(r), 2))
            bit = {p: 1 << (len(pairs) - 1 - k) for k, p in enumerate(pairs)}

            def code(edges):
                return sum(bit[min(a, b), max(a, b)] for a, b in edges)

            for deg in range(r):
                if r * deg % 2:
                    continue
                everything = {code(g) for g in regular_constituents(r, deg)}
                vectors = (v for d in range(1, r + 1) for v in all_vectors(r, d) if 0 not in v)
                for layout in map(pendant_layout, vectors):
                    perms = list(block_permutations(layout))
                    pruned = regular_constituents(r, deg, layout)
                    kept = {code(g) for g in pruned}
                    assert len(kept) == len(pruned) and kept <= everything
                    canonical = {}
                    for g in pruned:
                        orbit = {code([(p[a], p[b]) for a, b in g]) for p in perms}
                        canonical.update(dict.fromkeys(orbit, max(orbit)))
                    assert set(canonical) == everything, (layout, deg)
                    # The least graph of each orbit is itself kept.
                    assert set(canonical.values()) <= kept, (layout, deg)

    def test_refutation_kernel_calls(self, monkeypatch):
        calls = []
        solve = sun_module.solve_edge_coloring

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sun_module, "solve_edge_coloring", counted)
        monkeypatch.setattr(sun_module, "_TI_CACHE", {})
        vectors = {
            tuple(sorted(v))
            for d in range(1, 5)
            for r in range(d, 9)
            for v in all_vectors(r, d)
            if not admissible(v)
        }
        assert len(vectors) == 75
        assert all(verify_totally_inadmissible(v) for v in vectors)
        # Every labelled graph took 218,385 calls.
        assert len(calls) <= 21_838

    def test_enumeration_agrees_with_the_parity_rule(self, monkeypatch):
        # Every sorted vector with d <= 4 and r <= 8, from a cold cache:
        # the enumeration finds an extension exactly for the admissible.
        monkeypatch.setattr(sun_module, "_TI_CACHE", {})
        vectors = {
            tuple(sorted(v)) for d in range(1, 5) for r in range(d, 9) for v in all_vectors(r, d)
        }
        assert len(vectors) == 114
        for vector in vectors:
            assert verify_totally_inadmissible(vector) == (not admissible(vector)), vector


class TestValencyPumping:
    def test_valency_range_sweep(self):
        # Vector (2, 2, 0) has base valency d' - 1 = 1; any valency up to
        # r - 1 works.
        for k in range(1, 4):
            sun = build_sun_valency((2, 2, 0), k)
            sun.validate(regular=k)
            assert pendant_counts(sun)[:3] == (2, 2, 0)

    def test_base_valency_is_the_even_build(self):
        assert build_sun_valency((2, 2), 1) == build_sun_even((2, 2))

    def test_out_of_range_valency_rejected(self):
        # d' - 1 = 1 is the floor, r - 1 = 3 the ceiling.
        for k in (0, 4):
            with pytest.raises(GraphError, match=f"target valency {k} outside 1..3"):
                build_sun_valency((2, 2, 0), k)
        # bool is an int subclass, but not a valency; nor is a float.
        for k in (True, 2.0):
            with pytest.raises(GraphError, match=f"target valency {k} is not an int"):
                build_sun_valency((2, 2), k)


class TestParityBalance:
    def test_alternating_four_cycle_is_not_balanced(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        alternating = EdgeColoring({0: 0, 1: 1, 2: 0, 3: 1}, 2)
        # Each vertex sees each color once: odd counts at even vertices.
        assert not is_parity_balanced(g, alternating)

    def test_monochrome_even_graph_is_balanced(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_parity_balanced(g, EdgeColoring({e: 0 for e in range(4)}, 1))

    def test_proper_coloring_of_cubic_graph_is_balanced(self):
        g = k4()
        sol, _ = solve_edge_coloring(g, 3)
        assert is_parity_balanced(g, EdgeColoring(sol, 3))

    def test_uncolored_edge_is_named_as_is_proper_names_it(self):
        g = Multigraph([0, 1, 2], [(0, 1), (1, 2)])
        partial = EdgeColoring({0: 0}, 2)
        for check in (is_parity_balanced, is_proper):
            with pytest.raises(GraphError, match="^no color assigned to edge 1$"):
                check(g, partial)


class TestSemiregular:
    def _balanced_instance(self):
        # Doubled triangle, all valencies 4; a 2-coloring with both colors
        # twice at each vertex is parity balanced.
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        coloring = EdgeColoring({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}, 2)
        assert is_parity_balanced(g, coloring)
        return g, coloring

    def test_builds_proper_truncation(self):
        g, coloring = self._balanced_instance()
        tr, out = semiregular_truncation(g, coloring)
        assert is_proper(tr.graph, out)
        assert out.palette_size == coloring.palette_size

    def test_round_trip_reproduces_input(self):
        g, coloring = self._balanced_instance()
        tr, out = semiregular_truncation(g, coloring)
        back, back_coloring = contract(tr, out)
        assert back.edges == g.edges
        for eid in g.edge_ids:
            assert back_coloring.color_of(eid) == coloring.color_of(eid)

    def test_rejects_unbalanced_colorings(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        alternating = EdgeColoring({0: 0, 1: 1, 2: 0, 3: 1}, 2)
        with pytest.raises(GraphError):
            semiregular_truncation(g, alternating)

    def test_a_refused_vector_names_its_vertex(self):
        # Monochrome on a 5-cycle: every vector is (2, 0, 0), balanced,
        # but two ends are too few for three colors.
        g = cycle_graph(5)
        monochrome = EdgeColoring(dict.fromkeys(g.edge_ids, 0), 3)
        message = r"^vertex 0 with color vector \(2, 0, 0\): total 2 below color count 3; "
        with pytest.raises(GraphError, match=message):
            semiregular_truncation(g, monochrome)

    def test_one_sun_per_distinct_vector(self, monkeypatch):
        # K4 properly 3-colored (vector (1, 1, 1) at four vertices) beside
        # a monochrome doubled triangle ((4, 0, 0) at three vertices).
        g = disjoint_union(
            k4(), Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        )
        sol, _ = solve_edge_coloring(k4(), 3)
        coloring = EdgeColoring({**sol, **{e: 0 for e in range(6, 12)}}, 3)
        built = []
        for name in ("build_sun_odd", "build_sun_even"):
            real = getattr(sun_module, name)
            monkeypatch.setattr(
                sun_module, name, lambda vec, real=real: built.append(tuple(vec)) or real(vec)
            )
        tr, out = semiregular_truncation(g, coloring)
        assert sorted(built) == [(1, 1, 1), (4, 0, 0)]
        assert is_proper(tr.graph, out)


DOUBLED_TRIANGLE = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])


def mixed_vectors():
    """K4 properly 3-colored (odd vector (1, 1, 1) at four vertices)
    beside a monochrome doubled triangle (even (4, 0, 0) at three)."""
    sol, _ = solve_edge_coloring(k4(), 3)
    coloring = EdgeColoring({**sol, **{e: 0 for e in range(6, 12)}}, 3)
    return disjoint_union(k4(), DOUBLED_TRIANGLE), coloring


class TestGluedSuns:
    """Truncation.color checks the glued colors, whatever the suns hold."""

    def test_a_corrupted_glued_sun_fails_the_truncation_check(self, monkeypatch):
        def corrupted(sun):
            # The first edge takes the pendant color at its lower end.
            p = sun.constituent_edges[0][0]
            colors = (sun.pendant_colors[p], *sun.constituent_colors[1:])
            return replace(sun, constituent_colors=colors)

        # build_sun_even builds through build_sun_valency.
        for name in ("build_sun_odd", "build_sun_valency"):
            real = getattr(sun_module, name)
            monkeypatch.setattr(sun_module, name, lambda *a, real=real: corrupted(real(*a)))
        message = "^truncation coloring is not proper: "
        with pytest.raises(AssertionError, match=message):
            semiregular_truncation(*mixed_vectors())
        with pytest.raises(AssertionError, match=message):
            regular_truncation(DOUBLED_TRIANGLE, 4)


class TestRegularTruncation:
    def test_even_valency_route(self):
        # Doubled triangle: all valencies 4, d = 4 even.
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        out = regular_truncation(g, 4)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 4
        assert coloring.palette_size == 4

    def test_odd_valency_route(self):
        out = regular_truncation(prism3(), 3)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert is_proper(tr.graph, coloring)
        assert tr.graph.regular_valency() == 3

    def test_even_route_builds_one_sun_per_vector(self, monkeypatch):
        # The circulant C40(1, 2) is 4-regular: every vertex has vector (4,).
        g = Multigraph(range(40), [(i, (i + s) % 40) for i in range(40) for s in (1, 2)])
        real = sun_module.build_sun_valency
        calls = []
        monkeypatch.setattr(
            sun_module,
            "build_sun_valency",
            lambda vec, k: calls.append((tuple(vec), k)) or real(vec, k),
        )
        out = regular_truncation(g, 4)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert calls == [((4,), 3)]
        assert tr.graph.regular_valency() == 4
        assert coloring.palette_size == 4 and is_proper(tr.graph, coloring)

    def test_even_target_below_source_valency(self):
        # Valency 4 with target 2 satisfies the even clause (even, >= d),
        # so a 2-regular truncation must come out.
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        out = regular_truncation(g, 2)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert tr.graph.regular_valency() == 2
        assert is_proper(tr.graph, coloring)

    def test_odd_target_on_even_valencies_by_one(self):
        # Even valency 4 meets the odd clause's d + 1 floor exactly at d = 3.
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        out = regular_truncation(g, 3)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert tr.graph.regular_valency() == 3
        assert is_proper(tr.graph, coloring)

    def test_odd_target_on_long_cubic_circulant(self):
        # 800-cycle plus the 400 diameters: 1,200 edges, one search
        # level per edge, far past the default recursion limit.
        n = 800
        pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
        g = Multigraph(range(n), pairs)
        out = regular_truncation(g, 3)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert tr.graph.regular_valency() == 3
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)
        with pytest.raises(UndecidedError) as exc:
            regular_truncation(g, 3, budget=10)
        assert exc.value.nodes == 11

    def test_even_target_rejects_odd_valency(self):
        out = regular_truncation(k4(), 2)
        assert isinstance(out, Refusal)
        assert out.at == "ii"

    def test_even_target_rejects_low_valency(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        out = regular_truncation(g, 6)
        assert isinstance(out, Refusal)
        assert out.at == "ii"

    @pytest.mark.parametrize("d", [4.0, 3.0, True])
    def test_non_int_target_rejected(self, d):
        # The doubled triangle: 4.0 would take the even route, 3.0 the odd.
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphError, match=f"needs an int d, got {d}"):
            regular_truncation(g, d)

    def test_odd_target_rejects_even_valency_at_target(self):
        # Even valencies must exceed an odd target: 4 < d + 1 when d = 5.
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        out = regular_truncation(g, 5)
        assert isinstance(out, Refusal)
        assert out.at == "i"

    def test_odd_target_on_petersen_is_clause_i(self):
        # A parity-balanced 3-coloring of a cubic graph is proper, and
        # Petersen has none.
        out = regular_truncation(petersen(), 3)
        assert out == Refusal("no parity-conforming coloring with 3 colors exists", 117, "i")

    @pytest.mark.parametrize("prism_first", [True, False])
    def test_odd_target_refutes_a_class_two_component(self, prism_first):
        parts = (prism_graph(20), petersen())
        g = disjoint_union(*(parts if prism_first else parts[::-1]))
        out = regular_truncation(g, 3, budget=10_000)
        assert isinstance(out, Refusal)
        assert out.at == "i"

    def test_mixed_valencies_with_one_low_vertex(self):
        # Valencies 2, 4, 2: the even clause floor d + 1 = 4 fails at the ends.
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2)])
        out = regular_truncation(g, 3)
        assert isinstance(out, Refusal)
        assert out.at == "i"


EDGELESS = Multigraph([0, 1], [])


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: build_sun_even([]), "GraphError: color vector must have at least one entry"),
        (lambda: build_sun_odd([2, 1]), "GraphError: odd-parity construction needs every entry odd"),
        (
            lambda: build_sun_valency([3, 1], 2),
            "GraphError: even-parity construction needs every entry even",
        ),
        (
            lambda: semiregular_truncation(EDGELESS, EdgeColoring({}, 1)),
            "GraphError: source graph has no edges",
        ),
        (lambda: regular_truncation(EDGELESS, 3), "GraphError: source graph has no edges"),
        (lambda: regular_truncation(k4(), 1), "GraphError: regular truncation needs d >= 2, got 1"),
    ],
    ids=[
        "empty-vector",
        "odd-build-even-entry",
        "valency-build-odd-entry",
        "semiregular-edgeless",
        "regular-edgeless",
        "regular-d-one",
    ],
)
def test_degenerate_inputs(call, want):
    assert outcome(call) == want
