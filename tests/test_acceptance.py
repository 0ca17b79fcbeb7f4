"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -s to see one PASS line per check.  Wall-clock budgets are
asserted where a guarantee includes one; the generous bounds exist to
catch algorithmic regressions, not scheduler noise.
"""

import random
import time
from typing import Iterator, Tuple

from truncolor.canonical import complete_graph
from truncolor.catalog import k4, k5, k33, petersen, prism3, two_k5_bridge
from truncolor.coloring import CLASS_II, chromatic_index, is_proper, solve_edge_coloring
from truncolor.coloring import EdgeColoring
from truncolor.complete_coloring import color_complete_truncation, is_edge_feasible
from truncolor.cyclic_coloring import (
    color_via_enabling,
    cyclic_even_valency,
    cyclic_from_class_one,
)
from truncolor.errors import Refusal
from truncolor.multigraph import Multigraph
from truncolor.strong_arboreal import color_by_strong
from truncolor.sun import (
    admissible,
    build_sun_even,
    build_sun_odd,
    is_parity_balanced,
    semiregular_truncation,
    verify_totally_inadmissible,
)
from truncolor.truncation import (
    arboreal_truncation,
    complete_truncation,
    contract,
    cyclic_truncation,
)

from conftest import (
    canonical_coloring,
    doubled_triangle,
    missing_color,
    random_multigraph,
    regular_odd_equivalence,
)


def star_with_tail() -> Multigraph:
    # Valencies 3, 1, 1, 2, 1: cluster orders hit the maximum, one
    # below it, and two below it in a single instance.
    return Multigraph(range(5), [(0, 1), (0, 2), (0, 3), (3, 4)])


def same_multigraph(a: Multigraph, b: Multigraph) -> bool:
    if a.order != b.order or a.size != b.size:
        return False
    ends = lambda g, eid: tuple(sorted(g.endpoints(eid)))
    return all(ends(a, eid) == ends(b, eid) for eid in a.edge_ids)


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def test_01_exact_oracle_on_petersen_and_its_complete_truncation():
    details = []
    # The node counts pin the search order: a kernel change that alters
    # them changes which colorings come back.
    for label, g, nodes in (
        ("Petersen", petersen(), 45),
        ("complete truncation", complete_truncation(petersen()).graph, 327),
    ):
        start = time.perf_counter()
        res = chromatic_index(g, edge_cap=60)
        elapsed = time.perf_counter() - start
        assert res.decided
        assert res.chi == 4
        assert res.nodes == nodes
        assert res.classify(g.max_valency()) == CLASS_II
        assert elapsed < 60.0
        details.append(f"{label} chi'=4 in {res.nodes} nodes ({elapsed:.2f}s)")
    print("acceptance 01: PASS: " + "; ".join(details))


def test_02_even_maximum_valency_colorings_use_exactly_delta_colors():
    instances = [("K5", k5())]
    for seed in (0, 9):
        g = random_multigraph(random.Random(seed))
        assert g.size <= 10
        instances.append((f"seed {seed}", g))
    details = []
    for label, g in instances:
        delta = g.max_valency()
        assert delta % 2 == 0
        start = time.perf_counter()
        out = color_complete_truncation(g)
        elapsed = time.perf_counter() - start
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert coloring.palette_size == delta
        assert is_proper(tr.graph, coloring)
        assert elapsed < 1.0
        details.append(f"{label} delta={delta} ({elapsed:.3f}s)")
    print("acceptance 02: PASS: " + "; ".join(details))


def test_03_odd_maximum_valency_colorings_cover_all_cluster_orders():
    gaps_seen = set()
    details = []
    for label, g in (
        ("K4", k4()),
        ("K33", k33()),
        ("two-K5-bridge", two_k5_bridge()),
        ("star+tail", star_with_tail()),
    ):
        delta = g.max_valency()
        assert delta % 2 == 1
        out = color_complete_truncation(g)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        assert coloring.palette_size == delta
        assert is_proper(tr.graph, coloring)
        for v in g.vertices:
            gap = delta - g.valency(v)
            gaps_seen.add(gap if gap < 2 else 2)
        details.append(f"{label} delta={delta}")
    # Orders delta, delta-1, and at most delta-2 all exercised.
    assert gaps_seen == {0, 1, 2}
    print("acceptance 03: PASS: " + "; ".join(details) + "; all cluster-order cases hit")


def test_04_sun_dichotomy_sweep_is_exhaustive_for_small_vectors():
    start = time.perf_counter()
    built = confirmed = 0
    for d in range(1, 5):
        for r in range(d, 9):
            for vector in compositions(r, d):
                if admissible(vector):
                    builder = build_sun_even if all(x % 2 == 0 for x in vector) else build_sun_odd
                    sun = builder(vector)
                    sun.validate(regular=d - 1)
                    graph, coloring = sun.sun_graph()
                    assert is_proper(graph, coloring)
                    for color, want in enumerate(vector):
                        assert sum(1 for c in sun.pendant_colors if c == color) == want
                    built += 1
                else:
                    assert verify_totally_inadmissible(vector)
                    confirmed += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"acceptance 04: PASS: {built} admissible suns built, "
        f"{confirmed} inadmissible vectors confirmed ({elapsed:.1f}s)"
    )


def test_05_canonical_colorings_are_proper_with_the_promised_structure():
    start = time.perf_counter()
    for n in range(2, 15):
        g = complete_graph(n)
        coloring = canonical_coloring(n)
        assert is_proper(g, coloring)
        if n % 2 == 0:
            assert coloring.palette_size == n - 1
            for color in range(n - 1):
                eids = [e for e in g.edge_ids if coloring.color_of(e) == color]
                covered = {v for e in eids for v in g.endpoints(e)}
                assert len(eids) == n // 2 and len(covered) == n
        else:
            assert coloring.palette_size == n
            missing = {missing_color(g, coloring, v) for v in g.vertices}
            assert missing == set(range(n))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"acceptance 05: PASS: n=2..14 proper; even n perfect-matching classes, "
          f"odd n missing-color bijection ({elapsed:.2f}s)")


def test_06_bridged_cubic_truncation_is_certified_class_two():
    tr = cyclic_truncation(two_k5_bridge())
    assert tr.graph.bridges()
    assert tr.graph.regular_valency() == 3
    start = time.perf_counter()
    res = chromatic_index(tr.graph, edge_cap=70)
    elapsed = time.perf_counter() - start
    assert res.decided
    assert res.chi == 4
    assert res.nodes == 559
    assert res.classify(3) == CLASS_II
    assert elapsed < 300.0
    print(f"acceptance 06: PASS: bridged 42-vertex cubic truncation, "
          f"chi'=4 in {res.nodes} nodes ({elapsed:.2f}s)")


def test_07_cubic_truncation_constructions_yield_proper_three_colorings():
    worst = 0.0

    def check(tr, coloring):
        nonlocal worst
        assert tr.graph.regular_valency() == 3
        assert coloring.palette_size == 3
        assert is_proper(tr.graph, coloring)

    g = k5()
    for seed in range(20):
        rng = random.Random(seed)
        orders = {}
        for v in g.vertices:
            order = list(range(g.valency(v)))
            rng.shuffle(order)
            orders[v] = order
        start = time.perf_counter()
        tr, coloring = cyclic_even_valency(g, orders)
        worst = max(worst, time.perf_counter() - start)
        check(tr, coloring)

    assignment, _ = solve_edge_coloring(k4(), 3)
    base = EdgeColoring(assignment, 3)
    start = time.perf_counter()
    tr, coloring = cyclic_from_class_one(k4(), base)
    worst = max(worst, time.perf_counter() - start)
    check(tr, coloring)

    start = time.perf_counter()
    tr, coloring = color_via_enabling(k4(), [0, 5])
    worst = max(worst, time.perf_counter() - start)
    check(tr, coloring)

    assert worst < 1.0
    print(f"acceptance 07: PASS: 20 seeded even-valency orders + class-one route "
          f"+ enabling route, worst {worst:.3f}s")


def test_08_regular_odd_equivalence_agrees_on_both_sides():
    expected = {
        "K4": True,
        "K33": True,
        "3-prism": True,
        "Petersen": False,
    }
    details = []
    for label, g in (
        ("K4", k4()),
        ("K33", k33()),
        ("3-prism", prism3()),
        ("Petersen", petersen()),
    ):
        source_class_one, truncation_class_one = regular_odd_equivalence(g)
        assert source_class_one == truncation_class_one == expected[label]
        details.append(f"{label} {'I' if source_class_one else 'II'}")
    print("acceptance 08: PASS: " + ", ".join(details))


def test_09_arboreal_truncations_of_random_multigraphs_are_class_one():
    for seed in range(25):
        g = random_multigraph(random.Random(seed))
        tr = arboreal_truncation(g)
        out = color_by_strong(tr)
        assert not isinstance(out, Refusal)
        assert out.palette_size == tr.graph.max_valency()
        assert is_proper(tr.graph, out)
    print("acceptance 09: PASS: 25 seeded arboreal truncations colored with "
          "exactly the maximum valency")


def test_10_contract_round_trips_recover_source_colorings():
    for label, g in (
        ("K4", k4()),
        ("K33", k33()),
        ("two-K5-bridge", two_k5_bridge()),
        ("star+tail", star_with_tail()),
    ):
        out = color_complete_truncation(g)
        assert not isinstance(out, Refusal)
        tr, coloring = out
        back, back_coloring = contract(tr, coloring)
        assert same_multigraph(back, g)
        assert is_edge_feasible(back, back_coloring)

    dbl = doubled_triangle()
    balanced = EdgeColoring({0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}, 3)
    assert is_parity_balanced(dbl, balanced)
    tr, coloring = semiregular_truncation(dbl, balanced)
    back, back_coloring = contract(tr, coloring)
    assert same_multigraph(back, dbl)
    assert is_parity_balanced(back, back_coloring)
    assert back_coloring.assignment == balanced.assignment

    assignment, _ = solve_edge_coloring(k4(), 3)
    base = EdgeColoring(assignment, 3)
    tr, coloring = cyclic_from_class_one(k4(), base)
    back, back_coloring = contract(tr, coloring)
    assert same_multigraph(back, k4())
    assert back_coloring.assignment == base.assignment

    print("acceptance 10: PASS: odd-route contractions edge-feasible; "
          "parity and class-one routes reproduce their inputs exactly")
