"""Pinned colorings of every route that glues through Truncation.color.

Each digest is the sha256 of repr((sorted constituents, palette, sorted
assignment)) over one route's instances, in order, so a change to how a
route hands its per-cluster colors to the gluing must keep every
coloring.  The odd-D sources hang a padded cluster of order D-2 and one
of order 2 on an order-D hub, under seeded relabelings (vertex names and
edge order), so the order-D rule and the D-1 lemma's conflict walks both
run.
"""

import hashlib
import random

import pytest

from truncolor.catalog import k4, k5
from truncolor.canonical import complete_graph
from truncolor.coloring import EdgeColoring, is_proper, solve_edge_coloring
from truncolor.complete_coloring import color_complete_truncation, subtruncation_coloring
from truncolor.cyclic_coloring import cyclic_even_valency
from truncolor.multigraph import Multigraph
from truncolor.strong_arboreal import color_by_strong
from truncolor.sun import regular_truncation, semiregular_truncation
from truncolor.truncation import arboreal_truncation, cyclic_truncation

ODD_DELTAS = (7, 21, 47)


def relabeled(edges, rng):
    """The multigraph on edges with its vertices renamed at random and
    its edges in a random order."""
    ends = sorted({v for e in edges for v in e})
    rename = dict(zip(ends, rng.sample(range(10 * len(ends)), len(ends))))
    pairs = [(rename[u], rename[w]) for u, w in edges]
    rng.shuffle(pairs)
    return Multigraph(sorted(rename.values()), pairs)


def padded_source(d, rng):
    """a-b with d-2 parallel edges and b-c with 2: b has order d, a and
    c are padded to the odd palettes d and 3."""
    return relabeled([(0, 1)] * (d - 2) + [(1, 2)] * 2, rng)


def cycle_orders(x, rng):
    orders = {}
    for v in x.vertices:
        order = list(range(x.valency(v)))
        rng.shuffle(order)
        orders[v] = order
    return orders


def complete_even():
    for x in (k5(), complete_graph(9)):
        yield color_complete_truncation(x)


def complete_odd():
    rng = random.Random(35)
    for d in ODD_DELTAS:
        for _ in range(3):
            yield color_complete_truncation(padded_source(d, rng))


def subtruncation():
    # A star at the hub keeps D; the other clusters take their paths.
    rng = random.Random(36)
    for d in ODD_DELTAS:
        x = padded_source(d, rng)
        hub = next(v for v in x.vertices if x.valency(v) == d)
        tr = arboreal_truncation(x, {hub: [(0, i) for i in range(1, d)]})
        yield tr, subtruncation_coloring(tr)


def cyclic_even():
    rng = random.Random(37)
    for x in (k5(), complete_graph(9), k5()):
        yield cyclic_even_valency(x, cycle_orders(x, rng))


def strong():
    rng = random.Random(38)
    for x in (k4(), k5(), complete_graph(8)):
        tr = arboreal_truncation(x)
        yield tr, color_by_strong(tr)
    for x in (k5(), complete_graph(9)):
        tr = cyclic_truncation(x, cycle_orders(x, rng))
        yield tr, color_by_strong(tr)


def semiregular():
    # The doubled triangle, both colors twice at each vertex, and K4
    # properly 3-colored beside a monochrome doubled triangle.
    doubled = [(0, 1), (1, 2), (2, 0)] * 2
    yield semiregular_truncation(
        Multigraph(range(3), doubled), EdgeColoring({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}, 2)
    )
    sol, _ = solve_edge_coloring(k4(), 3)
    both = Multigraph(range(7), list(k4().edges.values()) + [(u + 4, w + 4) for u, w in doubled])
    yield semiregular_truncation(both, EdgeColoring({**sol, **dict.fromkeys(range(6, 12), 0)}, 3))


def regular():
    for x, d in ((k5(), 4), (complete_graph(9), 4), (k4(), 3), (complete_graph(8), 5)):
        yield regular_truncation(x, d)


ROUTE_PINS = {
    "complete_even": (
        complete_even,
        "e9bd5ec06d61674b40ff126ecfd2e3697a4ec924f4e14e27d0564013f9a74a45",
    ),
    "complete_odd": (
        complete_odd,
        "30af5375ae41fb3e227a1df8526cb3b6daef51effecddf15cf3b18935fd9846b",
    ),
    "subtruncation": (
        subtruncation,
        "89f4ae1d41a74667261df048b440428ecf4458644780da6c204425460a50d320",
    ),
    "cyclic_even": (
        cyclic_even,
        "3cc7eca3a3316a3e15e9b86dee203d6230591f38dd2a85285cba35a8076521ed",
    ),
    "strong": (
        strong,
        "8a9b66ecf49a252a4e2ee7bf12db3ad12b840320b3d32128b3d84540a3401e21",
    ),
    "semiregular": (
        semiregular,
        "703956ae6999f9b91ad8f78e5e5729311aa0368c75b531fdc1f0f507ab05f639",
    ),
    "regular": (
        regular,
        "9def10d888ea28ed00798014ac570f5117ff564970619440793ef9c2c42b84f4",
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTE_PINS))
def test_route_colorings_are_pinned(route):
    build, want = ROUTE_PINS[route]
    digest = hashlib.sha256()
    for tr, coloring in build():
        assert is_proper(tr.graph, coloring)
        assignment = sorted(coloring.assignment.items())
        text = repr((sorted(tr.constituents.items()), coloring.palette_size, assignment))
        digest.update(text.encode())
    assert digest.hexdigest() == want
