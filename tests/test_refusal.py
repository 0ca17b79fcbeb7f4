"""Every route's refusal is one record: Refusal(reason, nodes, at)."""

import pytest

from truncolor.catalog import k4, petersen, two_k5_bridge
from truncolor.complete_coloring import color_complete_truncation
from truncolor.cyclic_coloring import cyclic_class_one
from truncolor.errors import Refusal
from truncolor.multigraph import Multigraph
from truncolor.strong_arboreal import color_by_strong
from truncolor.sun import _parity_coloring_search, regular_truncation
from truncolor.truncation import complete_truncation

from conftest import doubled_triangle

# The doubled triangle with a pendant edge at each vertex: D = 5, and
# its core, the doubled triangle, is overfull in 5 colors.
TRIANGLE_WITH_PENDANTS = Multigraph(
    range(6), list(doubled_triangle().edges.values()) + [(0, 3), (1, 4), (2, 5)]
)

# name: (route call, reason prefix, at, nodes)
REFUSALS = {
    "complete-petersen": (
        lambda: color_complete_truncation(petersen()),
        "exhaustive search found no coloring with all colors distinct at valency-3 vertices",
        None,
        30,
    ),
    "complete-overfull-core": (
        lambda: color_complete_truncation(TRIANGLE_WITH_PENDANTS),
        "exhaustive search found no coloring with all colors distinct at valency-5 vertices",
        None,
        0,
    ),
    "strong-petersen-complete": (
        lambda: color_by_strong(complete_truncation(petersen())),
        "constituent at source vertex 0 holds a valency-3 end but admits no 2-coloring",
        0,
        0,
    ),
    "strong-bridge-complete": (
        lambda: color_by_strong(complete_truncation(two_k5_bridge())),
        "constituent at source vertex 0 holds a valency-5 end but admits no 4-coloring",
        0,
        0,
    ),
    "regular-ii-odd-valency": (
        lambda: regular_truncation(k4(), 2),
        "vertex 0 has odd valency 3; even d needs all even",
        "ii",
        0,
    ),
    "regular-ii-below-d": (
        lambda: regular_truncation(doubled_triangle(), 6),
        "vertex 0 has valency 4 below d = 6",
        "ii",
        0,
    ),
    "regular-i-odd-below-d": (
        lambda: regular_truncation(k4(), 5),
        "vertex 0 has odd valency 3 below d = 5",
        "i",
        0,
    ),
    "regular-i-even-below-d-plus-one": (
        lambda: regular_truncation(doubled_triangle(), 5),
        "vertex 0 has even valency 4 below d + 1 = 6",
        "i",
        0,
    ),
    "regular-i-no-parity-coloring": (
        lambda: regular_truncation(petersen(), 3),
        "no parity-conforming coloring with 3 colors exists",
        "i",
        117,
    ),
    "cyclic-petersen": (
        lambda: cyclic_class_one(petersen()),
        "the source has no parity-balanced 3-coloring",
        None,
        117,
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_route_refuses_with_reason_place_and_cost(name):
    call, prefix, at, nodes = REFUSALS[name]
    out = call()
    assert isinstance(out, Refusal)
    assert out.reason.startswith(prefix)
    assert (out.at, out.nodes) == (at, nodes)


def test_parity_refusals_cost_the_search_itself():
    found, nodes = _parity_coloring_search(petersen(), 3)
    assert found is None
    for name in ("cyclic-petersen", "regular-i-no-parity-coloring"):
        assert REFUSALS[name][0]().nodes == nodes
