"""Generalized truncations of multigraphs and their proper edge colorings.

The library builds truncations (replace each vertex by a cluster of
ends, one per incident edge, carrying a perfect matching between former
edge ends, plus a simple constituent graph inside each cluster) and
produces optimal or near-optimal proper edge colorings for the main
constituent families: complete, cyclic, and forest constituents.  An
exact backtracking oracle supplies ground-truth chromatic indices for
everything small enough to check.
"""

from .canonical import class_of_pair, complete_graph, scheme_class
from .catalog import catalog
from .coloring import (
    CLASS_I,
    CLASS_II,
    EdgeColoring,
    OracleResult,
    chromatic_index,
    is_proper,
    list_edge_coloring,
    solve_edge_coloring,
)
from .complete_coloring import (
    color_complete_truncation,
    find_edge_feasible,
    is_edge_feasible,
    subtruncation_coloring,
)
from .cyclic_coloring import (
    ADMISSIBLE,
    TOTALLY_INADMISSIBLE,
    color_via_enabling,
    cut_edge_class_two,
    cyclic_class_one,
    cyclic_even_valency,
    cyclic_from_class_one,
    is_enabling,
    vector3_admissible,
)
from .errors import GraphError, Refusal, UndecidedError
from .multigraph import Multigraph
from .strong_arboreal import color_by_strong
from .sun import (
    SunColoring,
    admissible,
    build_sun_even,
    build_sun_odd,
    build_sun_valency,
    is_parity_balanced,
    regular_truncation,
    semiregular_truncation,
    verify_totally_inadmissible,
)
from .truncation import (
    Truncation,
    arboreal_truncation,
    complete_truncation,
    contract,
    cyclic_truncation,
    excise,
)

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBLE",
    "CLASS_I",
    "CLASS_II",
    "EdgeColoring",
    "GraphError",
    "Multigraph",
    "OracleResult",
    "Refusal",
    "SunColoring",
    "TOTALLY_INADMISSIBLE",
    "Truncation",
    "UndecidedError",
    "admissible",
    "arboreal_truncation",
    "build_sun_even",
    "build_sun_odd",
    "build_sun_valency",
    "catalog",
    "chromatic_index",
    "class_of_pair",
    "color_by_strong",
    "color_complete_truncation",
    "color_via_enabling",
    "complete_graph",
    "complete_truncation",
    "contract",
    "cut_edge_class_two",
    "cyclic_class_one",
    "cyclic_even_valency",
    "cyclic_from_class_one",
    "cyclic_truncation",
    "excise",
    "find_edge_feasible",
    "is_edge_feasible",
    "is_enabling",
    "is_parity_balanced",
    "is_proper",
    "list_edge_coloring",
    "regular_truncation",
    "scheme_class",
    "semiregular_truncation",
    "solve_edge_coloring",
    "subtruncation_coloring",
    "vector3_admissible",
    "verify_totally_inadmissible",
]
