"""Suns from pendant-count vectors: builds, verdicts, and valency pumping.

A sun is a regular constituent plus one colored pendant edge per
vertex.  The vector says how many pendants carry each color; the
builder must color the constituent so that no vertex repeats its
pendant color.
"""

from truncolor.cyclic_coloring import vector3_admissible
from truncolor.coloring import is_proper
from truncolor.sun import (
    admissible,
    build_sun_even,
    build_sun_odd,
    build_sun_valency,
    verify_totally_inadmissible,
)


def build_and_report(vector):
    builder = build_sun_even if all(x % 2 == 0 for x in vector) else build_sun_odd
    sun = builder(vector)
    sun.validate(regular=len(vector) - 1)
    graph, coloring = sun.sun_graph()
    assert is_proper(graph, coloring)
    print(f"  {vector}: {len(vector) - 1}-regular constituent on {sun.r} vertices, "
          f"{coloring.palette_size} colors")
    print(f"    pendant colors by position: {sun.pendant_colors}")


def main():
    print("== admissible vectors build")
    build_and_report((3, 3, 1))
    build_and_report((2, 0, 4))
    # Four entries of 2: every interval layout hands two blocks the
    # same color class, so the builder takes its one fixed layout,
    # pendant pairs {0,1}, {2,4}, {3,7}, {5,6}, still with no search.
    build_and_report((2, 2, 2, 2))

    print("== inadmissible vectors are refuted by exhaustion up to permutations of same-colored ends")
    for vector in ((2, 1, 1), (3, 3, 1, 1)):
        assert not admissible(vector)
        assert verify_totally_inadmissible(vector)
        print(f"  {vector}: no regular constituent coloring exists")

    print("== three-color verdicts, with the universal flag")
    for vector in ((1, 1, 1), (4, 0, 0), (2, 1, 1)):
        verdict, universal = vector3_admissible(*vector)
        note = " (every cycle constituent works)" if universal else ""
        print(f"  {vector}: {verdict}{note}")

    print("== pumping the constituent valency over one vector")
    # Base regularity is one below the nonzero-entry count; each step
    # up to r-1 absorbs a whole perfect matching under a fresh color.
    for k in range(3, 8):
        sun = build_sun_valency((2, 2, 2, 2), k)
        sun.validate(regular=k)
        print(f"  constituent {k}-regular, palette {sun.palette_size}")


if __name__ == "__main__":
    main()
