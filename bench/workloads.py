"""The benchmark's three workloads: seeded inputs, operations, checks.

Every workload is closed loop: one caller, one operation at a time, the
next issued only when the previous one has returned.  The seed is the
only source of randomness and reaches the program only through the
inputs generated here.

construct-cli
    Why: the constructive routes at scale, as a user drives them, through
    ``truncolor.cli.main(argv)`` in process with stdout written to a file.
    Loads: JSON parsing and emission (io), excision and flattening
    (truncation), the canonical 1-factorizations (canonical), assembly
    in complete_coloring, cyclic_coloring and strong_arboreal, and the
    properness checks (coloring.is_proper, io.first_clash).
    Bypasses: exact search.  Every source has even maximum valency or a
    forest constituent, so no search kernel call is made; a search
    optimisation must leave this workload unchanged.
    Seed: the Hamiltonian cycles of the even-valency and cyclic sources,
    the extra edges of the arboreal source, and the cycle orders that
    ``cyclic-color --seed`` draws.  K33 and K65 are fixed.

exact-large
    Why: a few large exact searches, by library calls with no JSON.
    Loads: the search kernel (coloring.solve_edge_coloring) per node and
    its recursion, edge-feasibility and list-coloring search in
    complete_coloring, and the oracle (coloring.chromatic_index).
    Bypasses: JSON and the CLI.
    Seed: relabels vertices and shuffles edge order of every instance,
    which moves the search order and so the node counts.  Each odd
    source runs under three labellings, so one unlucky labelling moves
    the total less.
    Left out: the odd-valency sources that fail at the time of writing.
    D=41 runs for minutes, D=49 and D=51 raise RecursionError under the
    default recursion limit, and the oracle leaves K9 undecided within
    a 200,000-node budget.  A workload measures operations that
    succeed; those defects are listed in the repository's ROADMAP.

sun-sweep
    Why: hundreds of thousands of tiny searches plus the sun builders.
    It uses the same search kernel as exact-large in the opposite way:
    per-call set-up dominates, so a kernel change that speeds one use
    and slows the other shows up.
    Loads: sun construction and refutation (sun), regular-constituent
    enumeration, Multigraph construction, list_edge_coloring.
    Bypasses: JSON, the CLI and truncations of large graphs.
    Seed: changes nothing.  The library sorts a vector before refuting
    it and keeps no cache across builds, so neither entry order nor
    build order reaches the computation.  The two refuted r=8 vectors
    are fixed: their cost differs by vector, and a seed-chosen pair
    made the time spread by a fifth across seeds.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Operations are looked up on their modules when a plan is built, so a
# traced run that has already wrapped the modules calls the wrappers.
from truncolor import cli, coloring, complete_coloring, sun
from truncolor.catalog import petersen, two_k5_bridge
from truncolor.coloring import EdgeColoring
from truncolor.complete_coloring import ClassIIWitness
from truncolor.io import first_clash
from truncolor.multigraph import Multigraph
from truncolor.truncation import complete_truncation, cyclic_truncation

# Operation groups, each reported as the summed wall time of its
# operations.  Groups a workload does not run read 0.
GROUPS = (
    "color_complete",
    "verify",
    "truncate",
    "cyclic_color",
    "color_strong",
    "odd_family",
    "oracle",
    "dichotomy",
    "refute",
    "even_build",
)

# Deterministic counts the checks report; the ones a workload does not
# produce read 0.
COUNTS = (
    "io.bytes_out",
    "coloring.oracle_nodes.petersen",
    "coloring.oracle_nodes.petersen_truncation",
    "coloring.oracle_nodes.bridged_truncation",
)


class CheckFailed(Exception):
    """The program gave a wrong answer; the benchmark aborts."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _ok(value) -> str:
    return "ok"


@dataclass
class Op:
    group: str
    label: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    stdout: Optional[str] = None
    # Maps the returned value to "ok" or "undecided"; raises CheckFailed
    # on an answer that is wrong whatever the timing.
    judge: Callable = _ok
    # Untimed glue run after a successful operation.
    after: Optional[Callable] = None


@dataclass
class Plan:
    ops: List[Op]
    deadline_s: float
    # Called with the value of every operation (None when it failed);
    # raises CheckFailed, returns deterministic counts for the report.
    check: Callable[[List[object]], Dict[str, int]]


# ---- input generators ---- #

def _complete(n: int) -> Tuple[List[int], List[Tuple[int, int]]]:
    return list(range(n)), list(itertools.combinations(range(n), 2))


def _hamiltonian_union(rng: random.Random, n: int, cycles: int):
    """Union of random Hamiltonian cycles: 2*cycles-regular, parallel
    edges allowed, no loops."""
    edges: List[Tuple[int, int]] = []
    for _ in range(cycles):
        order = list(range(n))
        rng.shuffle(order)
        edges.extend((order[i], order[(i + 1) % n]) for i in range(n))
    return list(range(n)), edges


def _sparse(rng: random.Random, n: int, m: int):
    """A Hamiltonian cycle (so no vertex is isolated) plus random
    non-loop edges up to m in all."""
    vertices, edges = _hamiltonian_union(rng, n, 1)
    while len(edges) < m:
        u, w = rng.sample(vertices, 2)
        edges.append((u, w))
    return vertices, edges


def _scramble(g: Multigraph, rng: random.Random) -> Multigraph:
    """Same graph under random vertex labels and a shuffled edge order."""
    labels = rng.sample(range(10 * g.order + 10), g.order)
    rename = dict(zip(g.vertices, labels))
    pairs = [tuple(rename[x] for x in g.endpoints(eid)) for eid in g.edge_ids]
    rng.shuffle(pairs)
    return Multigraph(labels, pairs)


def _max_valency(edges: Sequence[Tuple[int, int]]) -> int:
    deg: Dict[int, int] = {}
    for u, w in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[w] = deg.get(w, 0) + 1
    return max(deg.values())


def _sorted_pairs(edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Edges as the JSON output writes them: each pair in ascending order."""
    return [sorted(e) for e in edges]


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _coloring_is_proper(vertices, edges, col: dict, palette: int, what: str) -> None:
    """Independent check of an emitted coloring: right palette, every
    edge covered, and first_clash finds nothing."""
    _require(col["palette"] == palette, f"{what}: palette {col['palette']}, expected {palette}")
    colors = col["colors"]
    _require(len(colors) == len(edges), f"{what}: {len(colors)} colors for {len(edges)} edges")
    g = Multigraph(vertices, [tuple(e) for e in edges])
    clash = first_clash(g, EdgeColoring(dict(enumerate(colors)), palette))
    _require(clash is None, f"{what}: edges {clash and clash[1:]} clash at vertex {clash and clash[0]}")


# ---- construct-cli ---- #

def _cli_judge(rc) -> str:
    if rc == cli.EXIT_UNDECIDED:
        return "undecided"
    _require(rc == cli.EXIT_OK, f"CLI exited with {rc}")
    return "ok"


def construct_cli(seed: int, small: bool, work: str) -> Plan:
    rng = random.Random(seed)
    n1, n2 = (5, 9) if small else (33, 65)
    ham_n, ham_k = (8, 3) if small else (64, 24)
    cyc_n = 60 if small else 3000
    arb_n, arb_m = (60, 240) if small else (3000, 12000)
    sources = {
        f"K{n1}": _complete(n1),
        f"K{n2}": _complete(n2),
        "hamiltonian": _hamiltonian_union(rng, ham_n, ham_k),
        "cyclic": _hamiltonian_union(rng, cyc_n, 3),
        "arboreal": _sparse(rng, arb_n, arb_m),
    }
    path = {}
    for name, (vertices, edges) in sources.items():
        path[name] = os.path.join(work, f"{name}.json")
        with open(path[name], "w", encoding="utf-8") as fh:
            json.dump({"vertices": vertices, "edges": [list(e) for e in edges]}, fh)

    def out(name: str) -> str:
        return os.path.join(work, f"{name}.out.json")

    def run(group: str, label: str, argv: List[str], stdout: str, after=None) -> Op:
        return Op(group, label, cli.main, (argv,), stdout=stdout, judge=_cli_judge, after=after)

    ops: List[Op] = []
    for name in (f"K{n1}", f"K{n2}", "hamiltonian"):
        ops.append(run("color_complete", name, ["color-complete", path[name]], out(f"{name}.cc")))
        ops.append(run("verify", name, ["verify", out(f"{name}.cc")], out(f"{name}.cc.verify")))
    ops.append(run("cyclic_color", "cyclic",
                   ["cyclic-color", path["cyclic"], "--strategy", "even", "--seed", str(seed)],
                   out("cyclic.cc")))
    ops.append(run("verify", "cyclic", ["verify", out("cyclic.cc")], out("cyclic.cc.verify")))
    coloring_only = os.path.join(work, "arboreal.coloring.json")

    def split_coloring() -> None:
        # `verify` takes a graph file and a bare coloring file; pull the
        # coloring out of color-strong's report, as a user would.
        with open(coloring_only, "w", encoding="utf-8") as fh:
            json.dump(_load(out("arboreal.cs"))["coloring"], fh)

    ops.append(run("truncate", "arboreal",
                   ["truncate", path["arboreal"], "--kind", "arboreal"], out("arboreal.tr")))
    ops.append(run("color_strong", "arboreal", ["color-strong", out("arboreal.tr")],
                   out("arboreal.cs"), after=split_coloring))
    ops.append(run("verify", "arboreal", ["verify", out("arboreal.tr"), coloring_only],
                   out("arboreal.verify")))

    def check(values: List[object]) -> Dict[str, int]:
        for name in (f"K{n1}", f"K{n2}", "hamiltonian"):
            vertices, edges = sources[name]
            delta = _max_valency(edges)
            bundle = _load(out(f"{name}.cc"))
            _require(bundle["class"] == "I" and bundle["delta"] == delta,
                     f"color-complete {name}: class {bundle['class']}, delta {bundle['delta']}")
            src = bundle["truncation"]["source"]
            _require(src["vertices"] == vertices and src["edges"] == _sorted_pairs(edges),
                     f"color-complete {name}: truncation source differs from the input")
            deg: Dict[int, int] = {}
            for u, w in edges:
                deg[u] = deg.get(u, 0) + 1
                deg[w] = deg.get(w, 0) + 1
            want = len(edges) + sum(d * (d - 1) // 2 for d in deg.values())
            _require(len(bundle["edges"]) == want,
                     f"color-complete {name}: {len(bundle['edges'])} edges, complete truncation has {want}")
            _coloring_is_proper(bundle["vertices"], bundle["edges"], bundle["coloring"], delta,
                                f"color-complete {name}")
            report = _load(out(f"{name}.cc.verify"))
            _require(report["proper"] is True and report["palette"] == delta,
                     f"verify {name}: {report}")

        bundle = _load(out("cyclic.cc"))
        _coloring_is_proper(bundle["vertices"], bundle["edges"], bundle["coloring"], 3,
                            "cyclic-color")
        _require(_max_valency(bundle["edges"]) == 3, "cyclic-color: truncation is not 3-valent")
        report = _load(out("cyclic.cc.verify"))
        _require(report["proper"] is True and report["palette"] == 3, f"verify cyclic: {report}")

        tr = _load(out("arboreal.tr"))
        vertices, edges = sources["arboreal"]
        _require(tr["kind"] == "arboreal" and tr["source"]["edges"] == _sorted_pairs(edges),
                 "truncate: not the arboreal truncation of the input")
        delta = _max_valency(tr["edges"])
        _require(tr["max_valency"] == delta, "truncate: wrong max_valency")
        strong = _load(out("arboreal.cs"))
        _require(strong["applicable"] is True and strong["delta"] == delta,
                 f"color-strong: applicable {strong['applicable']}, delta {strong.get('delta')}")
        _coloring_is_proper(tr["vertices"], tr["edges"], strong["coloring"], delta, "color-strong")
        report = _load(out("arboreal.verify"))
        _require(report["proper"] is True and report["palette"] == delta,
                 f"verify arboreal: {report}")
        return {"io.bytes_out": sum(os.path.getsize(op.stdout) for op in ops)}

    return Plan(ops, 5.0 if small else 60.0, check)


# ---- exact-large ---- #

def _odd_source(d: int, rng: random.Random) -> Multigraph:
    """a joined to b by d-2 parallel edges, b to c by 2: maximum valency
    d (odd), and a's cluster has order d-2, the list-coloring case."""
    g = Multigraph([0, 1, 2], [(0, 1)] * (d - 2) + [(1, 2)] * 2)
    return _scramble(g, rng)


def _color_complete_judge(value) -> str:
    _require(not isinstance(value, ClassIIWitness),
             "color_complete_truncation: class II witness for a class I source")
    return "ok"


def _oracle_judge(value) -> str:
    return "ok" if value.decided else "undecided"


RELABELINGS = 3


def exact_large(seed: int, small: bool, work: str) -> Plan:
    rng = random.Random(seed)
    family = (21, 23) if small else tuple(d for d in range(21, 48, 2) if d != 41)
    # Each source under RELABELINGS labellings: the search cost moves
    # with the labelling by a tenth or more, and one labelling per
    # source let the seed alone spread the time by 6%.
    ops = [
        Op("odd_family", f"D={d}", complete_coloring.color_complete_truncation, (_odd_source(d, rng),),
           judge=_color_complete_judge)
        for d in family
        for _ in range(RELABELINGS)
    ]
    # (label, graph, keyword arguments, chromatic index)
    oracles = [
        ("petersen", petersen(), {}, 4),
        ("petersen_truncation", complete_truncation(petersen()).graph, {"edge_cap": 60}, 4),
        ("bridged_truncation", cyclic_truncation(two_k5_bridge()).graph, {"edge_cap": 70}, 4),
    ]
    for label, g, kwargs, _ in oracles:
        ops.append(Op("oracle", label, coloring.chromatic_index, (_scramble(g, rng),), dict(kwargs),
                      judge=_oracle_judge))

    def check(values: List[object]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op, value in zip(ops, values):
            if value is None:
                continue
            if op.group == "odd_family":
                tr, coloring = value
                d = op.args[0].max_valency()
                _require(coloring.palette_size == d, f"{op.label}: palette {coloring.palette_size}")
                flat = tr.graph
                _require(set(coloring.assignment) == set(flat.edge_ids), f"{op.label}: partial coloring")
                _require(first_clash(flat, coloring) is None, f"{op.label}: improper coloring")
            else:
                chi = next(c for label, _, _, c in oracles if label == op.label)
                counts[f"coloring.oracle_nodes.{op.label}"] = value.nodes
                if value.decided:
                    _require(value.chi == chi, f"oracle {op.label}: chi'={value.chi}, expected {chi}")
                    cert = value.certificate
                    _require(cert.palette_size == chi, f"oracle {op.label}: certificate palette")
                    _require(first_clash(op.args[0], cert) is None,
                             f"oracle {op.label}: improper certificate")
        return counts

    return Plan(ops, 5.0 if small else 20.0, check)


# ---- sun-sweep ---- #

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _admissible(vector: Sequence[int]) -> bool:
    """The parity rule, restated here so the check does not lean on the
    library's own test: all entries share r's parity, and odd parity
    needs an odd number of colors."""
    r = sum(vector)
    if any(x % 2 != r % 2 for x in vector):
        return False
    return r % 2 == 0 or len(vector) % 2 == 1


def _refutation_judge(value) -> str:
    _require(value is True, "verify_totally_inadmissible found an extension of an inadmissible vector")
    return "ok"


def sun_sweep(seed: int, small: bool, work: str) -> Plan:
    d_max, r_max = (3, 5) if small else (4, 7)
    ops: List[Op] = []
    for d in range(1, d_max + 1):
        for r in range(d, r_max + 1):
            for vector in _compositions(r, d):
                if not _admissible(vector):
                    ops.append(Op("dichotomy", str(vector), sun.verify_totally_inadmissible,
                                  (vector,), judge=_refutation_judge))
                elif r % 2:
                    ops.append(Op("dichotomy", str(vector), sun.build_sun_odd, (vector,)))
                else:
                    ops.append(Op("dichotomy", str(vector), sun.build_sun_even, (vector,)))
    # The first and the last inadmissible sorted vector.  Refutation costs differ by vector (1.6 s to 2.7 s
    # at r = 8 on one core of the machine this was written on), so a
    # seed-chosen pair would make the sweep's wall time depend on the
    # seed by up to a fifth.
    ref_d, ref_r = (3, 6) if small else (4, 8)
    candidates = [
        v for v in itertools.combinations_with_replacement(range(ref_r + 1), ref_d)
        if sum(v) == ref_r and not _admissible(v)
    ]
    for vector in (candidates[0], candidates[-1]):
        ops.append(Op("refute", str(vector), sun.verify_totally_inadmissible, (vector,),
                      judge=_refutation_judge))
    even = [
        tuple(2 * x for x in half)
        for r in range(2, (6 if small else 10) + 1, 2)
        for d in range(1, r + 1)
        for half in _compositions(r // 2, d)
    ]
    ops.extend(Op("even_build", str(v), sun.build_sun_even, (v,)) for v in even)

    def check(values: List[object]) -> Dict[str, int]:
        for op, value in zip(ops, values):
            if value is None or op.judge is _refutation_judge:
                continue
            vector = op.args[0]
            try:
                value.validate(regular=len(vector) - 1)
            except AssertionError as exc:
                raise CheckFailed(f"sun {vector}: {exc}") from None
            _require(value.palette_size == len(vector), f"sun {vector}: palette {value.palette_size}")
            for color, want in enumerate(vector):
                got = sum(1 for c in value.pendant_colors if c == color)
                _require(got == want, f"sun {vector}: {got} pendants of color {color}")
        return {}

    return Plan(ops, 5.0 if small else 60.0, check)


def build(workload: str, seed: int, small: bool, work: str) -> Plan:
    return {
        "construct-cli": construct_cli,
        "exact-large": exact_large,
        "sun-sweep": sun_sweep,
    }[workload](seed, small, work)
