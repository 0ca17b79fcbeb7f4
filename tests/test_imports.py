"""Every imported name is used: read as a Name (an attribute chain's
base is one) or listed in the module's __all__.  Every exported name
is defined in its module and public, and has a reader outside the
tests, or a stated reason to stay.  Stdlib only."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "truncolor").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Exported names that no other module, demo or README line reads, each
# with the reason it stays in src/.
UNREAD_EXPORTS = {
    "list_edge_coloring": "the benchmark's span table requires it by name",
    "find_edge_feasible": "the benchmark's span table requires it by name",
    "load_coloring": "the benchmark times it as a parse span",
    "is_parity_balanced": "states the paper's parity-balanced criterion",
    "regular_truncation": "the paper's regular-truncation result",
}


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exports(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def bad_exports(source: str):
    """Names in a module's __all__ that start with an underscore or that
    no top-level def, class, assignment or import of the module binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return sorted(name for name in _exports(tree) if name.startswith("_") or name not in bound)


def unread_exports(modules, readers):
    """Names in a module's __all__ that nothing reads: not the module's
    own code (as a Name or an attribute), and not, as a whole word, the
    text of another module or of a reader."""
    out = set()
    for name, source in modules.items():
        tree = ast.parse(source)
        own = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        own |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        others = [text for other, text in modules.items() if other != name] + readers
        for export in _exports(tree):
            word = re.compile(rf"\b{re.escape(export)}\b")
            if export not in own and not any(word.search(text) for text in others):
                out.add(export)
    return out


def test_every_export_is_read_or_has_a_reason():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"}
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").iterdir())]
    readers.append((ROOT / "README.md").read_text(encoding="utf-8"))
    assert unread_exports(modules, readers) == set(UNREAD_EXPORTS)


def test_the_export_scan_flags_an_unread_name():
    modules = {
        "a.py": "__all__ = ['f', 'g', 'h', 'k']\ndef f(): return g()\ndef g(): pass\n"
                "def h(): pass\ndef k(): pass\n",
        "b.py": "from .a import h\n__all__ = []\n",
    }
    # f is read by nobody; g by a's own code; h by b; k by a reader.
    assert unread_exports(modules, ["call k(1)"]) == {"f"}
    assert unread_exports(modules, ["kk"]) == {"f", "k"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_export_is_defined_and_public(path):
    assert bad_exports(path.read_text(encoding="utf-8")) == []


def test_the_export_guard_flags_private_and_unbound_names():
    source = (
        "import os.path\nfrom .a import b as c\n"
        "__all__ = ['os', 'c', 'f', 'C', 'X', 'Y', '_g', 'gone', 'b']\n"
        "def f(): pass\nclass C: pass\nX = 1\nY: int = 2\ndef _g(): pass\n"
    )
    # _g is defined but private; gone is bound by nothing, nor is b (bound as c).
    assert bad_exports(source) == ["_g", "b", "gone"]


def test_the_scan_sees_python_files():
    assert len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_an_unused_name_and_spares_exports():
    source = "import os, sys\nfrom a.b import c as d, e\n__all__ = ['e']\nprint(sys.path)\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]
