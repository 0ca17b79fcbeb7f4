"""Every imported name is used: read as a Name (an attribute chain's
base is one) or listed in the module's __all__.  Every exported name
is defined in its module and public, and has a reader outside the
tests, or a stated reason to stay.  Every private helper has a reader
in the package.  Stdlib only."""

import ast
import re
from collections import Counter
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


def unread_private(modules):
    """Private (single-underscore) top-level functions, classes and
    methods that no module reads outside their own def, as
    "module:name" or "module:Class.name".  A read is a Name or an
    attribute; an attribute of a package class's name, such as
    C._m, reads only that class's method."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    classes = {n.name for t in trees.values() for n in t.body if isinstance(n, ast.ClassDef)}
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree, classes))
    out = set()
    for name, tree in trees.items():
        for owner, node in _defs(tree):
            if node.name.startswith("_") and not node.name.startswith("__"):
                own = _reads(node, classes)
                keys = {(None, node.name), (owner, node.name)}
                if all(reads[key] == own[key] for key in keys):
                    out.add(f"{name}:{owner + '.' if owner else ''}{node.name}")
    return out


def _defs(tree):
    """(owner class or None, node) for each top-level def and class,
    and each def or class in a top-level class's body."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield None, node
            if isinstance(node, ast.ClassDef):
                yield from ((node.name, item) for item in node.body if isinstance(item, kinds))


def _reads(tree, classes):
    """Reads in tree, keyed (class, name) for an attribute of a name in
    classes, else (None, name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[None, node.id] += 1
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            out[base if base in classes else None, node.attr] += 1
    return out


def test_every_private_helper_is_read_in_the_package():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private(modules) == set()


def test_the_private_scan_flags_a_helper_without_a_reader():
    modules = {
        "a.py": "def _f(): return _f()\ndef _g(): pass\ndef __h(): pass\n"
                "class _C:\n    def _m(self): pass\n    def _n(self): return self._m()\n"
                "    def __init__(self): pass\n"
                "class D:\n    def _t(self): pass\n"
                "class E:\n    def _t(self): pass\n    def _u(self): pass\n",
        "b.py": "from .a import _g\nx = _C()\ny = D._t(x)\nz = x._u()\n",
    }
    # _f reads only itself; an import binds _g but reads it nowhere; no
    # one reads _n, and D._t reads D's method, not E's; x._u may be any
    # class's _u.  Dunders are no private helpers.
    assert unread_private(modules) == {"a.py:_f", "a.py:_g", "a.py:_C._n", "a.py:E._t"}
