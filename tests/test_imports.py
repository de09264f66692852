"""Every name a module under src/ imports, and every private name it defines, is used in that module.

No linter ships with the toolchain, so this parses each module with `ast`:
a name bound by `import` or `from ... import` must be read somewhere in the
module or listed in its `__all__`, and a module-level `def`, `class` or
assignment whose name starts with `_` (dunders aside) must be read in the
module, so deleting a caller cannot leave its private helper behind.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """`name (line N)` for each imported name the module never reads or exports."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def unread_private_names(source: str) -> list[str]:
    """`name (line N)` for each module-level private def, class or assignment the module never reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items()) if name not in read]


def test_the_check_finds_unused_names():
    source = "import os\nimport a.b\nfrom c import d, e as f\n__all__ = ['g']\nfrom h import g\nprint(a, d)\n"
    assert unused_imports(source) == ["f (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unread_private_names():
    source = ("__version__ = '1'\n_A, _B = 1, 2\n_C: int = 3\nclass _K: pass\n"
              "def _used(): return _A\ndef _unused(x): return _used() + x\n")
    assert unread_private_names(source) == ["_B (line 2)", "_C (line 3)", "_K (line 4)", "_unused (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
