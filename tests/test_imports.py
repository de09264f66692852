"""Every name a module under src/ imports or defines is used.

No linter ships with the toolchain, so this parses each module with `ast`:
a name bound by `import` or `from ... import` must be read somewhere in the
module or listed in its `__all__`, and a module-level `def`, `class` or
assignment whose name starts with `_` (dunders aside) must be read in the
module, so deleting a caller cannot leave its private helper behind.

A public module-level `def`, `class` or assignment, and a public method,
must be read somewhere in src/, in the acceptance gate or in perfbench/,
so a public name that only unit tests call cannot come back. A string
constant equal to the name counts as a read: perfbench's tracer wraps
functions and methods named as strings.

Every class in errors.py must be raised somewhere in src/ or be the base
of one that is, and every `raise` of a class in src/ must name an
errors.py class, so the error taxonomy cannot grow dead or stray types.

Every defaulted parameter of a function or method in src/ must be passed,
by position or keyword, by some call in src/, the acceptance gate or
perfbench/ (an `__init__` is called through its class name), so a setting
that every caller leaves at one value becomes a constant instead.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
READERS = MODULES + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
ERRORS = SRC / "cqbrain" / "errors.py"


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


def public_definitions(source: str) -> dict[str, int]:
    """Name -> line of each public module-level def, class or assignment, and of each public method."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members = node.body if isinstance(node, ast.ClassDef) else []
            names = [(node.name, node.lineno)] + [
                (m.name, m.lineno) for m in members if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name, line in names:
            if not name.startswith("_"):
                defined.setdefault(name, line)
    return defined


def names_read(source: str) -> set[str]:
    """Names, attributes and imported names the source reads, and its string constants."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_the_check_finds_unread_public_names():
    source = ("import m\nfrom k import used_elsewhere\nA, B = 1, 2\nC: int = A\n"
              "class K:\n    def method(self): return self.other()\n    def other(self): pass\n"
              "    def _private(self): pass\n    def __init__(self): pass\n"
              "def f(): return getattr(m, 'traced')\ndef traced(): pass\ndef used_elsewhere(): pass\n")
    read = names_read(source)
    assert sorted(n for n in public_definitions(source) if n not in read) == ["B", "C", "K", "f", "method"]


def test_no_unread_public_names():
    read = set().union(*(names_read(path.read_text(encoding="utf-8")) for path in READERS))
    unread = {name: f"{path.relative_to(SRC)}:{line}" for path in MODULES
              for name, line in public_definitions(path.read_text(encoding="utf-8")).items()
              if name not in read}
    assert unread == {}


def raised_classes(source: str) -> list[tuple[str, str, int]]:
    """(class, innermost enclosing function, line) of each `raise C(...)` or `raise C` naming a CapWords class."""
    found: list[tuple[str, str, int]] = []

    def visit(node: ast.AST, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                target = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(target, ast.Name) and target.id[:1].isupper():
                    found.append((target.id, func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def error_bases(errors_source: str) -> dict[str, str]:
    """Class -> the name of its first base, for each module-level class."""
    return {node.name: node.bases[0].id for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)}


def unraised_error_classes(errors_source: str, sources: list[str]) -> list[str]:
    """Error classes that no source raises and that are no base of a raised one."""
    bases = error_bases(errors_source)
    live: set[str] = set()
    for source in sources:
        for name, _, _ in raised_classes(source):
            while name in bases and name not in live:
                live.add(name)
                name = bases[name]
    return sorted(bases.keys() - live)


def foreign_raises(errors_source: str, sources: dict[str, str]) -> list[str]:
    """`module:line: class in function` for each raised class that errors_source does not define."""
    bases = error_bases(errors_source)
    return [f"{module}:{line}: {name} in {func}" for module, source in sources.items()
            for name, func, line in raised_classes(source)
            if name not in bases]


def test_the_check_finds_dead_and_foreign_error_classes():
    errors = "class Base(Exception): pass\nclass Dead(Base): pass\nclass Kind(Base): pass\nclass Sub(Kind): pass\n"
    source = ("def f(x):\n    if x: raise ValueError(x)\n    raise Sub('no')\n"
              "def g():\n    def h(): raise KeyError\n    raise _make()\n"
              "try:\n    pass\nexcept Base as exc:\n    raise type(exc)('m') from exc\n")
    assert raised_classes(source) == [("ValueError", "f", 2), ("Sub", "f", 3), ("KeyError", "h", 5)]
    assert unraised_error_classes(errors, [source]) == ["Dead"]
    assert foreign_raises(errors, {"m.py": source}) == ["m.py:2: ValueError in f", "m.py:5: KeyError in h"]


def test_every_error_class_is_raised():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unraised_error_classes(ERRORS.read_text(encoding="utf-8"), sources) == []


def test_every_raised_class_is_an_error_class():
    root = SRC / "cqbrain"
    sources = {str(path.relative_to(root)): path.read_text(encoding="utf-8") for path in MODULES}
    assert foreign_raises(ERRORS.read_text(encoding="utf-8"), sources) == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, caller-side position or None if keyword-only) of each defaulted parameter.

    The callee is the function's or method's name, or its class's name for an `__init__`;
    a method's position leaves out `self` or `cls`, a staticmethod's does not.
    """
    tree = ast.parse(source)
    owner = {id(m): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = 1 if id(node) in owner and not static else 0
        callee = owner[id(node)] if node.name == "__init__" and id(node) in owner else node.name
        first_default = len(positional) - len(args.defaults)
        found += [(callee, a.arg, i - skip) for i, a in enumerate(positional) if i >= first_default]
        found += [(callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def passed_arguments(sources: list[str]) -> dict[str, tuple[float, set[str]]]:
    """Callee name -> (most positional arguments any call passes, keywords any call passes).

    A call spreading `*args` counts as passing every position, one spreading `**kwargs` every keyword ("*").
    """
    passed: dict[str, tuple[float, set[str]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            most, keywords = passed.get(name, (0, set()))
            spread = any(isinstance(a, ast.Starred) for a in node.args)
            most = max(most, float("inf") if spread else len(node.args))
            keywords |= {kw.arg or "*" for kw in node.keywords}
            passed[name] = (most, keywords)
    return passed


def unpassed_defaults(sources: list[str], readers: list[str]) -> list[str]:
    """`callee(parameter)` for each defaulted parameter in sources that no call in readers passes."""
    passed = passed_arguments(readers)
    unpassed = []
    for source in sources:
        for callee, param, position in defaulted_parameters(source):
            most, keywords = passed.get(callee, (0, set()))
            if not (param in keywords or "*" in keywords or (position is not None and position < most)):
                unpassed.append(f"{callee}({param})")
    return sorted(unpassed)


def test_the_check_finds_unpassed_defaults():
    source = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
              "class K:\n    def __init__(self, x=0, y=0): pass\n    def m(self, p=1, q=2): pass\n"
              "    @staticmethod\n    def s(r=1): pass\n"
              "def g(h=1): pass\n"
              "f(0, 5, e=6)\nK(1)\nk.m(*args)\nk.s(2)\ng(**opts)\n")
    assert defaulted_parameters(source) == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("f", "e", None), ("g", "h", 0),
        ("K", "x", 0), ("K", "y", 1), ("m", "p", 0), ("m", "q", 1), ("s", "r", 0)]
    assert unpassed_defaults([source], [source]) == ["K(y)", "f(c)", "f(d)"]


def test_every_defaulted_parameter_is_passed():
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unpassed_defaults([path.read_text(encoding="utf-8") for path in MODULES], readers) == []
