"""Static checks over the package's source files."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqfuse"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in `__all__`."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_the_scan_sees_unused_imports_and_exports():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert _unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the modules in `sources`
    ({module: source}), and the methods of those classes, that no module
    refers to. A function or class is referred to by any `Name`,
    `Attribute` or import alias that names it; a method only by an
    `Attribute` or import alias, so a local variable of the same name does
    not hide a dead one. A method is matched by its name alone, whatever
    the object it is looked up on; dunder methods, which Python calls, are
    skipped."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined: list[str] = []
    methods: list[str] = []
    names: set[str] = set()
    attributes: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                methods += [
                    f"{module}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, functions) and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name)
    referenced = names | attributes
    unreferenced = [name for name in defined if name.rsplit(".", 1)[1] not in referenced]
    unreferenced += [name for name in methods if name.rsplit(".", 1)[1] not in attributes]
    return sorted(unreferenced)


def test_the_scan_sees_unreferenced_definitions():
    sources = {
        "a": "def used(): pass\ndef attr(): pass\ndef imported(): pass\nclass Unused:\n    def __init__(self): used()\ndef lone(): pass\n",
        "b": "from a import imported\nimport a\na.attr()\nx = 'lone'\n",
    }
    assert _unreferenced(sources) == ["a.Unused", "a.lone"]


def test_the_scan_sees_unreferenced_methods():
    sources = {
        "a": (
            "class Used:\n"
            "    def __init__(self): pass\n"
            "    def called(self): pass\n"
            "    def passed(self): pass\n"
            "    def lone(self): pass\n"
            "    def elsewhere(self): pass\n"
            "    def shadowed(self): pass\n"
            "Used().called()\n"
            "f = Used.passed\n"
        ),
        "b": "import a\nx = a.Used()\nx.elsewhere()\nshadowed = 1\nprint(shadowed)\n",
    }
    assert _unreferenced(sources) == ["a.Used.lone", "a.Used.shadowed"]


# `autodiff.Sgd` has no caller in the package (training uses Adam), but
# the benchmark's tracer wraps `Sgd.step` and `Sgd.zero_grad` by name
# (their entries in `PATCHES`, perfbench/tracing.py). It goes with those
# entries in the benchmark revision, ROADMAP item 2.
_NO_CALLER_EXEMPT = ["autodiff.Sgd"]


def test_every_definition_has_a_caller_in_the_package():
    """Code that only tests call belongs with the tests."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources) == _NO_CALLER_EXEMPT


def _bundled_names(sources: list[str]) -> set[str]:
    """The string arguments of every `_load_bundled(...)` call in `sources`."""
    names: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_load_bundled":
                names.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
    return names


def test_the_scan_sees_bundled_names():
    sources = ["x = _load_bundled('a.json')\n_load_bundled(name)\n", "def f(): return _load_bundled('b.json')\nload('c.json')\n"]
    assert _bundled_names(sources) == {"a.json", "b.json"}


def test_every_bundled_file_is_read():
    """A table nothing reads does not stay committed."""
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    files = {path.name for path in (PACKAGE / "data").iterdir() if path.is_file()}
    assert sorted(files - _bundled_names(sources)) == []
