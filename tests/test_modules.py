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
    ({module: source}) that no module refers to: no `Name`, `Attribute` or
    import alias anywhere in them names it. Methods are not scanned."""
    defined: list[str] = []
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(name for name in defined if name.split(".", 1)[1] not in referenced)


def test_the_scan_sees_unreferenced_definitions():
    sources = {
        "a": "def used(): pass\ndef attr(): pass\ndef imported(): pass\nclass Unused:\n    def method(self): used()\ndef lone(): pass\n",
        "b": "from a import imported\nimport a\na.attr()\nx = 'lone'\n",
    }
    assert _unreferenced(sources) == ["a.Unused", "a.lone"]


def test_every_definition_has_a_caller_in_the_package():
    """Code that only tests call belongs with the tests."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced(sources) == []
