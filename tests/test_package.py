"""Package hygiene: every name a module exports must exist, and every name
a module imports must be used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import forge

ROOT = Path(__file__).resolve().parents[1]


def test_every_all_entry_resolves():
    modules = [forge] + [importlib.import_module(f"forge.{info.name}")
                         for info in pkgutil.iter_modules(forge.__path__)]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked  # the scan found exports to check


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and `__all__` omits."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{imported[n]}: {n}" for n in sorted(imported, key=imported.get)
            if n not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["1: os", "2: b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "forge").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {path: names for path, names in found.items() if names} == {}
