"""Package hygiene: every name a module exports must exist and be defined
there, every name a module imports must be used, and every top-level def,
class, constant, method and property of the package must be used outside
the tests."""

import ast
import importlib
import pkgutil
import re
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


def exported(source: str) -> set[str]:
    """The names a module's `__all__` lists."""
    names: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def not_defined(source: str) -> list[str]:
    """The names a module's `__all__` lists that its top level binds by no
    def, class or assignment, such as a re-exported import."""
    defined: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(n.id for t in node.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return sorted(exported(source) - defined)


def test_not_defined_exports_are_found():
    source = "from a import b\nc: int = 1\nD, H = 2, 3\n\n\ndef e():\n    pass\n\n\nclass F:\n    pass\n"
    assert not_defined(source + "__all__ = ['b', 'c', 'D', 'H', 'e', 'F', 'g']\n") == ["b", "g"]


def test_every_all_entry_is_defined_in_its_module():
    # the package __init__ lists its submodules instead
    files = [p for p in sorted((ROOT / "src" / "forge").glob("*.py")) if p.name != "__init__.py"]
    found = {p.name: not_defined(p.read_text()) for p in files}
    assert {name: names for name, names in found.items() if names} == {}


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
    used |= exported(source)
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


def key_error_handlers(source: str) -> list[str]:
    """The dotted def path of each handler in source that can catch a
    KeyError: a bare except, or one naming KeyError or a base of it."""
    catching = {"KeyError", "LookupError", "Exception", "BaseException"}
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.ExceptHandler) and (child.type is None or catching & {
                    n.id for n in ast.walk(child.type) if isinstance(n, ast.Name)}):
                found.append(".".join(path))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_key_error_handlers_are_found():
    source = ("def f():\n    def g():\n        try:\n            pass\n"
              "        except (ValueError, KeyError):\n            pass\n"
              "    try:\n        pass\n    except TypeError:\n        pass\n"
              "    except:\n        pass\n")
    assert key_error_handlers(source) == ["f.g", "f"]


def test_only_the_evaluator_entry_points_catch_unbound_names():
    # compiled closures let an unbound name's KeyError through to the run
    found = {path.name: key_error_handlers(path.read_text())
             for path in sorted((ROOT / "src" / "forge").glob("*.py"))}
    assert {name: paths for name, paths in found.items() if paths} == \
        {"evaluate.py": ["_Compiler.run"]}


def local_names(fn: ast.FunctionDef | ast.Lambda) -> set[str]:
    """The names a function binds in its own scope: its parameters and each
    name it assigns or defines, but those it declares global."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    shared = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            shared.update(node.names)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is a scope of its own
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names - shared


def references(source: str, module: str, modules: set[str]) -> list[tuple[str, int]]:
    """(key, line) of each use the source, the text of `module`, makes of a
    definition.  A module-level name of m has key `m.name` and is used when
    it is read bare in m, read after an import from m, or read as an
    attribute of a name bound to m; `self.name` in class C of m has key
    `m.C.name`; an attribute read on anything else but a module has key
    `.name`, the use of any method of that name.  A name a function binds
    locally reaches nothing outside it."""
    tree = ast.parse(source)
    names: dict[str, str] = {}  # bound by `from m import name`: "m.name"
    mods: dict[str, str] = {}   # bound to a module, forge's or foreign: its last part
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                mods[alias.asname or parts[0]] = parts[-1] if alias.asname else parts[0]
        elif isinstance(node, ast.ImportFrom):
            origin = (node.module or "").split(".")[-1]
            for alias in node.names:
                if origin in modules:
                    names[alias.asname or alias.name] = f"{origin}.{alias.name}"
                elif alias.name in modules:
                    mods[alias.asname or alias.name] = alias.name
    refs = []

    def visit(node, local: set[str], cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                    and child.id not in local:
                refs.append((names.get(child.id, f"{module}.{child.id}"), child.lineno))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                owner = child.value.id if isinstance(child.value, ast.Name) else None
                if owner == "self" and cls:
                    refs.append((f"{module}.{cls}.{child.attr}", child.lineno))
                elif owner in mods and owner not in local:
                    refs.append((f"{mods[owner]}.{child.attr}", child.lineno))
                else:
                    refs.append((f".{child.attr}", child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, local | local_names(child), cls)
            else:
                visit(child, local, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, set(), None)
    return refs


def definitions(source: str, module: str):
    """(key, name, node) of each top-level def, class and constant but
    `__all__`, and of each method and property but the dunders, whose name
    is `Class.method`."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for n in (n for t in targets for n in ast.walk(t)):
                if isinstance(n, ast.Name) and n.id != "__all__":
                    yield f"{module}.{n.id}", n.id, node


def dead_definitions(sources: dict[str, str], checked: list[str],
                     texts: list[str] = (), tests: list[str] = (),
                     exempt: dict[str, str] = ()) -> list[str]:
    """The `definitions` of the `checked` sources that no source outside
    `tests` uses (see `references`) outside the definition itself and no
    entry point (`"module:name"`) in the texts names, except the `exempt`
    ones (keyed `module.name`); and each exempt entry that has such a use
    or names no definition, as stale."""
    modules = {Path(path).stem for path in checked}
    used: dict[str, list[tuple[str, int]]] = {}
    for path, source in sources.items():
        if path not in tests:
            for key, line in references(source, Path(path).stem, modules):
                used.setdefault(key, []).append((path, line))
    points = {f"{m.split('.')[-1]}.{name}"
              for m, name in re.findall(r"[\"']([\w.]+):(\w+)[\"']", "\n".join(texts))}
    found, seen = [], set()
    for path in checked:
        for key, name, node in definitions(sources[path], Path(path).stem):
            seen.add(key)
            uses = used.get(key, [])
            if "." in name:
                uses = uses + used.get("." + name.split(".")[1], [])
            inside = range(node.lineno, node.end_lineno + 1)
            alive = key in points or any(p != path or line not in inside for p, line in uses)
            if key in exempt and alive:
                found.append(f"{path}:{node.lineno}: {name} is exempt but has a caller")
            elif key not in exempt and not alive:
                found.append(f"{path}:{node.lineno}: {name}")
    return found + [f"{key} is exempt but not defined" for key in exempt if key not in seen]


def dead_in(root: Path, exempt: dict[str, str]) -> list[str]:
    """dead_definitions of the package under root.  References from the
    package and perfbench/ count, and so do pyproject.toml's entry points;
    references from tests/ do not, and no other text is read."""
    files = [p for d in ("src/forge", "tests", "perfbench") for p in sorted((root / d).glob("*.py"))]
    sources = {str(p.relative_to(root)): p.read_text() for p in files}
    checked = [path for path in sources if path.startswith("src/")]
    tests = [path for path in sources if path.startswith("tests/")]
    return dead_definitions(sources, checked, [(root / "pyproject.toml").read_text()],
                            tests, exempt)


def test_dead_definitions_are_found(tmp_path):
    sources = {"m.py": "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\n"
                       "class Named:\n    pass\n\n\n__all__ = ['used']\n",
               "t.py": "from m import used\nused()\n",
               "u.py": "import m\nm.Named()\n"}
    assert dead_definitions(sources, ["m.py"]) == ["m.py:5: dead"]
    assert dead_definitions(sources, ["m.py"], ["[scripts]\nx = 'm:dead'"]) == []
    # a reference from a test alone keeps nothing alive, even one __all__ lists
    assert dead_definitions(sources, ["m.py"], tests=["t.py"]) == \
        ["m.py:1: used", "m.py:5: dead"]
    assert dead_definitions(sources, ["m.py"], tests=["t.py", "u.py"]) == \
        ["m.py:1: used", "m.py:5: dead", "m.py:9: Named"]
    # an exemption holds while only tests call the definition, and is stale
    # once something else does or the definition is gone
    exempt = {"m.used": "why", "m.Named": "why", "m.gone": "why"}
    assert dead_definitions(sources, ["m.py"], tests=["t.py"], exempt=exempt) == \
        ["m.py:5: dead", "m.py:9: Named is exempt but has a caller",
         "m.gone is exempt but not defined"]
    # README is not read: naming a definition there keeps nothing alive
    files = {"README.md": "| `forge.m` | `used`, `dead`, `Named` |\n",
             "pyproject.toml": "[project.scripts]\nforge = \"forge.m:dead\"\n",
             "src/forge/m.py": sources["m.py"], "tests/t.py": sources["t.py"]}
    for path, text in files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    assert dead_in(tmp_path, {}) == ["src/forge/m.py:1: used", "src/forge/m.py:9: Named"]
    # a use goes through a binding, not a spelling: an attribute of an object
    # reaches a method but no module-level name, an attribute of a module
    # (forge's or foreign) no method, and `self.name` only its own class's
    # method; a constant is checked like a def, and a local name shadows it
    bound = {"m.py": "LIMIT = 3\nSHOWN = 4\n\n\ndef dead(LIMIT):\n    return LIMIT\n\n\n"
                     "class Box:\n    def copy(self):\n        return self.copy()\n\n"
                     "    def size(self):\n        return SHOWN\n\n"
                     "    def grow(self):\n        pass\n\n\n"
                     "class Other:\n    def grow(self):\n        return self.size()\n",
             "c.py": "import shutil\n\nfrom m import Box, Other, dead\n\n\n"
                     "def main(args):\n    shutil.copy('a', 'b')\n    Other().grow()\n"
                     "    return args.dead, Box\n",
             "t.py": "import m\nm.LIMIT\nm.Box().copy()\nm.Box().size()\n"}
    assert dead_definitions(bound, ["m.py"], tests=["t.py"]) == \
        ["m.py:1: LIMIT", "m.py:5: dead", "m.py:10: Box.copy", "m.py:13: Box.size"]
    # a constant a function rebinds under `global` and reads is alive; without
    # the declaration the function's name is its own
    shared = "COUNT = 0\n\n\ndef bump():\n    global COUNT\n    COUNT += 1\n    return COUNT\n"
    for source, dead in [(shared, []), (shared.replace("    global COUNT\n", ""), ["m.py:1: COUNT"])]:
        assert dead_definitions({"m.py": source, "c.py": "from m import bump\nbump()\n"},
                                ["m.py"]) == dead


# Library definitions that only tests call, each kept for the reason given;
# every reason cites the test that justifies it.
ONLY_TESTS_CALL = {
    "acc.compile_reach": "the Sigma^B_1 reach formula, decided by its honest witness sweep in "
                         "tests/test_acc.py::test_honest_reach_sweep_agrees_with_eval_reach",
    "acc.eval_reach": "the Sigma^B_1 side that tests/test_acc.py::"
                      "test_reach_agrees_with_nepo_and_the_simulator compares with nepo's reach",
    "nepo.cell_artifact": "the Delta^B_0 cell predicate, pinned by the cell:* digests of "
                          "tests/test_golden.py::test_print_and_reprint_digests",
}


def test_no_dead_definitions():
    assert dead_in(ROOT, ONLY_TESTS_CALL) == []


def uncited(root: Path, exempt: dict[str, str]) -> list[str]:
    """The exemptions whose reason cites no `tests/<file>.py::<test>` that
    the file defines at top level, or whose cited file never names them."""
    found = []
    for name, reason in exempt.items():
        cited = re.search(r"tests/(\w+\.py)::(\w+)", reason)
        if not cited or not (root / "tests" / cited[1]).is_file():
            found.append(f"{name} cites no test file")
            continue
        source = (root / "tests" / cited[1]).read_text()
        if cited[2] not in {node.name for node in ast.parse(source).body
                            if isinstance(node, ast.FunctionDef)}:
            found.append(f"{name} cites {cited[0]}, which is not defined")
        elif not re.search(rf"\b{name.rsplit('.', 1)[1]}\b", source):
            found.append(f"{name} cites {cited[0]}, whose file never names it")
    return found


def test_uncited_exemptions_are_found(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("def test_a():\n    m.used()\n")
    exempt = {"m.used": "see tests/t.py::test_a", "m.vague": "kept for now",
              "m.lost": "see tests/u.py::test_a", "m.gone": "see tests/t.py::test_b",
              "m.other": "see tests/t.py::test_a"}
    assert uncited(tmp_path, exempt) == [
        "m.vague cites no test file", "m.lost cites no test file",
        "m.gone cites tests/t.py::test_b, which is not defined",
        "m.other cites tests/t.py::test_a, whose file never names it"]


def test_each_exemption_cites_its_test():
    assert uncited(ROOT, ONLY_TESTS_CALL) == []
