"""Static checks on the package source, using only the standard library."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "panoptigon"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    ``from __future__`` imports are skipped.  A name counts as read when it
    appears as an identifier, or inside a string that parses as an
    expression (a quoted annotation).
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted("%s (line %d)" % (name, line) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = "from __future__ import annotations\nimport os\nfrom typing import Optional\nx: 'Optional[int]' = 1\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_no_unused_imports_in_src():
    """Every module but ``__init__.py`` (whose imports are re-exports) reads what it imports."""
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_package_all_matches_its_imports():
    """``__all__`` lists each name ``__init__.py`` imports once, and every name resolves."""
    import panoptigon

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(panoptigon.__all__) == len(set(panoptigon.__all__))
    assert set(panoptigon.__all__) == imported
    assert all(hasattr(panoptigon, name) for name in panoptigon.__all__)


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read as an identifier or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(defining: dict[str, str], others: list[str]) -> list[str]:
    """Functions, methods and classes of the ``defining`` sources that nothing reads.

    ``defining`` maps file names to source text; ``others`` are more sources
    that may read them.  A definition counts as read when its name is read
    anywhere outside its own body.  Names are matched without scope, and
    dunders are skipped.
    """
    trees = {name: ast.parse(text) for name, text in defining.items()}
    reads = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        reads += _reads(tree)
    found = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if reads[node.name] == _reads(node)[node.name]:
                found.append("%s (%s line %d)" % (node.name, file, node.lineno))
    return sorted(found)


def test_unreferenced_definitions_detected():
    lib = (
        "def used():\n    pass\n\n"
        "def recurse(n):\n    return recurse(n - 1)\n\n"
        "class Box:\n"
        "    def size(self):\n        return 1\n\n"
        "    def __len__(self):\n        return 0\n"
    )
    caller = "from lib import used, recurse\nused()\nBox()\n"
    assert unreferenced_definitions({"lib.py": lib}, [caller]) == [
        "recurse (lib.py line 4)",
        "size (lib.py line 8)",
    ]


def test_every_src_definition_is_read():
    """Each function, method and class in the package is used by the package, tests or perfbench."""
    defining = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [
        path.read_text()
        for folder in ("tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert unreferenced_definitions(defining, others) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports, relative imports skipped."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_src_uses_integer_arithmetic_only():
    """No module of the package imports ``fractions`` or ``decimal``: exact values stay integers."""
    found = {
        path.name: sorted(imported_modules(path.read_text()) & {"fractions", "decimal"})
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_src_imports_no_dataclasses():
    """The records are NamedTuples: no module of the package imports ``dataclasses``."""
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text())
    ]
    assert found == []


def test_fresh_import_loads_no_dataclasses_inspect_or_render():
    """``import panoptigon, panoptigon.cli`` in a new interpreter leaves these modules unloaded.

    A subprocess, because pytest itself has loaded ``dataclasses``; only the
    modules the import adds are checked.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import panoptigon, panoptigon.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'panoptigon.render'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from another module of the package."""
    return sorted(
        "%s (line %d)" % (alias.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "panoptigon")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_imports_detected():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .core import Polygon, _primitive\n"
        "from panoptigon.transform import _ext_gcd\n"
    )
    assert private_imports(source) == ["_ext_gcd (line 4)", "_primitive (line 3)"]


def test_src_imports_no_private_names():
    """No module of the package reads another module's underscore-prefixed names."""
    found = {path.name: private_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
