"""Every imported name in the package modules and the tests is used.

No linter runs on this repository, so this walks each module's syntax tree
and fails on an import whose name is never referenced. The package's
`__init__.py` imports only to re-export, and `bench/` keeps its own files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "relayprobe").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nimport sys as s\nfrom a import b, c\nc()\n") == [
        "line 1: os", "line 2: s", "line 3: b"]


def test_no_unused_imports():
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p.read_text())
             for p in MODULES}
    assert {k: v for k, v in found.items() if v} == {}
