"""reference.py imports the standard library only, so it shares no code
with the package, and no file of tests/ imports a test module: shared
inputs and helpers live in corpora.py.  Both are read from syntax trees."""

import ast
import sys
from pathlib import Path


def imports(path: Path) -> set:
    """Top-level names of the modules that a file imports."""
    nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return {name.split(".")[0] for node in nodes
            for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])}


def test_reference_is_standalone_and_no_module_imports_a_test_module():
    tests = Path(__file__).resolve().parent
    assert imports(tests / "reference.py") <= set(sys.stdlib_module_names)
    assert {path.name: name for path in sorted(tests.glob("*.py"))
            for name in imports(path) if name.startswith("test_")} == {}
