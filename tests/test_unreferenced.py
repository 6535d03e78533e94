"""Every function, method and class defined in src/antikahler is named
somewhere besides its own definition: in src/, tests/, perfbench/ or
README.md.  Code that nothing names is code that nothing runs."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def defined_names() -> Counter:
    """How many times each non-dunder def or class name is defined in the package."""
    names = Counter()
    for path in (ROOT / "src" / "antikahler").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def word_counts() -> Counter:
    """Whole-word occurrences over every .py file in src/, tests/ and
    perfbench/, and README.md."""
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    paths.append(ROOT / "README.md")
    return Counter(word for p in paths
                   for word in re.findall(r"\w+", p.read_text(encoding="utf-8")))


def test_every_definition_is_named_elsewhere():
    words = word_counts()
    unreferenced = sorted(name for name, defs in defined_names().items() if words[name] <= defs)
    assert unreferenced == []
