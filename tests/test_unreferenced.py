"""Every function, method and class defined in src/antikahler is named
somewhere besides its own definition: in the code of src/, tests/ or
perfbench/, or in the code spans and code blocks of README.md.  Code that
nothing names is code that nothing runs.

Names are read from the syntax tree, so a word in a docstring, a comment
or README prose does not count as a use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def defined_names() -> set:
    """Every non-dunder def or class name defined in the package."""
    names = set()
    for path in (ROOT / "src" / "antikahler").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def _docstrings(tree: ast.AST) -> set:
    """ids of the string constants that are docstrings."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, owners) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def code_references(source: str) -> Counter:
    """Names a module uses: Name ids, attribute names, imported names and
    their aliases, and the words of string constants other than docstrings
    (so that a table naming "module.function" counts)."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(re.findall(r"\w+", node.name))
            if node.asname:
                refs[node.asname] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def readme_references(text: str) -> Counter:
    """Words inside the fenced code blocks and inline code spans of a
    Markdown text."""
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    rest = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`[^`\n]+`", rest)
    return Counter(word for code in blocks + spans for word in re.findall(r"\w+", code))


def references() -> Counter:
    refs = Counter()
    for d in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            refs.update(code_references(path.read_text(encoding="utf-8")))
    refs.update(readme_references((ROOT / "README.md").read_text(encoding="utf-8")))
    return refs


def test_every_definition_is_named_elsewhere():
    refs = references()
    assert sorted(name for name in defined_names() if not refs[name]) == []


def test_prose_is_not_a_reference():
    source = ('"""spam is named here."""\n'
              'def f():\n    """and spam here."""\n    # spam\n'
              '    return g.spam_basis(x, "m.spam")\n')
    refs = code_references(source)
    assert refs["spam"] == 1 and refs["spam_basis"] == 1 and refs["g"] == 1
    assert refs["f"] == 0
    readme = "Use spam in prose.\n\n`x.spam(y)`\n\n```python\nspam_basis()\n```\n"
    assert readme_references(readme) == Counter(
        {"x": 1, "spam": 1, "y": 1, "python": 1, "spam_basis": 1})
