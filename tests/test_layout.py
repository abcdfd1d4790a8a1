"""Library layout: every function in `src/facelab` has a caller outside tests.

Reference checks belong in `tests/oracles.py`, not in the library.  This
walks the AST of each library module and requires every module-level
function and every public method to be named, as a whole word, somewhere
in `src/facelab` or `perfbench/` outside its own definition.  Dunder
methods are exempt: the interpreter calls them.  So are the entry points in
USER_API, which only users call; each must be named in the README.  Every
attribute a library class assigns as `self.<name>` must likewise be read as
`.<name>` somewhere in `src/facelab` or `perfbench/`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "facelab"
CALLER_DIRS = (LIBRARY, ROOT / "perfbench")
# The reader of the packaged JSON schemas that describe the CLI output.
USER_API = {"load_schema"}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield item.name, item.lineno, item.end_lineno


def test_library_has_no_test_only_functions():
    sources = {
        path: path.read_text(encoding="utf-8").splitlines()
        for folder in CALLER_DIRS
        for path in sorted(folder.rglob("*.py"))
    }
    unreferenced = []
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for name, first, last in definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in USER_API:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for source, lines in sources.items()
                for number, line in enumerate(lines, start=1)
                if not (source == path and first <= number <= last)
            )
            if not used:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert unreferenced == [], "library functions only tests call: " + ", ".join(unreferenced)


def test_user_api_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in sorted(USER_API) if f"`{name}" not in readme] == []


def assigned_attributes(tree: ast.Module):
    """(class, attribute, line) of each `self.<name> = ...` in a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                        yield node.name, sub.attr, sub.lineno


def test_library_has_no_write_only_attributes():
    read = set()
    assigned = []
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
            if folder == LIBRARY:
                assigned += [(path, *entry) for entry in assigned_attributes(tree)]
    unread = [
        f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
        for path, cls, name, line in assigned
        if name not in read
    ]
    assert unread == [], "attributes only tests read: " + ", ".join(unread)
