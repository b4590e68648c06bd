"""Every module-level function and class of the package is read somewhere in the package.

A definition that no ``Name`` or ``Attribute`` node of ``src/semalloc``
refers to has no caller inside the package, so it is dead unless it is an
entry point read from outside: a name the package's ``__init__`` imports, a
click command, or one of the listed public helpers.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "semalloc"

# (module, name) entry points the package itself never calls
ENTRY_POINTS = {("__init__", "data_file"), ("similarity", "load_corpora_csv")}


def _is_click_command(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """True when ``node`` is decorated ``@<group>.command(...)`` or ``@<group>.group(...)``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def unread_definitions(package: Path) -> list[str]:
    """``module.name`` of every module-level function or class of ``package`` that nothing refers to."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in referenced
        and node.name not in exported
        and (module, node.name) not in ENTRY_POINTS
        and not _is_click_command(node)
    ]


def test_every_module_level_definition_is_read_in_the_package():
    assert unread_definitions(PACKAGE) == []


def test_the_scan_flags_an_unread_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import used\n")
    (tmp_path / "core.py").write_text(
        "def used():\n    return _helper()\n\n\ndef _helper():\n    return 1\n\n\ndef orphan():\n    return 2\n\n\n"
        "class Orphan:\n    pass\n"
    )
    assert unread_definitions(tmp_path) == ["core.orphan", "core.Orphan"]
