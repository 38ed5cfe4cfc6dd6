"""The reference module and the benchmark check module it loads stay a
second route: neither may reach into the library it is compared with."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "reference.py"
CHECKS = TESTS.parent / "bench" / "checks.py"


def _imported_names(tree):
    """Every module and name an import statement in tree mentions; a
    relative import keeps its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
            yield from (alias.name for alias in node.names)


def _library_imports(path):
    names = list(_imported_names(ast.parse(path.read_text())))
    assert "numpy" in names  # the parse sees the module's imports
    return [n for n in names if n.startswith(".") or "rlwe_workbench" in n.split(".")]


def test_reference_imports_nothing_from_the_library():
    assert _library_imports(REFERENCE) == []


def test_checks_imports_nothing_from_the_library():
    assert _library_imports(CHECKS) == []
