"""The reference module stays a second route: it must not reach into the
library it is compared with."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.py"


def _imported_names(tree):
    """Every module and name an import statement in tree mentions; a
    relative import keeps its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
            yield from (alias.name for alias in node.names)


def test_reference_imports_nothing_from_the_library():
    names = list(_imported_names(ast.parse(REFERENCE.read_text())))
    assert "numpy" in names  # the parse sees the module's imports
    bad = [n for n in names if n.startswith(".") or "rlwe_workbench" in n.split(".")]
    assert bad == []
