"""`src/` stays stdlib-only: every module the package imports is either in
the standard library or ``ffactors`` itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffactors"


def imported_packages(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        (path.name, name)
        for path in files
        for name in imported_packages(ast.parse(path.read_text(), filename=str(path)))
        if name not in sys.stdlib_module_names and name != "ffactors"
    }
    assert not outside


def test_src_imports_nothing_unused():
    """Every name a module imports is used in it, so a deletion leaves no
    stale import behind.  ``__init__.py`` imports to re-export, so it is
    exempt, and so are ``__future__`` imports."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in imported - used}
    assert not unused
