"""`src/` stays stdlib-only: every module the package imports is either in
the standard library or ``ffactors`` itself."""

import ast
import subprocess
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


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names that one top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {node.id for target in targets if target is not None
            for node in ast.walk(target) if isinstance(node, ast.Name)}


def test_src_defines_no_unreferenced_private_name():
    """Every module-level private name defined in ``src/`` is referenced
    somewhere in ``src/`` outside its own definition, so a deletion leaves
    no dead helper behind."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = _defined_names(stmt)
            defined |= {(path.name, name) for name in own
                        if name.startswith("_") and not name.startswith("__")}
            used |= {
                node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute)
                or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            } - own
    assert defined
    assert not {(module, name) for module, name in defined if name not in used}


_REIMPORT = """
import gc, importlib, sys, weakref
importlib.import_module("ffactors.cli")
old = [weakref.ref(value) for name, module in sys.modules.items() if name.startswith("ffactors.")
       for value in vars(module).values()
       if callable(value) and getattr(value, "__module__", None) == name]
for name in [name for name in sys.modules if name.startswith("ffactors")]:
    del sys.modules[name]
importlib.import_module("ffactors.cli")
gc.collect()
print(len(old), sum(ref() is not None for ref in old))
"""


def test_reimport_frees_the_old_package():
    """A fresh import, as the benchmark makes before each of its set-ups,
    frees every function and class of the old one: no cache outside the
    package, such as typing's cache of subscripted aliases, holds one."""
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True,
                          check=True)
    defined, alive = map(int, proc.stdout.split())
    assert defined > 50 and alive == 0
