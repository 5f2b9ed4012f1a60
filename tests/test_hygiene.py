"""Static hygiene of the package source.

Every name a module of ``derived_brackets`` imports must be referenced in
that module: a refactor that moves code between modules otherwise leaves
stale imports behind.  ``__init__.py`` is skipped, because its imports are
the package's re-exported API (``__all__`` is built from them).
"""

import ast
import os

import derived_brackets

PACKAGE_DIR = os.path.dirname(os.path.abspath(derived_brackets.__file__))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    modules = sorted(
        f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py") and f != "__init__.py"
    )
    assert "graded.py" in modules and "qgeom.py" in modules
    unused = []
    for filename in modules:
        with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        used = _referenced_names(tree)
        for name, line in sorted(_imported_names(tree).items()):
            if name not in used:
                unused.append(f"{filename}:{line}: {name}")
    assert unused == []
