"""Package hygiene: no module imports a name it never uses, and every
name the package exports exists."""

import ast
import pathlib

import milnor

SRC = pathlib.Path(milnor.__file__).resolve().parent


def unused_imports(path):
    """Names bound by import statements in the file and never loaded.
    Attribute chains count through their root name (np.sqrt uses np)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("{}:{} {}".format(path.name, line, name)
                  for name, line in imported.items() if name not in used)


def test_modules_have_no_unused_imports():
    """__init__.py is left out: its imports are the package's re-exports,
    which test_exports_resolve covers."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for p in modules for entry in unused_imports(p)] == []


def test_exports_resolve():
    names = milnor.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(milnor, name)] == []
