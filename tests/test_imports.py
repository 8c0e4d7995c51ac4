"""Every module-level import in the package is used, and none imports
mpmath or numpy.

No linter is part of the toolchain, so this stdlib ``ast`` check keeps
dead imports from piling up.  A name counts as used when it appears as
a name anywhere in the module (annotations included) or is listed in
``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eidothermo"
MODULES = sorted(PACKAGE.glob("*.py"))


def _module_level_imports(tree: ast.Module):
    """(bound name, line) for each import outside functions and classes."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_package_modules_found():
    assert PACKAGE / "oracle.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"line {line}: {name}"
        for name, line in _module_level_imports(tree)
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _imported_modules(tree: ast.Module):
    """(top-level module, line) for every import, in functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_mpmath(path):
    # The package's arithmetic runs on Python integers; mpmath is only the
    # reference of the tests, and the package has no numpy path at all.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [(name, line) for name, line in _imported_modules(tree)
             if name in ("mpmath", "numpy")]
    assert not found, f"{path.name} imports {found}"
