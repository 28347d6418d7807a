"""Every name a package module imports is used in the scope that imports it, and
no package module imports an underscore name from another: a private name is
used only in the module that defines it."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "ellipse_phase"
MODULES = sorted(p.name for p in PACKAGE_DIR.glob("*.py"))


def read_names(tree: ast.AST) -> set[str]:
    """The names a tree reads, those in quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= read_names(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """"line: name" of each imported name that its scope, module or function, never reads.

    An import under `if TYPE_CHECKING:` belongs to the module, so the
    annotations that name it count as its uses.
    """
    tree = ast.parse(source)
    scope_of = {}
    # ast.walk is breadth-first, so an inner function overrides the scopes around it
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
        for node in ast.walk(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                scope_of[node] = scope
    unused = []
    for node, scope in scope_of.items():
        if getattr(node, "module", None) == "__future__":
            continue
        used = read_names(scope)
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(unused)]


def test_guard_flags_an_unused_import():
    source = "from .errors import Value, set_field\n\ndef f():\n    import math\n    return Value\n"
    assert unused_imports(source) == ["1: set_field", "4: math"]


def private_imports(source: str) -> list[str]:
    """"line: module.name" of each underscore name imported from another package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.startswith("ellipse_phase"):
            found += [(node.lineno, f"{module}.{a.name}") for a in node.names if a.name[0] == "_"]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_guard_flags_a_private_import():
    source = (
        "from .lattice import SNAP_TOL, _shell_arrays\nimport numpy._core\n\n"
        "def f():\n    from ellipse_phase.weierstrass import _point_blocks\n"
        "    from . import _private\n"
    )
    assert private_imports(source) == [
        "1: lattice._shell_arrays", "5: ellipse_phase.weierstrass._point_blocks", "6: ._private"
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_import_across_modules(module):
    assert private_imports((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []
