"""The public API: every annotation of a public function or constructor resolves.

Every import of the package's modules, at module level or in a function, is used, or exported by ``__all__``.
"""

import ast
import inspect
import typing
from pathlib import Path

import pytest

import iondecoh

CALLABLES = [name for name in iondecoh.__all__ if callable(getattr(iondecoh, name))]


@pytest.mark.parametrize("name", CALLABLES)
def test_type_hints_resolve(name):
    obj = getattr(iondecoh, name)
    # a class's hints are its attributes'; its constructor's are its arguments'
    typing.get_type_hints(obj.__init__ if inspect.isclass(obj) else obj)


SOURCE = Path(iondecoh.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports in any scope and never uses, apart from those its ``__all__`` exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used.update(iondecoh.__all__)
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_in_every_scope_is_used(path):
    assert _unused_imports(path) == []
