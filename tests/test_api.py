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


SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scoped(node, chain=()):
    """Each node below node, with the scopes that enclose it, innermost last."""
    if isinstance(node, SCOPES):
        chain = (*chain, node)
    for child in ast.iter_child_nodes(node):
        yield child, chain
        yield from _scoped(child, chain)


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports in any scope that nothing in that scope uses, apart from those its ``__all__``
    exports. A name used is matched to the innermost enclosing scope, module or function, that imports it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(_scoped(tree))
    imported = {}  # (scope, name) -> line, until a use in the scope is seen
    for node, chain in nodes:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        imported.update(((chain[-1], name), node.lineno) for name in names)
    used = [(node.id, chain) for node, chain in nodes if isinstance(node, ast.Name)]
    if path.name == "__init__.py":
        used += [(name, (tree,)) for name in iondecoh.__all__]
    for name, chain in used:
        scope = next((scope for scope in reversed(chain) if (scope, name) in imported), None)
        imported.pop((scope, name), None)
    return [f"{path.name}:{line}: {name}" for (_, name), line in imported.items()]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_in_every_scope_is_used(path):
    assert _unused_imports(path) == []


def test_an_import_is_matched_against_its_own_scope(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import json\n\n\ndef f():\n    import json\n    return 1\n\n\n"
                    "def g():\n    import json.encoder\n\n    def h():\n        return json.encoder\n\n"
                    "    return h\n\n\ndef k():\n    return json.dumps\n")
    # f's json is unused though g and k use theirs; k's use is the module's
    assert _unused_imports(path) == ["module.py:5: json"]
