"""The public API: every annotation of a public function or constructor resolves.

Every import of the package's modules, at module level or in a function, is used, or exported by ``__all__``.
Only ``units`` writes a record's slots. Each rule that several modules apply has one home: only ``materials`` and
``core`` read a salt record's masses, number density and lattice edge, and only ``units`` reads the double range.
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


def _slot_writes(path: Path) -> list[str]:
    """Each read of ``_setters`` and each ``__new__`` call but a namedtuple's ``tuple.__new__``, in line order:
    outside units, such code would write a record's slots that ``_Record._fill`` and ``_Record._of`` alone write."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "_setters":
            found.append((node.lineno, "_setters"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
              and ast.unparse(node.func) != "tuple.__new__"):
            found.append((node.lineno, ast.unparse(node.func)))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", [path for path in sorted(SOURCE.glob("*.py")) if path.name != "units.py"],
                         ids=lambda path: path.name)
def test_only_units_writes_a_records_slots(path):
    assert _slot_writes(path) == []


def test_a_slot_write_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import collections\n\nP = collections.namedtuple('P', 'x')\n\n\ndef f(cls, record):\n"
                    "    made = object.__new__(cls)\n    record._setters[0](record, 1)\n"
                    "    return made, Record.__new__(Record), tuple.__new__(P, (1,))\n")
    assert _slot_writes(path) == ["module.py:7: object.__new__", "module.py:8: _setters", "module.py:9: Record.__new__"]


# attribute -> the modules that may read it: a salt record's floats, which core._salt_operands turns into the
# formulas' operands, and the double range, which units binds once as _SMALLEST_NORMAL and _LARGEST
HOMES = {**dict.fromkeys(("cation_kg", "anion_kg", "per_m3", "edge"), ("materials.py", "core.py")),
         "float_info": ("units.py",)}


def _reads_outside_their_home(path: Path) -> list[str]:
    """Each read of an attribute that HOMES keeps in other modules, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted((node.lineno, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and path.name not in HOMES.get(node.attr, (path.name,)))
    return [f"{path.name}:{line}: {attr}" for line, attr in found]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_each_rule_is_read_only_in_its_home(path):
    assert _reads_outside_their_home(path) == []


def test_a_read_outside_its_home_is_found(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("import sys\n\n\ndef f(record, cation_kg):\n    edge = record._si.edge\n"
                    "    return cation_kg, edge, record.name, sys.float_info.max, record.per_m3\n")
    assert _reads_outside_their_home(path) == ["cli.py:5: edge", "cli.py:6: float_info", "cli.py:6: per_m3"]
    home = tmp_path / "core.py"
    home.write_text(path.read_text())
    assert _reads_outside_their_home(home) == ["core.py:6: float_info"]
