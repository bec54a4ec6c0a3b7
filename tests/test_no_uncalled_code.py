"""Every module-level function and class of raymat, public or private, every
public method and property of its classes, and every field declared in a class
body has a reader in the program.

A reader is a name, an attribute or an imported name that matches the definition's
name, anywhere in ``src/raymat`` outside the definition itself, in ``perfbench/`` or
in the acceptance suite. Package re-exports in ``raymat/__init__.py`` do not count:
an export is not a caller. The match is by name only, so two definitions that share
a name share their readers. A method that overrides one of a base class (such as an
``argparse.ArgumentParser`` hook) is called by the base class and needs no reader.
A field (``name: type`` in a class body, as a dataclass declares it) needs an
attribute read ``x.name`` in the same places, its own module included: a keyword
that builds the object or an ``object.__setattr__`` that stores it is not a read.
Definitions are found with the standard library's ``ast``; only the override check
imports raymat.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "raymat"

ALLOWED = {
    # The scalar reference the array tracer is checked against: tests/oracles.py builds
    # its exact trajectories from these two, so they stay without a reader in the program.
    "geometry.mirror_point",
    "geometry.ray_plane_parameter",
    # tests/oracles.py builds its reference trajectories with this field
    "tracer.Trajectory.segment_lengths",
    # part of a key's identity: its hash, its equality and the attrgetter sort key
    "identify.RPKey.cell",
}


def _names(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _outside() -> list[Path]:
    """The readers outside the package: perfbench/ and the acceptance suite."""
    return [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _private(definition: str) -> bool:
    return definition.rpartition(".")[2].startswith("_")


def _unread() -> list[str]:
    """module.name of each module-level function or class, and module.Class.name of
    each method or property, with no reader."""
    readers: set[str] = set()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _tree(path).body:
            names = _names(node)
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                rest = [*node.decorator_list, *node.bases, *node.keywords]
                rest += [s for s in node.body if s not in methods]
                # a method does not read itself either
                names = set().union(*map(_names, rest), *(_names(m) - {m.name} for m in methods))
                definitions += [f"{path.stem}.{node.name}.{m.name}" for m in methods]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a definition does not read itself
                definitions.append(f"{path.stem}.{node.name}")
            readers |= names
    for path in _outside():
        readers |= _names(_tree(path))
    return [d for d in definitions if d.rpartition(".")[2] not in readers]


def _unread_fields() -> list[str]:
    """module.Class.name of each field declared in a class body that no attribute read names."""
    package = sorted(PACKAGE.glob("*.py"))
    fields = [
        f"{path.stem}.{node.name}.{line.target.id}"
        for path in package
        for node in _tree(path).body
        if isinstance(node, ast.ClassDef)
        for line in node.body
        if isinstance(line, ast.AnnAssign) and isinstance(line.target, ast.Name)
    ]
    reads = {
        node.attr
        for path in [*package, *_outside()]
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [f for f in fields if f.rpartition(".")[2] not in reads]


def _module_level(definition: str) -> bool:
    return definition.count(".") == 1


def _overrides(method: str) -> bool:
    """Whether module.Class.name overrides a method of one of the class's bases."""
    module, cls, name = method.split(".")
    owner = getattr(importlib.import_module(f"raymat.{module}"), cls)
    return any(name in vars(base) for base in owner.__mro__[1:])


def test_every_public_function_and_class_has_a_reader():
    assert sorted(d for d in set(_unread()) - ALLOWED if _module_level(d) and not _private(d)) == []


def test_every_private_function_and_class_has_a_reader():
    assert sorted(d for d in _unread() if _module_level(d) and _private(d)) == []


def test_every_public_method_and_property_has_a_reader():
    methods = [d for d in _unread() if not _module_level(d) and not _private(d)]
    assert [d for d in methods if not _overrides(d)] == []


def test_every_field_has_a_reader():
    assert sorted(set(_unread_fields()) - ALLOWED) == []


def test_every_allowed_name_is_still_defined_and_unread():
    # an allowance that outlives its reason would hide the next unread function or field
    assert set(_unread() + _unread_fields()) & ALLOWED == ALLOWED
