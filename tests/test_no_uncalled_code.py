"""Every module-level function and class of raymat, public or private, has a reader
in the program.

A reader is a name, an attribute or an imported name that matches the definition's
name, anywhere in ``src/raymat`` outside the definition itself, in ``perfbench/`` or
in the acceptance suite. Package re-exports in ``raymat/__init__.py`` do not count:
an export is not a caller. The match is by name only, so two definitions that share
a name share their readers. Uses the standard library's ``ast`` and nothing else.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "raymat"

# The scalar reference the array tracer is checked against: tests/oracles.py builds
# its exact trajectories from these two, so they stay without a reader in the program.
ALLOWED = {"geometry.mirror_point", "geometry.ray_plane_parameter"}


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


def _private(definition: str) -> bool:
    return definition.rpartition(".")[2].startswith("_")


def _unread() -> list[str]:
    """module.name of each module-level function or class with no reader."""
    readers: set[str] = set()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _tree(path).body:
            names = _names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a definition does not read itself
                definitions.append(f"{path.stem}.{node.name}")
            readers |= names
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        readers |= _names(_tree(path))
    return [d for d in definitions if d.rpartition(".")[2] not in readers]


def test_every_public_function_and_class_has_a_reader():
    assert sorted(d for d in set(_unread()) - ALLOWED if not _private(d)) == []


def test_every_private_function_and_class_has_a_reader():
    assert sorted(d for d in _unread() if _private(d)) == []


def test_every_allowed_name_is_still_defined_and_unread():
    # an allowance that outlives its reason would hide the next unread function
    assert set(_unread()) & ALLOWED == ALLOWED
