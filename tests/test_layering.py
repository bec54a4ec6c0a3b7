"""The package's modules form layers, and no module imports one above it.

The model layer is ``materials`` <- ``em`` <- ``settling``, ``rldb``; the map layer
is ``geometry`` <- ``scene`` <- ``tracer``, ``demo``. ``identify`` reads both layers,
``cli`` reads everything, and the package's ``__init__`` re-exports the layers.
Imports are read with the standard library's ``ast``, function-level ones included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "raymat"

MODEL = {"materials", "em", "settling", "rldb"}
MAP = {"geometry", "scene", "tracer", "demo"}
# each module, and the modules beneath it that it may import
BENEATH = {
    "materials": set(),
    "em": {"materials"},
    "settling": {"materials", "em"},
    "rldb": {"materials", "em"},
    "geometry": set(),
    "scene": {"geometry"},
    "tracer": {"geometry", "scene"},
    "demo": {"geometry", "scene"},
    "identify": MODEL | MAP,
    "cli": MODEL | MAP | {"identify"},
    "__init__": MODEL | MAP | {"identify"},
    "__main__": MODEL | MAP | {"identify", "cli"},
}


def _imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, by relative or absolute name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = ("raymat." * bool(node.level) + (node.module or "")).strip(".").split(".")
            if path[0] == "raymat":
                found.update([path[1]] if len(path) > 1 else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("raymat."))
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(BENEATH)


def test_the_layers_are_an_order():
    """A module sees everything beneath what it imports, and never itself."""
    for module, beneath in BENEATH.items():
        assert module not in beneath
        for lower in beneath:
            assert BENEATH[lower] <= beneath, (module, lower)


@pytest.mark.parametrize("module", sorted(BENEATH))
def test_no_module_imports_a_layer_above_it(module):
    assert _imports(module) <= BENEATH[module]
