"""The import graph inside the package, read from the source with ast.

The engine (montecarlo) only counts, stats estimates and tests, and the
exact oracle and the statistic algebra in model sit below both. Every
import statement counts, wherever it sits, `if TYPE_CHECKING:` blocks
included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "merminsim"
MODULES = {path.stem for path in SRC.glob("*.py")}

# Each layer and the package modules it may import at run time.
LAYERS = {
    "model": set(),
    "exact": {"model"},
    "montecarlo": {"model"},
    "stats": {"model", "exact"},
}


def _targets(node: ast.AST) -> list[str]:
    """Package modules (by stem) and outside top-level packages an import
    statement loads; the package itself counts as __init__."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level == 0:
        names = [node.module]
    elif node.module is not None:
        names = ["merminsim." + node.module]
    else:
        names = ["merminsim." + alias.name for alias in node.names]
    out = []
    for name in names:
        top, _, rest = name.partition(".")
        if top != "merminsim":
            out.append(top)
        else:
            stem = rest.partition(".")[0]
            out.append(stem if stem in MODULES else "__init__")
    return out


def runtime_imports(module: str) -> set[str]:
    """Every module an import statement of module names, wherever it sits."""
    found: set[str] = set()

    def walk(statements):
        for node in statements:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(_targets(node))
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, []))

    walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")).body)
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_layer_imports_only_the_layers_below(module):
    assert runtime_imports(module) & MODULES <= LAYERS[module]


def test_only_the_engine_imports_numpy():
    assert {module for module in MODULES if "numpy" in runtime_imports(module)} == {
        "montecarlo"
    }


def test_the_cli_sees_every_layer():
    assert set(LAYERS) <= runtime_imports("cli")
