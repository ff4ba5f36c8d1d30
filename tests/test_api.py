"""The public names of the package and the import edges between its routes."""

import ast
import collections
from pathlib import Path

import pytest

import ringnet


def test_every_public_name_imports_once():
    repeated = [name for name, count in collections.Counter(ringnet.__all__).items()
                if count > 1]
    assert repeated == []
    missing = [name for name in ringnet.__all__ if not hasattr(ringnet, name)]
    assert missing == []


def _imported_modules(module):
    """The ringnet modules that ``module`` imports anywhere in its source,
    function bodies included, in relative or absolute form."""
    tree = ast.parse((Path(ringnet.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = ("ringnet" + (f".{node.module}" if node.module else "")
                      if node.level else node.module or "")
            names = ([f"ringnet.{alias.name}" for alias in node.names]
                     if source == "ringnet" else [source])
        else:
            continue
        found.update(name.split(".")[1] for name in names
                     if name.startswith("ringnet."))
    return found


# The three routes are trusted when they agree, so none may borrow another's
# numbers: the series machinery never uses quadrature or Monte Carlo,
# quadrature never uses the series machinery or Monte Carlo, and Monte Carlo
# never uses an analytic route.
FORBIDDEN_IMPORTS = {"fourier": {"quadrature", "montecarlo"},
                     "quadrature": {"fourier", "montecarlo"},
                     "montecarlo": {"fourier", "quadrature"},
                     "kernels": {"fourier", "quadrature", "montecarlo"}}


@pytest.mark.parametrize("module", sorted(FORBIDDEN_IMPORTS))
def test_routes_do_not_import_each_other(module):
    imported = _imported_modules(module)
    # the parse sees the routes' relative imports of the kernels module,
    # which itself imports no ringnet module at all
    assert "kernels" in imported or module == "kernels"
    assert imported & FORBIDDEN_IMPORTS[module] == set()
