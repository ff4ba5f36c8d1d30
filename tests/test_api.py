"""The public names of the package and the import edges between its routes."""

import ast
import collections
import importlib
import re
from pathlib import Path

import pytest

import ringnet


def test_every_public_name_imports_once():
    repeated = [name for name, count in collections.Counter(ringnet.__all__).items()
                if count > 1]
    assert repeated == []
    missing = [name for name in ringnet.__all__ if not hasattr(ringnet, name)]
    assert missing == []


PUBLIC_NAMES = [
    "AntipodalChainCount", "ChainCounts", "CircleModel", "CosineSeries",
    "CostBudgetError", "DimensionError", "EstimateUndefinedError", "FourierSeries",
    "GraphSample", "IntegrationResult", "KernelValidationError", "McEstimate",
    "ProductKernel", "QuadratureError", "SeparationHistogram", "TorusModel",
    "UncertainValue", "UniformWindow", "ZeroMeanDegreeWarning", "__version__",
    "antipodal_chain_count_uniform", "chain_count_in_sample", "chain_count_leading",
    "chain_count_one", "chain_count_result", "chain_count_torus",
    "chain_count_torus_grid", "chain_count_two", "chain_count_uniform",
    "clustering_from_series", "clustering_result", "clustering_torus_grid",
    "clustering_uniform", "discrete_chain_count", "discrete_mean_degree",
    "empirical_clustering", "empirical_separation_histogram", "estimate_chain_counts",
    "estimate_clustering", "estimate_mean_degree", "estimate_separation_histograms",
    "kernel_from_config", "kernel_to_config", "mean_degree", "model_from_config",
    "model_to_config", "sample_graph", "separation_in_sample", "trial_seed",
    "uniform_window_series", "validate", "wrap_angle",
]


def test_public_names_are_exactly_these():
    assert sorted(ringnet.__all__) == PUBLIC_NAMES


# Each result has one entry point: the float and one-case forms of the
# result-returning and plural functions, and the drivers that nothing
# called, are gone from the package and from their modules.
REMOVED_NAMES = {
    "fourier": ["_leading_bracket"],
    "montecarlo": ["estimate_chain_count", "estimate_separation_histogram",
                   "run_trials"],
    "quadrature": ["chain_count_by_quadrature", "clustering_by_quadrature",
                   "integrate_periodic"],
}


@pytest.mark.parametrize("module", sorted(REMOVED_NAMES))
def test_removed_names_stay_removed(module):
    source = importlib.import_module(f"ringnet.{module}")
    for name in REMOVED_NAMES[module]:
        assert not hasattr(ringnet, name), name
        assert not hasattr(source, name), name


def _names_from_ringnet(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "ringnet"
            and not node.level for alias in node.names}


def test_demos_and_quickstart_import_public_names():
    # a parse, so that a stale demo or README fails here rather than in the
    # demo runs of test_demos.py, which start fresh processes
    root = Path(__file__).resolve().parents[1]
    sources = {path.name: path.read_text() for path in sorted(root.glob("demos/*.py"))}
    (sources["README quickstart"],) = re.findall(
        r"## Library quickstart\n\n```python\n(.*?)```",
        (root / "README.md").read_text(), flags=re.S)
    for where, source in sources.items():
        imported = _names_from_ringnet(source)
        assert imported, where
        assert sorted(imported - set(ringnet.__all__)) == [], where


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
