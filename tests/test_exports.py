"""The package's public names: every entry of an ``__all__`` resolves,
importing the package stays light, and JSON is written in one place."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import primeplm

MODULES = [primeplm] + [
    importlib.import_module(f"primeplm.{info.name}")
    for info in pkgutil.iter_modules(primeplm.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(module, name)] == []


# every addition to or removal from the package's API shows up here
PUBLIC_API = [
    "AveragedFit", "CvMatrix", "DesignMatrix", "FitDiagnostics", "ImputationDiagnostics",
    "KernelConfig", "MR_PARAMS_60", "MR_PARAMS_85", "MethodMetrics", "MetricsReport",
    "ModelStructure", "NormalizationMap", "ObservationTable", "PrimeFit",
    "ReplicationRecord", "SIM_COLUMNS", "SIM_STRUCTURE", "ScenarioConfig", "SplineSpec",
    "TRUE_BETA", "__version__", "apply_missing_scenario1", "apply_missing_scenario2",
    "assemble_design", "basis_matrix", "build_candidates", "build_cv_matrix",
    "build_pattern_index", "cc_design", "complete_case_subset", "cv_weights",
    "draw_directions", "estimate_g", "fit_cc", "fit_mean_impute", "fit_prime",
    "fit_prime_ma", "gen_covariates", "gen_errors", "impute", "load_csv", "load_fit",
    "load_structure", "make_spec", "minmax_normalize", "predict", "predict_averaged",
    "run_study", "save_fit", "sigma_for_r2", "solve_least_squares", "true_mean", "write_csv",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(primeplm.__all__) == PUBLIC_API


# the package star-imports these modules, so a name listed by two of them
# would silently resolve to the later one
REEXPORTED = ["dataset", "kernel_impute", "model_averaging", "prime_fit", "simulation", "spline"]


def test_package_reexports_each_module_all_once():
    lists = [importlib.import_module(f"primeplm.{name}").__all__ for name in REEXPORTED]
    union = [name for exported in lists for name in exported]
    assert len(union) == len(set(union)), "a name is listed by two modules"
    assert sorted(["__version__", *union]) == sorted(primeplm.__all__)


# scipy takes most of the package's import time: code that needs one of its
# modules imports it where it is used, so predict, report and fits on
# complete tables never load it
PROBE = """
import sys
import numpy as np
import primeplm, primeplm.cli
print(" ".join(sorted(sys.modules)))
rng = np.random.default_rng(0)
x, eps = rng.normal(size=(50, 8)), rng.normal(size=50)
masks = [
    primeplm.apply_missing_scenario1(x, eps, primeplm.MR_PARAMS_60, rng),
    primeplm.apply_missing_scenario2(x, primeplm.MR_PARAMS_60, rng),
]
assert all(m.shape == x.shape and m.dtype == bool for m in masks)
print(" ".join(sorted(sys.modules)))
"""


def test_import_loads_no_heavy_scipy_module():
    src = str(pathlib.Path(primeplm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    imported, drawn = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert {"primeplm", "primeplm.cli"} <= set(imported.split())
    assert [m for m in imported.split() if m.startswith("scipy")] == []
    # simulated missingness loads scipy.special for ndtr, and nothing spatial
    assert "scipy.special" in drawn.split()
    assert [m for m in drawn.split() if m.startswith("scipy.spatial")] == []


class _JsonCalls(ast.NodeVisitor):
    """The enclosing ``module.function`` of every json.dump/json.dumps call,
    and of every import of those names from json."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
                and isinstance(f.value, ast.Name) and f.value.id == "json"):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "json" and {a.name for a in node.names} & {"dump", "dumps"}:
            self.found.append(".".join(self.scope))


def test_json_is_written_by_one_function():
    # _write_json builds the whole text before it opens the file, so a value
    # JSON cannot hold leaves no partial file; a second writer might not
    found = []
    for path in sorted(pathlib.Path(primeplm.__file__).parent.glob("*.py")):
        visitor = _JsonCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert found == ["prime_fit._write_json"]
