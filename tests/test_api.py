"""The top-level export list matches what the package binds, and the
module-level names that stay out of it still resolve."""

import importlib
import inspect

import pytest

import fogcache


def test_every_exported_name_resolves():
    for name in fogcache.__all__:
        assert hasattr(fogcache, name), name


def test_every_public_binding_is_exported():
    bound = {
        name
        for name, value in vars(fogcache).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound == set(fogcache.__all__)


def test_export_list_is_small_and_unique():
    assert len(fogcache.__all__) <= 30
    assert len(set(fogcache.__all__)) == len(fogcache.__all__)


# Module-level functions and classmethods that bench/traced_cli.py rebinds
# by name to time each layer of a CLI run.
TRACED = [
    ("fogcache.cli", "main"),
    ("fogcache.admm", "solve"),
    ("fogcache.admm", "p_update"),
    ("fogcache.admm", "project_feasible"),
    ("fogcache._roots", "increasing_root"),
    ("fogcache.objective", "adt_curve"),
    ("fogcache.objective", "adt_slope"),
    ("fogcache.objective", "adt_curvature"),
    ("fogcache.objective", "overall_adt"),
    ("fogcache.model", "validate_placement"),
    ("fogcache.baselines", "projected_gradient_solve"),
    ("fogcache.heuristic", "heuristic_solve"),
    ("fogcache.heuristic", "echr_csl"),
    ("fogcache.heuristic", "placement_from_echr"),
    ("fogcache.queuesim", "mm1_sojourn_times"),
    ("fogcache.queuesim", "simulate_station"),
    ("fogcache.queuesim", "simulate_cluster"),
]

# Names kept at module level but left out of the top-level export.
DEMOTED = [
    ("fogcache.admm", "ConstraintSystem"),
    ("fogcache.admm", "IterationRecord"),
    ("fogcache.admm", "p_update"),
    ("fogcache.admm", "project_feasible"),
    ("fogcache.model", "validate_placement"),
    ("fogcache.model", "zipf_popularity"),
    ("fogcache.heuristic", "lambda_threshold"),
    ("fogcache.queuesim", "mm1_sojourn_times"),
    ("fogcache.queuesim", "simulate_station"),
]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_is_a_module_level_callable(module, name):
    value = getattr(importlib.import_module(module), name)
    assert inspect.isfunction(value), f"{module}.{name}"


@pytest.mark.parametrize(
    "module, cls, method",
    [("fogcache.admm", "ConstraintSystem", "build"), ("fogcache.model", "Scenario", "load")],
)
def test_traced_classmethod_is_bound_to_its_class(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert isinstance(inspect.getattr_static(owner, method), classmethod)


@pytest.mark.parametrize("module, name", DEMOTED, ids=[f"{m}.{n}" for m, n in DEMOTED])
def test_demoted_name_lives_in_its_module_only(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert name not in fogcache.__all__
