"""The top-level export list matches what the package binds, and the
module-level names that stay out of it still resolve."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import fogcache


def _load_tracer():
    """``bench/traced_cli.py`` as a module; it imports only the standard
    library at top level."""
    path = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def unresolved():
    """A fresh copy of the package module, none of its exports resolved yet."""
    spec = importlib.util.find_spec("fogcache")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    for name in fogcache.__all__:
        value = getattr(fogcache, name)
        # The object defined in its home module, kept once resolved.
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert vars(fogcache)[name] is value, name


def test_every_public_binding_is_exported():
    # Lazy exports are bound only once used, so the names the package can
    # resolve are its eager bindings plus the lazy map's keys, whatever
    # earlier tests have touched.
    bound = {
        name
        for name, value in vars(fogcache).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert bound | set(fogcache._EXPORTS) == set(fogcache.__all__)


def test_dir_lists_every_export(unresolved):
    assert not set(unresolved.__all__) & set(vars(unresolved))
    assert set(unresolved.__all__) <= set(dir(unresolved))


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from fogcache import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(fogcache.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fogcache.no_such_name
    assert not hasattr(fogcache, "project_feasible")


def test_export_list_is_small_and_unique():
    assert len(fogcache.__all__) <= 25
    assert len(set(fogcache.__all__)) == len(fogcache.__all__)


# Module-level functions and classmethods that bench/traced_cli.py rebinds
# by name to time each layer of a CLI run, read from the tracer itself.
_TRACER = _load_tracer()
TRACED = [(module, name) for module, names in _TRACER.TRACED.items() for name in names]
TRACED_CLASSMETHODS = [
    (module, cls, method)
    for module, pairs in _TRACER.TRACED_CLASSMETHODS.items()
    for cls, method in pairs
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
    ("fogcache.objective", "adt_curvature"),
    ("fogcache.queuesim", "mm1_sojourn_times"),
    ("fogcache.queuesim", "simulate_station"),
]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_is_a_module_level_callable(module, name):
    value = getattr(importlib.import_module(module), name)
    assert inspect.isfunction(value), f"{module}.{name}"


@pytest.mark.parametrize("module, cls, method", TRACED_CLASSMETHODS)
def test_traced_classmethod_is_bound_to_its_class(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert isinstance(inspect.getattr_static(owner, method), classmethod)


@pytest.mark.parametrize("module, name", DEMOTED, ids=[f"{m}.{n}" for m, n in DEMOTED])
def test_demoted_name_lives_in_its_module_only(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert name not in fogcache.__all__


@pytest.mark.parametrize(
    "name", ["AdmmConfig", "BaselineConfig", "adt_curvature", "simulate_mm1"]
)
def test_removed_export_is_an_attribute_error(name, unresolved):
    for module in (fogcache, unresolved):
        with pytest.raises(AttributeError, match=name):
            getattr(module, name)


def test_simulate_mm1_is_gone_from_queuesim():
    # mm1_sojourn_times is the one public way to simulate a single queue.
    queuesim = importlib.import_module("fogcache.queuesim")
    assert "simulate_mm1" not in queuesim.__all__
    assert not hasattr(queuesim, "simulate_mm1")


@pytest.mark.parametrize(
    "module, name", [("fogcache.admm", "AdmmConfig"), ("fogcache.baselines", "BaselineConfig")]
)
def test_removed_config_class_is_gone_from_its_module(module, name):
    # SolverConfig is the one config of both iterative solvers.
    owner = importlib.import_module(module)
    assert name not in owner.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(owner, name)
