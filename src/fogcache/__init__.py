"""Download-time-optimal content placement for fog-computing cache clusters.

The package models a cluster of cache-equipped base stations serving Zipf-like
content demand, where each request is answered either from the edge cache (a
fast M/M/1 queue) or over the backhaul (a slower one).  It provides:

* the analytic objective — hit ratio, download time, derivatives
  (:mod:`fogcache.objective`);
* a consensus operator-splitting solver for the optimal fractional placement
  (:mod:`fogcache.admm`);
* two independent cross-checks — projected gradient and an exhaustive grid
  over the hit ratio (:mod:`fogcache.baselines`);
* the exact two-regime heuristic — the storage bound, the stationary
  point and the lowest switch threshold, for every traffic profile
  (:mod:`fogcache.heuristic`);
* a seeded discrete-event simulator validating the queueing model
  (:mod:`fogcache.queuesim`);
* a CLI for one-shot solves and reproducible experiment sweeps
  (:mod:`fogcache.cli`).

The top level exports the types and entry points; building blocks such as
``admm.project_feasible``, ``heuristic.lambda_threshold``,
``objective.adt_curvature`` or ``queuesim.mm1_sojourn_times``, the
simulator's single-queue kernel, are imported from their modules.

``import fogcache`` loads none of these modules.  Each export is imported
from its home module on first use (PEP 562) and then kept in the package
namespace, so a command-line run compiles only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

#: Home module of each top-level export.
_HOMES = {
    "admm": ("SolveResult", "SolverConfig", "solve"),
    "baselines": ("grid_bruteforce", "projected_gradient_solve"),
    "errors": ("NumericalError",),
    "heuristic": (
        "HeuristicResult",
        "echr_cpl",
        "echr_csl",
        "heuristic_solve",
        "placement_from_echr",
    ),
    "model": (
        "ContentLibrary",
        "FogCluster",
        "Placement",
        "Scenario",
        "TrafficProfile",
        "validate_scenario",
    ),
    "objective": ("AdtReport", "adt_curve", "adt_slope", "echr", "overall_adt"),
    "queuesim": ("SimConfig", "SimResult", "simulate_cluster"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
