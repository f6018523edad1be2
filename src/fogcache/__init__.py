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
* a closed-form two-regime heuristic with its switch threshold
  (:mod:`fogcache.heuristic`);
* a seeded discrete-event simulator validating the queueing model
  (:mod:`fogcache.queuesim`);
* a CLI for one-shot solves and reproducible experiment sweeps
  (:mod:`fogcache.cli`).

The top level exports the types and entry points; building blocks such as
``admm.project_feasible``, ``heuristic.lambda_threshold`` or
``queuesim.mm1_sojourn_times`` are imported from their modules.
"""

from .admm import AdmmConfig, SolveResult, solve
from .baselines import BaselineConfig, grid_bruteforce, projected_gradient_solve
from .errors import NumericalError
from .heuristic import HeuristicResult, echr_cpl, echr_csl, heuristic_solve, placement_from_echr
from .model import (
    ContentLibrary,
    FogCluster,
    Placement,
    Scenario,
    TrafficProfile,
    validate_scenario,
)
from .objective import (
    AdtReport,
    adt_curvature,
    adt_curve,
    adt_slope,
    echr,
    grad_overall_adt,
    overall_adt,
)
from .queuesim import SimConfig, SimResult, simulate_cluster, simulate_mm1

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AdtReport",
    "BaselineConfig",
    "ContentLibrary",
    "FogCluster",
    "HeuristicResult",
    "NumericalError",
    "Placement",
    "Scenario",
    "SimConfig",
    "SimResult",
    "SolveResult",
    "TrafficProfile",
    "adt_curvature",
    "adt_curve",
    "adt_slope",
    "echr",
    "echr_cpl",
    "echr_csl",
    "grad_overall_adt",
    "grid_bruteforce",
    "heuristic_solve",
    "overall_adt",
    "placement_from_echr",
    "projected_gradient_solve",
    "simulate_cluster",
    "simulate_mm1",
    "solve",
    "validate_scenario",
]
