"""Download-time-optimal content placement for fog-computing cache clusters.

The package models a cluster of cache-equipped base stations serving Zipf-like
content demand, where each request is answered either from the edge cache (a
fast M/M/1 queue) or over the backhaul (a slower one).  It provides:

* the analytic objective — hit ratio, download time, derivatives
  (:mod:`fogcache.objective`);
* a consensus operator-splitting solver for the optimal fractional placement
  (:mod:`fogcache.admm`);
* independent baselines and oracles — projected gradient, exhaustive grid,
  exact small-instance projection (:mod:`fogcache.baselines`);
* a closed-form two-regime heuristic with its switch threshold
  (:mod:`fogcache.heuristic`);
* a seeded discrete-event simulator validating the queueing model
  (:mod:`fogcache.queuesim`);
* a CLI for one-shot solves and reproducible experiment sweeps
  (:mod:`fogcache.cli`).
"""

from .admm import (
    AdmmConfig,
    AdmmResult,
    AdmmState,
    ConstraintSystem,
    IterationRecord,
    p_update,
    project_feasible,
    solve,
)
from .baselines import (
    BaselineConfig,
    PgdResult,
    grid_bruteforce,
    projected_gradient_solve,
    qp_projection_oracle,
)
from .errors import NumericalError
from .heuristic import (
    HeuristicResult,
    echr_cpl,
    echr_csl,
    heuristic_solve,
    lambda_threshold,
    placement_from_echr,
)
from .model import (
    ContentLibrary,
    FogCluster,
    Placement,
    Scenario,
    TrafficProfile,
    flatten_placement,
    rates_from_link_speeds,
    unflatten_placement,
    validate_placement,
    validate_scenario,
    zipf_popularity,
)
from .objective import (
    AdtReport,
    QueueSplit,
    adt_curvature,
    adt_curve,
    adt_of_echr,
    adt_slope,
    d2_adt_dh2,
    echr,
    grad_overall_adt,
    overall_adt,
    queue_split,
    stable_echr_interval,
)
from .queuesim import (
    SimConfig,
    SimResult,
    mm1_sojourn_times,
    simulate_cluster,
    simulate_mm1,
    simulate_station,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AdmmResult",
    "AdmmState",
    "AdtReport",
    "BaselineConfig",
    "ConstraintSystem",
    "ContentLibrary",
    "FogCluster",
    "HeuristicResult",
    "IterationRecord",
    "NumericalError",
    "PgdResult",
    "Placement",
    "QueueSplit",
    "Scenario",
    "SimConfig",
    "SimResult",
    "TrafficProfile",
    "adt_curvature",
    "adt_curve",
    "adt_of_echr",
    "adt_slope",
    "d2_adt_dh2",
    "echr",
    "echr_cpl",
    "echr_csl",
    "flatten_placement",
    "grad_overall_adt",
    "grid_bruteforce",
    "heuristic_solve",
    "lambda_threshold",
    "mm1_sojourn_times",
    "overall_adt",
    "p_update",
    "placement_from_echr",
    "project_feasible",
    "projected_gradient_solve",
    "qp_projection_oracle",
    "queue_split",
    "rates_from_link_speeds",
    "simulate_cluster",
    "simulate_mm1",
    "simulate_station",
    "solve",
    "unflatten_placement",
    "validate_placement",
    "validate_scenario",
    "zipf_popularity",
]
