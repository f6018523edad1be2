"""Independent cross-checks of the main solver.

Two routes to the same optimum, deliberately different in mechanism:

* :func:`projected_gradient_solve` — a labelled cross-check: a first-order
  method with Armijo backtracking, standing in for a generic convex solver.
  It must land on the same optimum as the splitting solver, and returns the
  same :class:`~fogcache.admm.SolveResult`.  It takes far more iterations
  than the splitting solver (2,734 against 91 at the defaults on the
  reference scenario of the tests), though each projection is warm-started,
  and on storage-limited instances it stops at its iteration cap a little
  above the optimum.
* :func:`grid_bruteforce` — exhaustive scan over the scalar hit ratio, the
  master oracle for the optimal download time (the objective depends on the
  placement only through that scalar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import ConstraintSystem, IterationRecord, SolveResult, project_feasible
from .heuristic import echr_csl
from .model import Placement, _check_count
from .objective import _clamped_echr, _feasible_adt, adt_curve, adt_slope

__all__ = [
    "BaselineConfig",
    "projected_gradient_solve",
    "grid_bruteforce",
]

#: Armijo backtracking of :func:`projected_gradient_solve`: each iteration
#: tries the step ``1 / max(1, max|grad|)`` first, so no trial moves an entry
#: by more than the box width, and halves it until the objective falls by at
#: least ``_SUFFICIENT_DECREASE * ||p_new - p||**2 / step``.
_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4


@dataclass(frozen=True)
class BaselineConfig:
    """Projected-gradient stopping rule.

    ``tol`` is a threshold on the gradient-mapping norm
    ``||p - proj(p - t grad)|| / t``; ``max_iter`` caps the iterations, and
    reaching it returns the last iterate flagged ``converged=False``.
    """

    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        _check_count("max_iter", self.max_iter, 1)


def projected_gradient_solve(scenario, config=None):
    """Minimize the overall download time by projected gradient descent.

    Iterates ``p <- proj(p - t * grad D(p))`` with Armijo backtracking on the
    objective, stopping when the gradient-mapping norm drops below ``tol``.
    Each projection, Armijo trials included, starts from the capacity
    multipliers the one before it ended on.
    The problem is convex with a unique optimal value, so this provides an
    independent route to the optimum of the main solver, returned in the
    same :class:`~fogcache.admm.SolveResult`.
    """
    config = BaselineConfig() if config is None else config
    library, cluster = scenario.library, scenario.cluster
    constraints = ConstraintSystem.build(library, cluster)
    p = np.zeros((cluster.node_count, library.count))
    duals = np.zeros(cluster.node_count)
    value = _feasible_adt(p, scenario)
    trace = []
    converged = False
    k = 0
    for k in range(1, config.max_iter + 1):
        # Equal for every node, so one row broadcasts over the matrix.
        gradient = adt_slope(_clamped_echr(p, library), scenario.traffic) * library.popularity
        scale = max(1.0, float(np.max(np.abs(gradient))))
        step = 1.0 / scale
        while True:
            candidate = project_feasible(p - step * gradient, constraints, duals)
            candidate_value = _feasible_adt(candidate, scenario)
            displacement_sq = float(np.sum((candidate - p) ** 2))
            if candidate_value <= value - _SUFFICIENT_DECREASE * displacement_sq / step + 1e-15:
                break
            step *= _SHRINK
            if step * scale < 1e-16:
                # The iterate is numerically stationary; accept as is.
                candidate, candidate_value = p, value
                break
        mapping_norm = float(np.linalg.norm(candidate - p)) / step
        displacement = float(np.linalg.norm(candidate - p))
        p, value = candidate, candidate_value
        trace.append(IterationRecord(k, value, displacement, mapping_norm))
        if mapping_norm <= config.tol:
            converged = True
            break

    return SolveResult(
        placement=Placement(p), echr=_clamped_echr(p, library), adt=value,
        iterations=k, converged=converged, trace=trace,
    )


def grid_bruteforce(scenario, resolution):
    """Scan the feasible hit-ratio range and return ``(h_best, adt_best)``.

    Evaluates the download-time curve on the grid ``{0, d, 2d, ...}`` capped
    at the storage-limited bound :func:`~fogcache.heuristic.echr_csl` —
    exactly the hit ratios some feasible placement can realize.  With a fine
    ``resolution`` this is the desk-scale master oracle for the optimal
    objective.
    """
    resolution = float(resolution)
    if not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    cap = echr_csl(scenario.library, scenario.cluster)
    count = int(np.floor(cap / resolution + 1e-12))
    grid = np.arange(count + 1) * resolution
    grid = grid[grid <= cap + 1e-15]
    values = adt_curve(grid, scenario.traffic)
    index = int(np.argmin(values))
    return float(grid[index]), float(values[index])
