"""Independent cross-checks of the main solver.

Two routes to the same optimum, deliberately different in mechanism:

* :func:`projected_gradient_solve` — a labelled cross-check: spectral
  projected gradient, a first-order method that must land on the same
  optimum as the splitting solver, and returns the same
  :class:`~fogcache.admm.SolveResult` under the same
  :class:`~fogcache.admm.SolverConfig`.  It stops, as the splitting solver
  does, on a Frank–Wolfe gap that bounds its relative distance to the
  optimum, so ``converged=True`` is a certificate.
* :func:`grid_bruteforce` — exhaustive scan over the scalar hit ratio, the
  master oracle for the optimal download time (the objective depends on the
  placement only through that scalar).

Both read the storage bound :func:`~fogcache.heuristic.echr_csl`: the grid
as the top of its range, projected gradient for its stopping test.
"""

from __future__ import annotations

import numpy as np

from .admm import (
    IterationRecord,
    SolverConfig,
    _placed_result,
    _pooled_constraints,
    project_feasible,
)
from .heuristic import echr_csl
from .model import _check_positive
from .objective import _clamped_echr, _feasible_adt, _relative_fw_gap, adt_curve, adt_slope

__all__ = [
    "projected_gradient_solve",
    "grid_bruteforce",
]

#: Spectral step of :func:`projected_gradient_solve`: the Barzilai–Borwein
#: step ``s.s / s.y`` is at least ``_MIN_STEP`` and at most the cap
#: ``_MAX_MOVE / max|g|``, at which ``p - step * g`` moves no entry more than
#: ``_MAX_MOVE`` box widths; it is the cap where ``s.y <= 0``.  Entries are
#: fractions in [0, 1], so the cap holds in any unit.
_MIN_STEP = 1e-10
_MAX_MOVE = 1e5
#: Armijo search along the projected direction ``d``: halve ``t`` until
#: ``D(p + t d)`` is at most ``D(p) + _SUFFICIENT_DECREASE * t * grad.d``.
_SHRINK = 0.5
_SUFFICIENT_DECREASE = 1e-4


def projected_gradient_solve(scenario, config=SolverConfig()):
    """Minimize the overall download time by spectral projected gradient.

    Like the splitting solver it works on the content totals ``p``, a 1 x F
    matrix under the pooled capacity, and returns their first-fit placement
    on the nodes.  Each iteration projects ``p - a * grad D(p)`` once,
    warm-started from the capacity multiplier of the projection before it,
    and searches along the direction ``d`` from ``p`` to that point with a
    monotone Armijo backtrack.  The first ``a`` is ``1 / max|grad|``, which
    moves the largest entry one box width in any unit, later ones the
    Barzilai–Borwein step (the SPG method of Birgin, Martínez & Raydan
    2000).

    The gradient is ``D'(h)`` times the popularity, so the linear
    minimisation over the feasible set is the storage knapsack,
    :func:`~fogcache.heuristic.echr_csl`.  The run stops once the relative
    Frank–Wolfe gap, which bounds the relative gap to the optimum by
    convexity (Jaggi 2013), is at most ``tol``: ``converged=True`` certifies
    that gap without reading the optimum.  A capped run places the best
    feasible iterate it saw, flagged ``converged=False``: under a monotone
    search that is the last.  The splitting solver reads the same
    :class:`~fogcache.admm.SolverConfig` and stops on the same test, but the
    iterations share only the projection, so this stays an independent route
    to the optimum, returned in the same
    :class:`~fogcache.admm.SolveResult`.  Its trace records the relative
    Frank–Wolfe gap as ``dual_residual``.
    """
    library, traffic = scenario.library, scenario.traffic
    constraints = _pooled_constraints(library, scenario.cluster)
    h_csl = echr_csl(library, scenario.cluster)
    p = np.zeros((1, library.count))
    duals = np.zeros(1)
    value = _feasible_adt(p, scenario)
    # Not 0, since ``D'(0) < 0`` under ``lam < mu_b < mu_e``.
    gradient = adt_slope(0.0, traffic) * library.popularity
    step = 1.0 / float(np.max(np.abs(gradient)))
    trace = []
    converged = False
    for k in range(1, config.max_iter + 1):
        direction = project_feasible(p - step * gradient, constraints, duals) - p
        descent = float(np.sum(gradient * direction))
        t = 1.0
        while True:
            candidate = p + t * direction
            candidate_value = _feasible_adt(candidate, scenario)
            if candidate_value <= value + _SUFFICIENT_DECREASE * t * descent:
                break
            t *= _SHRINK
            if t < _MIN_STEP:
                # The iterate is numerically stationary; accept as is.
                candidate, candidate_value = p, value
                break
        h = _clamped_echr(candidate, library)
        slope = float(adt_slope(h, traffic))
        new_gradient = slope * library.popularity
        displacement = candidate - p
        curvature = float(np.sum(displacement * (new_gradient - gradient)))
        p, value, gradient = candidate, candidate_value, new_gradient
        gap = _relative_fw_gap(h, slope, value, h_csl)
        trace.append(IterationRecord(k, value, float(np.linalg.norm(displacement)), gap))
        if gap <= config.tol:
            converged = True
            break
        # A zero slope is a zero gap, so the gradient is not 0 here.
        longest = _MAX_MOVE / float(np.max(np.abs(gradient)))
        step = (
            min(max(float(np.sum(displacement**2)) / curvature, _MIN_STEP), longest)
            if curvature > 0.0
            else longest
        )

    return _placed_result(p, scenario, trace, converged)


def grid_bruteforce(scenario, resolution):
    """Scan the feasible hit-ratio range and return ``(h_best, adt_best)``.

    Evaluates the download-time curve on the grid ``{0, d, 2d, ...}`` capped
    at the storage-limited bound :func:`~fogcache.heuristic.echr_csl` —
    exactly the hit ratios some feasible placement can realize.  With a fine
    ``resolution`` this is the desk-scale master oracle for the optimal
    objective.
    """
    resolution = float(resolution)
    _check_positive("resolution", resolution)
    cap = echr_csl(scenario.library, scenario.cluster)
    count = int(np.floor(cap / resolution + 1e-12))
    grid = np.arange(count + 1) * resolution
    grid = grid[grid <= cap + 1e-15]
    values = adt_curve(grid, scenario.traffic)
    index = int(np.argmin(values))
    return float(grid[index]), float(values[index])
