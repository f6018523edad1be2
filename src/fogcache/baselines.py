"""Independent solvers and oracles used to cross-check the main solver.

Three routes to the same answers, deliberately different in mechanism:

* :func:`projected_gradient_solve` — a first-order method with backtracking,
  standing in for a generic convex solver; it must land on the same optimum.
* :func:`grid_bruteforce` — exhaustive scan over the scalar hit ratio, the
  master oracle for the optimal download time (the objective depends on the
  placement only through that scalar).
* :func:`qp_projection_oracle` — exact projection for small instances by
  brute-force enumeration of KKT active sets, cross-checking the main
  solver's dual Newton projection (which projected gradient shares).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .admm import ConstraintSystem, IterationRecord, project_feasible
from .heuristic import echr_csl
from .model import Placement
from .objective import adt_curve, adt_slope, echr, require_equal_sizes

__all__ = [
    "BaselineConfig",
    "PgdResult",
    "projected_gradient_solve",
    "grid_bruteforce",
    "qp_projection_oracle",
]


@dataclass(frozen=True)
class BaselineConfig:
    """Projected-gradient knobs.

    The step rule is backtracking Armijo (initial step, shrink factor,
    sufficient-decrease constant) unless ``fixed_step`` is set; ``tol`` is a
    threshold on the gradient-mapping norm ``||p - proj(p - t grad)|| / t``.
    """

    step_init: float = 1.0
    shrink: float = 0.5
    sufficient_decrease: float = 1e-4
    fixed_step: float | None = None
    tol: float = 1e-8
    max_iter: int = 5000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.fixed_step is None:
            if not (self.step_init > 0 and 0 < self.shrink < 1 and self.sufficient_decrease > 0):
                raise ValueError("invalid backtracking parameters")
        elif not self.fixed_step > 0:
            raise ValueError("fixed_step must be positive")


@dataclass(frozen=True, eq=False)
class PgdResult:
    """Projected-gradient outcome; trace rows match the main solver's schema
    (the residual columns carry the step displacement and the
    gradient-mapping norm)."""

    placement: Placement
    echr: float
    adt: float
    iterations: int
    converged: bool
    trace: list


def projected_gradient_solve(scenario, config=None):
    """Minimize the overall download time by projected gradient descent.

    Iterates ``p <- proj(p - t * grad D(p))`` with Armijo backtracking on the
    objective, stopping when the gradient-mapping norm drops below ``tol``.
    The problem is convex with a unique optimal value, so this provides an
    independent route to the optimum of the main solver.
    """
    config = BaselineConfig() if config is None else config
    require_equal_sizes(scenario.library)
    library, cluster, traffic = scenario.library, scenario.cluster, scenario.traffic
    constraints = ConstraintSystem.build(library, cluster)
    popularity = library.popularity

    def objective_of(matrix):
        h = min(max(float(popularity @ matrix.sum(axis=0)), 0.0), 1.0)
        return adt_curve(h, traffic)

    p = np.zeros((cluster.node_count, library.count))
    value = objective_of(p)
    trace = []
    converged = False
    k = 0
    for k in range(1, config.max_iter + 1):
        h = min(max(float(popularity @ p.sum(axis=0)), 0.0), 1.0)
        gradient = adt_slope(h, traffic) * popularity[np.newaxis, :]
        if config.fixed_step is not None:
            step = config.fixed_step
            candidate = project_feasible(p - step * gradient, constraints)
            candidate_value = objective_of(candidate)
        else:
            step = config.step_init
            while True:
                candidate = project_feasible(p - step * gradient, constraints)
                candidate_value = objective_of(candidate)
                displacement_sq = float(np.sum((candidate - p) ** 2))
                if (
                    candidate_value
                    <= value - config.sufficient_decrease * displacement_sq / step + 1e-15
                ):
                    break
                step *= config.shrink
                if step < 1e-16:
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

    return PgdResult(
        placement=Placement(p),
        echr=min(max(echr(p, library), 0.0), 1.0),
        adt=value,
        iterations=k,
        converged=converged,
        trace=trace,
    )


def grid_bruteforce(scenario, resolution):
    """Scan the feasible hit-ratio range and return ``(h_best, adt_best)``.

    Evaluates the download-time curve on the grid ``{0, d, 2d, ...}`` capped
    at the smaller of 1 and the storage-limited bound — exactly the hit
    ratios some feasible placement can realize.  With a fine ``resolution``
    this is the desk-scale master oracle for the optimal objective.
    """
    resolution = float(resolution)
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    require_equal_sizes(scenario.library)
    h_csl, _ = echr_csl(scenario.library, scenario.cluster)
    cap = min(1.0, h_csl)
    count = int(np.floor(cap / resolution + 1e-12))
    grid = np.arange(count + 1) * resolution
    grid = grid[grid <= cap + 1e-15]
    values = adt_curve(grid, scenario.traffic)
    index = int(np.argmin(values))
    return float(grid[index]), float(values[index])


def _box_patterns(n):
    """All assignments of {free, lo, hi} to n coordinates, as an int array."""
    return np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.int8)


def qp_projection_oracle(x, constraints):
    """Exact Euclidean projection for small instances, by KKT enumeration.

    Enumerates every candidate active set — a box state per coordinate (free,
    pinned at 0, pinned at 1) crossed with every subset of the linear rows
    treated as equalities — solves each reduced KKT system in a batch, keeps
    the candidates passing feasibility and multiplier-sign checks, and
    returns the one closest to ``x``.  The unique projection always appears
    among candidates with linearly independent active rows, so singular
    systems are safely skipped.

    Exponential by construction: allowed only for ``N*F <= 12``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    n = flat.size
    if n > 12:
        raise ValueError(f"active-set enumeration is limited to 12 variables, got {n}")
    if n != constraints.n_nodes * constraints.n_contents:
        raise ValueError("x does not match the constraint system")
    c_rows, u = constraints.stacked()
    n_rows = c_rows.shape[0]

    patterns = _box_patterns(n)
    free = patterns == 0
    w = np.where(free, flat[np.newaxis, :], np.where(patterns == 2, 1.0, 0.0))
    free_counts = free.sum(axis=1)

    tol = 1e-9
    best_dist = np.inf
    best_z = None
    for row_bits in range(2**n_rows):
        row_mask = np.array([(row_bits >> r) & 1 for r in range(n_rows)], dtype=bool)
        active = c_rows[row_mask]
        u_active = u[row_mask]
        r = active.shape[0]
        if r == 0:
            pat, ctm, z = patterns, np.zeros((patterns.shape[0], n)), w
            mu_ok = np.ones(patterns.shape[0], dtype=bool)
        else:
            # Fewer free coordinates than active rows makes the reduced
            # system exactly singular; drop those patterns up front.
            eligible = free_counts >= r
            if not np.any(eligible):
                continue
            patterns_el, free_el, w_el = patterns[eligible], free[eligible], w[eligible]
            gram = np.einsum("aj,pj,bj->pab", active, free_el.astype(float), active)
            rhs = w_el @ active.T - u_active[np.newaxis, :]
            dets = np.abs(np.linalg.det(gram))
            scale = np.maximum(1.0, np.abs(gram).reshape(gram.shape[0], -1).max(axis=1)) ** r
            solvable = dets > 1e-12 * scale
            if not np.any(solvable):
                continue
            mu = np.linalg.solve(gram[solvable], rhs[solvable][..., np.newaxis])[..., 0]
            residual = np.abs(np.einsum("pab,pb->pa", gram[solvable], mu) - rhs[solvable])
            clean = residual.max(axis=1) <= 1e-7 * (1.0 + np.abs(rhs[solvable]).max(axis=1))
            pat = patterns_el[solvable]
            ctm = mu @ active
            z = w_el[solvable] - free_el[solvable] * ctm
            mu_ok = clean & np.all(mu >= -tol, axis=1)
        ok = mu_ok & _kkt_box_ok(pat, ctm, flat, tol) & _feasible_ok(z, c_rows, u, tol)
        if not np.any(ok):
            continue
        dist = np.sum((z - flat[np.newaxis, :]) ** 2, axis=1)
        local = int(np.argmin(np.where(ok, dist, np.inf)))
        if dist[local] < best_dist:
            best_dist = float(dist[local])
            best_z = z[local].copy()

    if best_z is None:
        raise ValueError("no KKT candidate passed; the constraint system may be infeasible")
    return best_z.reshape(x.shape)


def _kkt_box_ok(patterns, ctm, flat, tol):
    """Multiplier signs for pinned coordinates.

    With ``z_j = x_j - (C^T mu)_j`` on free coordinates, pinning at 0 needs
    ``(C^T mu)_j >= x_j`` and pinning at 1 needs ``x_j - (C^T mu)_j >= 1``,
    up to tolerance.
    """
    lo = patterns == 1
    hi = patterns == 2
    lo_ok = np.all(np.where(lo, ctm >= flat[np.newaxis, :] - tol, True), axis=1)
    hi_ok = np.all(np.where(hi, flat[np.newaxis, :] - ctm >= 1.0 - tol, True), axis=1)
    return lo_ok & hi_ok


def _feasible_ok(z, c_rows, u, tol):
    box_ok = np.all((z >= -tol) & (z <= 1.0 + tol), axis=1)
    rows_ok = np.all(z @ c_rows.T <= u[np.newaxis, :] + tol, axis=1)
    return box_ok & rows_ok
