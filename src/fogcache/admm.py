"""Operator-splitting solver for the optimal cache placement problem.

The problem minimizes the overall download time ``D`` over placements
subject to box bounds, per-content totals at most 1, and per-node capacity.
Splitting duplicates the variable — an unconstrained copy ``p`` carrying the
smooth objective and a feasible copy ``z`` carrying the constraints — and
alternates three steps with a scaled dual ``theta``:

* **p-update**: minimize ``D(p) + rho/2 ||p - (z - theta)||^2``.  ``D``
  touches ``p`` only through the scalar hit ratio ``h = c . p`` (``c`` being
  the popularity vector replicated per node), so the minimizer is
  ``v - (D'(h*) / rho) c`` where the scalar ``h*`` solves a strictly
  increasing one-dimensional equation — found by safeguarded Newton/bisection
  instead of any inner iterative solver.
* **z-update**: exact Euclidean projection of ``p + theta`` onto the
  feasible set, by semismooth Newton on its dual over the N per-node
  capacity multipliers (each Newton step projects every content column in
  closed form after a sort).  Consecutive projections differ little, so
  each starts from the multipliers the previous one ended on.
* **dual update**: ``theta += p - z``.

Iteration stops on the usual primal/dual residual thresholds, with ``rho``
adapted by residual balancing; the feasible iterate ``z`` is the placement.
The :class:`SolveResult` it comes in is also what the projected-gradient
cross-check returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._roots import increasing_root
from .model import Placement, _check_count
from .objective import _clamped_echr, _curvature_at, _feasible_adt, _slope_at, stable_echr_interval

__all__ = [
    "AdmmConfig",
    "ConstraintSystem",
    "IterationRecord",
    "SolveResult",
    "p_update",
    "project_feasible",
    "solve",
]


@dataclass(frozen=True)
class AdmmConfig:
    """Solver knobs.

    ``rho`` is the initial augmented-Lagrangian weight; :func:`solve` then
    adapts it by residual balancing.  On the reference scenario of the tests
    the default 1.0 takes 91 iterations and 0.02 takes 19; initial values
    from 1e-3 to 100 all converge.  ``eps_abs``/``eps_rel`` enter the
    standard residual stopping rules.
    """

    rho: float = 1.0
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iter: int = 1000

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise ValueError("tolerances must be positive")
        _check_count("max_iter", self.max_iter, 1)


class IterationRecord(NamedTuple):
    """One trace row: the CSV schema of the convergence export."""

    k: int
    objective: float
    primal_residual: float
    dual_residual: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solution bundle of :func:`solve` and of
    :func:`~fogcache.baselines.projected_gradient_solve`: the feasible
    placement plus convergence evidence.

    ``trace`` holds one :class:`IterationRecord` per iteration run.  In
    projected gradient's trace the residual columns carry the step
    displacement and the gradient-mapping norm.
    """

    placement: Placement
    echr: float
    adt: float
    iterations: int
    converged: bool
    trace: list


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """The linear part of the feasible set: content ``sizes`` and node ``capacities``.

    Over a node-major vector of length N*F, ``a`` (F x N*F) sums each
    content's entries, bounded by ``a_u`` (all ones), and ``b`` (N x N*F)
    weighs each node's entries by size, bounded by ``b_u`` (the
    capacities).  These dense rows are built on demand, never stored: the
    solvers read only the two vectors, and the views' only readers are the
    benchmark's tracer, which sizes them, and ``TestConstraintSystem``.
    """

    sizes: np.ndarray
    capacities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=float))
        object.__setattr__(self, "capacities", np.asarray(self.capacities, dtype=float))

    @classmethod
    def build(cls, library, cluster):
        return cls(sizes=library.sizes, capacities=cluster.capacities)

    @property
    def a(self):
        return np.tile(np.eye(self.sizes.size), (1, self.capacities.size))

    @property
    def a_u(self):
        return np.ones(self.sizes.size)

    @property
    def b(self):
        return np.kron(np.eye(self.capacities.size), self.sizes)

    @property
    def b_u(self):
        return self.capacities


#: Caps of the projection's Newton ascent and of each backtracking search.
#: Neither is reached in practice; reaching one ends the ascent early, and
#: the result is still made feasible.
_NEWTON_MAX_STEPS = 100
_BACKTRACK_MAX_HALVINGS = 40
#: How far past 1 a projected column may sum before it is scaled back: well
#: above the rounding of a sum over the nodes, well below FEASIBILITY_TOL.
_COLUMN_SLACK = 1e-12


def _project_columns(y, sizes, mu):
    """Minimizer over the box and per-content rows of the Lagrangian at ``mu``.

    Column ``f`` is the projection of ``w = y[:, f] - sizes[f] * mu`` onto
    ``{0 <= z <= 1, sum(z) <= 1}``.  Where clipping ``w`` to the box keeps
    the sum within 1, the clipped column is the projection.  Elsewhere the
    sum row is active, and the column is the projection onto the simplex,
    ``max(w - tau, 0)`` with ``sum = 1``, whose entries cannot exceed 1:
    sorting ``w`` gives ``tau`` in closed form (Held, Wolfe and Crowder
    1974; Condat 2016).  Returns the placement and the shifts ``tau`` (0
    where the per-content row is slack).
    """
    w = y - mu[:, np.newaxis] * sizes
    z = np.clip(w, 0.0, 1.0)
    over = z.sum(axis=0) > 1.0
    shifts = np.zeros(y.shape[1])
    if np.any(over):
        w_over = w[:, over]
        ranked = -np.sort(-w_over, axis=0)
        # Candidate j assumes the top j + 1 entries stay positive; tau is the
        # last candidate that its own entry still exceeds.
        ranks = np.arange(1.0, w.shape[0] + 1.0)[:, np.newaxis]
        candidates = (ranked.cumsum(axis=0) - 1.0) / ranks
        kept = np.count_nonzero(ranked > candidates, axis=0)
        shifts[over] = candidates[kept - 1, np.arange(kept.size)]
        z[:, over] = np.maximum(w_over - shifts[over], 0.0)
    return z, shifts


def _dual_hessian(z, shifts, size_sq):
    """Generalized Hessian of the negated dual, ``-d2 g / d mu2``.

    Entry ``(i, f)`` moves with ``mu_i`` only while strictly inside the box;
    a column whose per-content row is active redistributes each move over
    its free entries.  So column ``f`` adds ``size_f**2 (D_f - a_f a_f^T /
    |a_f|)``, with ``a_f`` its free-entry indicator and ``D_f = diag(a_f)``.
    """
    free = ((z > 0.0) & (z < 1.0)).astype(float)
    count = free.sum(axis=0)
    active = (shifts > 0.0) & (count > 0.0)
    weight = np.where(active, size_sq / np.maximum(count, 1.0), 0.0)
    return np.diag(free @ size_sq) - (free * weight) @ free.T


def project_feasible(x, constraints, duals=None):
    """Euclidean projection onto the feasible placement set.

    Exact, through the dual over the N per-node capacity multipliers
    ``mu >= 0``.  For a fixed ``mu`` the problem separates by content
    (:func:`_project_columns`, a sort-based simplex step per column), and
    the dual ``g(mu)`` is concave and piecewise quadratic with gradient
    ``Z(mu) @ sizes - capacities``.  A projected semismooth Newton ascent
    with Armijo backtracking maximizes it over a box that must contain the
    maximizer; its generalized Hessian is regularized in proportion to the
    projected gradient, because it is singular whenever a per-content row is
    active at ``mu`` but slack at the solution, or a node holds nothing.  On
    each quadratic piece Newton is exact, so the iteration ends on the
    solution's piece after a handful of steps.

    ``duals``, optional, is a float array of the N capacity multipliers:
    the ascent starts from it, clipped to the box, instead of from zero, and
    it is overwritten with the multipliers the ascent ends on.  Solvers that
    project a slowly moving point pass the same array to every call; the
    result is the same projection to the stopping tolerance.

    ``x`` is an (N, F) matrix, and so is the result; any other shape raises
    ``ValueError``.
    """
    y = np.asarray(x, dtype=float)
    sizes, capacities = constraints.sizes, constraints.capacities
    n, f = capacities.size, sizes.size
    if y.shape != (n, f):
        raise ValueError(f"expected a matrix of shape ({n}, {f}): {n} nodes x {f} contents")
    if duals is not None and np.shape(duals) != (n,):
        raise ValueError(f"expected {n} capacity multipliers")
    size_sq = sizes * sizes
    # Node loads are sums of F terms of magnitude up to the capacity.
    tol = 1e-12 * max(1.0, float(capacities.max()))
    # Past ``y[i, f] / sizes[f]`` for every ``f`` node i holds nothing and the
    # dual cannot rise as ``mu_i`` grows, so a maximizer lies below this
    # bound; keeping ``mu`` there stops Newton overshooting into that flat
    # region, where its steps would be short.
    upper = np.maximum(np.max(y / sizes, axis=1), 0.0)

    def evaluate(mu):
        z, shifts = _project_columns(y, sizes, mu)
        gradient = z @ sizes - capacities
        gap = z - y
        return z, shifts, gradient, 0.5 * float(np.vdot(gap, gap)) + float(mu @ gradient)

    # Not ``np.clip``: the benchmark's tracer counts each call of it in this
    # module as one dual evaluation (the clip in :func:`_project_columns`).
    mu = np.zeros(n) if duals is None else np.minimum(np.maximum(duals, 0.0), upper)
    z, shifts, gradient, value = evaluate(mu)
    for _ in range(_NEWTON_MAX_STEPS):
        ascent = np.minimum(np.maximum(mu + gradient, 0.0), upper) - mu
        stationarity = float(np.max(np.abs(ascent)))
        if stationarity <= tol:
            break
        # Multipliers at a bound with a gradient pushing into it stay there;
        # the rest take the regularized Newton step.
        moving = ((mu > 0.0) | (gradient >= 0.0)) & ((mu < upper) | (gradient <= 0.0))
        direction = np.zeros(n)
        hessian = _dual_hessian(z, shifts, size_sq)[np.ix_(moving, moving)]
        # The ridge vanishes with the projected gradient, keeping Newton fast
        # near the solution; along a flat direction it limits the step to
        # about the span of the multiplier box, which backtracking then cuts.
        ridge = stationarity / max(1.0, float(upper.max())) * np.eye(hessian.shape[0])
        try:
            direction[moving] = np.linalg.solve(hessian + ridge, gradient[moving])
        except np.linalg.LinAlgError:
            # Far outside the set (next to saturation) the ridge can vanish
            # against the Hessian; backtracking then cuts the gradient step.
            direction[moving] = gradient[moving]
        step = 1.0
        for _ in range(_BACKTRACK_MAX_HALVINGS):
            trial = np.minimum(np.maximum(mu + step * direction, 0.0), upper)
            z_t, shifts_t, gradient_t, value_t = evaluate(trial)
            # Armijo ascent, with slack for rounding in the dual value.
            gain = 1e-4 * float(gradient @ (trial - mu))
            if value_t >= value + gain - 1e-15 * (1.0 + abs(value)):
                break
            step *= 0.5
        else:
            break  # no ascent left at rounding level
        mu, z, shifts, gradient, value = trial, z_t, shifts_t, gradient_t, value_t
    if duals is not None:
        duals[:] = mu
    # For inputs of about 1e12 and more, ``y - mu * s - shift`` cancels
    # numbers of that size, and a column can exceed 1 by far more than
    # rounding (content 1 of the reference cluster by 2.4e-4).  Scaling such
    # a column down keeps the box and makes the result feasible; it is then
    # not the projection (that case fills the nodes to 90% only).  Ordinary
    # columns, over 1 by a few ulps at most, are left as they are.
    totals = z.sum(axis=0)
    full = totals > 1.0 + _COLUMN_SLACK
    if np.any(full):
        z[:, full] /= totals[full]
    # Within ``tol`` a capacity row may still overshoot; scaling the row down
    # keeps the box and per-content rows and makes the result feasible.
    loads = z @ sizes
    over = loads > capacities
    if np.any(over):
        z[over] *= (capacities[over] / loads[over])[:, np.newaxis]
    return z


def p_update(z, theta, scenario, rho):
    """Exact minimizer of the smooth half-step.

    Minimizes ``D(p) + rho/2 ||p - v||^2`` with ``v = z - theta``.  Writing
    ``h = c . p``, optimality forces ``p = v - (D'(h) / rho) c``, and taking
    the inner product with ``c`` leaves one scalar equation

        r(h) = h - c . v + (D'(h) / rho) ||c||^2 = 0

    whose left side is strictly increasing (``D`` is convex), diverging at
    the stability boundaries — so the root exists, is unique, and safeguarded
    Newton finds it to 1e-12.  ``c`` replicates the popularity vector once
    per node, so ``c . v`` is the popularity times the column sums of ``v``
    and ``||c||^2`` is ``N`` times the popularity's squared norm.  The root
    finder stays inside the stable interval, so the residual skips the
    stability check.  ``z``, ``theta`` and the result are (N, F) matrices;
    any other shape raises ``ValueError``.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    z = np.asarray(z, dtype=float)
    theta = np.asarray(theta, dtype=float)
    popularity = scenario.library.popularity
    n, f = scenario.cluster.node_count, popularity.size
    if z.shape != (n, f) or theta.shape != (n, f):
        raise ValueError(f"expected matrices of shape ({n}, {f}): {n} nodes x {f} contents")
    v = z - theta
    cv = float(popularity @ v.sum(axis=0))
    c_sq_over_rho = n * float(popularity @ popularity) / rho
    traffic = scenario.traffic

    def residual(h):
        return h - cv + _slope_at(h, traffic) * c_sq_over_rho

    def residual_slope(h):
        return 1.0 + _curvature_at(h, traffic) * c_sq_over_rho

    h_star = increasing_root(residual, residual_slope, *stable_echr_interval(traffic))
    return v - (_slope_at(h_star, traffic) / rho) * popularity


#: Residual balancing scales ``rho`` by ``_RHO_FACTOR`` when one normalised
#: residual exceeds the other ``_BALANCE_RATIO`` times.
_BALANCE_RATIO = 10.0
_RHO_FACTOR = 2.0


def solve(scenario, config=None):
    """Run the splitting iteration on a scenario.

    Starts from zero matrices and iterates the three updates until both
    residual thresholds hold:

        ||p - z||        <=  sqrt(N*F) * eps_abs + eps_rel * max(||p||, ||z||)
        rho ||z - z_old||  <=  sqrt(N*F) * eps_abs + eps_rel * rho * ||theta||

    ``rho`` starts at ``config.rho``.  After an unconverged iteration, when
    one residual, relative to its threshold, exceeds the other tenfold,
    ``rho`` is doubled (primal ahead) or halved (dual ahead) and ``theta``
    rescaled inversely, keeping ``rho * theta`` and the dual threshold: the
    relative residual balancing of Wohlberg 2017.  Balancing raw residuals
    (Boyd et al. 2011, section 3.4.1) ignores that the dual threshold binds.

    Returns a :class:`SolveResult` whose placement is the feasible iterate
    ``z`` (``p`` may sit tolerance-level outside the constraints; downstream
    consumers need feasibility, so ``z`` is the one handed back — recorded
    choice).  If the iteration cap is reached, the best-objective iterate
    seen is returned flagged ``converged=False``.  The trace records, per
    iteration, the objective of the feasible iterate and both residuals.
    """
    config = AdmmConfig() if config is None else config
    library, cluster = scenario.library, scenario.cluster
    n, f = cluster.node_count, library.count
    constraints = ConstraintSystem.build(library, cluster)

    z = np.zeros((n, f))
    theta = np.zeros((n, f))
    scale = np.sqrt(n * f)

    trace = []
    best_objective, best_z, best_k = np.inf, z, 0
    converged = False
    rho = config.rho
    duals = np.zeros(n)
    for k in range(1, config.max_iter + 1):
        p = p_update(z, theta, scenario, rho)
        z_old = z
        z = project_feasible(p + theta, constraints, duals)
        theta = theta + (p - z)
        primal = float(np.linalg.norm(p - z))
        dual = float(rho * np.linalg.norm(z - z_old))
        objective = _feasible_adt(z, scenario)
        trace.append(IterationRecord(k, objective, primal, dual))
        if objective < best_objective:
            best_objective, best_z, best_k = objective, z, k
        eps_primal = scale * config.eps_abs + config.eps_rel * max(
            np.linalg.norm(p), np.linalg.norm(z)
        )
        eps_dual = scale * config.eps_abs + config.eps_rel * rho * np.linalg.norm(theta)
        if primal <= eps_primal and dual <= eps_dual:
            converged = True
            break
        if primal * eps_dual > _BALANCE_RATIO * dual * eps_primal:
            rho, theta = rho * _RHO_FACTOR, theta / _RHO_FACTOR
        elif dual * eps_primal > _BALANCE_RATIO * primal * eps_dual:
            rho, theta = rho / _RHO_FACTOR, theta * _RHO_FACTOR

    if not converged and best_z is not z:
        z, objective, k = best_z, best_objective, best_k
    return SolveResult(
        placement=Placement(z), echr=_clamped_echr(z, library), adt=objective,
        iterations=k, converged=converged, trace=trace,
    )
