"""Operator-splitting solver for the optimal cache placement problem.

The problem minimizes the overall download time ``D`` over placements
subject to box bounds, per-content totals at most 1, and per-node capacity.
``D`` reads a placement only through the hit ratio ``h = popularity . y``,
where ``y`` holds the content totals (the column sums), and the totals that
feasible placements reach are exactly ``{0 <= y <= 1, sizes . y <= total
capacity}``.  So the solver, and the projected-gradient cross-check, work on
``y`` alone, a 1 x F matrix under the one pooled capacity, and place the
answer on the nodes by first-fit at the end.

Splitting duplicates the variable — an unconstrained copy ``p`` carrying the
smooth objective and a feasible copy ``z`` carrying the constraints — and
alternates three steps with a scaled dual ``theta``:

* **p-update**: minimize ``D(p) + rho/2 ||p - (z - theta)||^2``.  ``D``
  touches ``p`` only through the scalar hit ratio ``h = c . p`` (``c`` being
  the popularity vector), so the minimizer is ``v - (D'(h*) / rho) c``
  where the scalar ``h*`` solves a strictly increasing one-dimensional
  equation — found by safeguarded Newton/bisection instead of any inner
  iterative solver.
* **z-update**: exact Euclidean projection of ``p + theta`` onto the pooled
  set, by semismooth Newton on its dual over the one pooled capacity
  multiplier.  Consecutive projections differ little, so each starts from
  the multiplier the previous one ended on.
* **dual update**: ``theta += p - z``.

:func:`project_feasible` itself takes any node count: over the N per-node
multipliers of an N x F placement (each Newton step projects every content
column in closed form after a sort) it is the exact projection onto the
full feasible set that the tests check against an independent oracle.

Iteration stops on the projected-gradient cross-check's test, a relative
Frank–Wolfe gap of the feasible iterate ``z`` that bounds its relative gap
to the optimum, with ``rho`` adapted by relative residual balancing; the
first-fit placement of ``z`` is the answer.  Both solvers read one
:class:`SolverConfig` and return one :class:`SolveResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._roots import increasing_root
from .model import FogCluster, Placement, _check_count, _check_positive
from .heuristic import _assign_first_fit, echr_csl
from .objective import _clamped_echr, _derivatives, _relative_fw_gap, adt_curve, stable_echr_interval

__all__ = [
    "ConstraintSystem",
    "IterationRecord",
    "SolveResult",
    "SolverConfig",
    "p_update",
    "project_feasible",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of :func:`solve` and of
    :func:`~fogcache.baselines.projected_gradient_solve`, named as the CLI
    flags are: ``tol`` bounds the relative Frank–Wolfe gap of the feasible
    iterate, which bounds its relative gap to the optimal download time, and
    ``max_iter`` caps the iterations.  A capped run of either solver returns
    the best feasible iterate it saw, flagged ``converged=False``.  ADMM's
    augmented-Lagrangian weight is not a knob: :func:`solve` works it out
    from the scenario.  On the reference scenario of the tests the defaults
    take 21 iterations of :func:`solve` and 10 of projected gradient.
    """

    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        _check_positive("tol", self.tol)
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

    ``placement`` is first-fit on the nodes, with at most ``F + N - 1``
    nonzero entries; ``echr`` and ``adt`` are its own.  ``trace`` holds one
    :class:`IterationRecord` per iteration run, on the content totals.  In
    projected gradient's trace the residual columns carry the step
    displacement and the relative Frank–Wolfe gap.
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
    The solvers build the one-node system of the pooled capacity
    (:func:`_pooled_constraints`), N = 1.
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


def project_feasible(x, constraints, duals):
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

    ``duals`` is a float array of the N capacity multipliers: the ascent
    starts from it, clipped to the box, and it is overwritten with the
    multipliers the ascent ends on.  ``np.zeros(N)`` is a cold start; solvers
    that project a slowly moving point pass the same array to every call,
    and the result is the same projection to the stopping tolerance.  The
    ascent runs with sizes and capacities divided by a power of two near the
    largest size, so its tolerance and multiplier box hold in any unit.

    ``x`` is an (N, F) matrix, and so is the result; any other shape raises
    ``ValueError``.
    """
    y = np.asarray(x, dtype=float)
    sizes, capacities = constraints.sizes, constraints.capacities
    n, f = capacities.size, sizes.size
    if y.shape != (n, f):
        raise ValueError(f"expected a matrix of shape ({n}, {f}): {n} nodes x {f} contents")
    if np.shape(duals) != (n,):
        raise ValueError(f"expected {n} capacity multipliers")
    # A power of two keeps the round trip of ``mu`` through ``duals`` exact.
    unit = 2.0 ** np.floor(np.log2(sizes.max()))
    sizes, capacities = sizes / unit, capacities / unit
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
    mu = np.minimum(np.maximum(duals * unit, 0.0), upper)
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
    duals[:] = mu / unit
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
    Newton finds it to 1e-12.  ``z``, ``theta`` and the result are matrices
    of one shape, one column per content and one row per node: ``c``
    replicates the popularity vector once per row, so ``c . v`` is the
    popularity times the column sums of ``v`` and ``||c||^2`` is the row
    count times the popularity's squared norm.  The solvers pass one row,
    the pooled content totals; ``scenario`` supplies the popularity and the
    traffic, and its node count does not enter.  The root finder stays
    inside the stable interval, so the residual skips the stability check.
    Matrices of another shape raise ``ValueError``.
    """
    _check_positive("rho", rho)
    z = np.asarray(z, dtype=float)
    theta = np.asarray(theta, dtype=float)
    popularity = scenario.library.popularity
    f = popularity.size
    if z.ndim != 2 or z.shape[1] != f or theta.shape != z.shape:
        raise ValueError(
            f"expected two matrices of one shape with {f} columns, one per content: "
            f"got {z.shape} and {theta.shape}"
        )
    v = z - theta
    cv = float(popularity @ v.sum(axis=0))
    c_sq_over_rho = z.shape[0] * float(popularity @ popularity) / rho
    traffic = scenario.traffic

    def residual(h):
        slope, curvature = _derivatives(h, traffic)
        return h - cv + slope * c_sq_over_rho, 1.0 + curvature * c_sq_over_rho

    h_star = increasing_root(residual, *stable_echr_interval(traffic))
    return v - (_derivatives(h_star, traffic)[0] / rho) * popularity


def _pooled_constraints(library, cluster):
    """The one-node system of the content totals: the cluster's capacities
    pooled into ``cluster.total_capacity``.

    ``D`` reads a placement only through ``h = popularity . y``, with ``y``
    its column sums, and the totals of the feasible placements are exactly
    ``{0 <= y <= 1, sizes . y <= total capacity}``:
    :func:`~fogcache.heuristic._assign_first_fit` places any such ``y`` on
    the nodes.  So both solvers iterate on ``y``, a 1 x F matrix, and hand
    back its first-fit placement.
    """
    return ConstraintSystem.build(library, FogCluster([cluster.total_capacity]))


#: Residual balancing scales ``rho`` by ``_RHO_FACTOR`` when one relative
#: residual exceeds the other ``_BALANCE_RATIO`` times.
_BALANCE_RATIO = 10.0
_RHO_FACTOR = 2.0


def solve(scenario, config=SolverConfig()):
    """Run the splitting iteration on a scenario.

    Iterates on the content totals ``y`` (a 1 x F matrix) under the pooled
    capacity (:func:`_pooled_constraints`): starts from zero and repeats the
    three updates until the relative Frank–Wolfe gap of the feasible
    iterate ``z``, projected gradient's stopping test, is at most
    ``config.tol``; ``config`` is a :class:`SolverConfig`, whose default
    projected gradient takes too.  That gap bounds the relative gap to the
    optimum in any unit of time without reading it, so ``converged=True``
    is a certificate and the iteration an independent check.

    ``rho`` starts at ``|D'(0)| * ||popularity||**2``, which is
    ``|D'(0)| ||c||^2`` on the one row of totals; no setting overrides it.
    The p-update moves every total by ``(D'(h) / rho) * popularity``, so at
    that start a step at the initial slope ``D'(0)`` shifts the hit ratio by
    one, the width of its feasible range; the start scales with the unit of
    time as ``D`` does.  Every station's ``d'(0) = 1/mu_e - mu_b/(mu_b -
    lam)**2`` is negative under ``lam < mu_b < mu_e``, so the start is finite
    and positive.  After an unconverged iteration ``rho`` is balanced on the
    unit-free relative residuals ``r = ||p - z|| / max(||p||, ||z||)`` and
    ``s = ||z - z_old|| / ||theta||`` (``rho`` cancels from the dual
    residual ``rho ||z - z_old||`` over the dual ``rho theta``): when one
    exceeds the other tenfold, ``rho`` is doubled (``r`` ahead) or halved
    (``s`` ahead) and ``theta`` rescaled inversely.  No tolerance enters
    this relative residual balancing (Wohlberg 2017).

    Returns a :class:`SolveResult` whose placement is the first-fit
    placement of the feasible iterate ``z`` (``p`` may sit tolerance-level
    outside the constraints; downstream consumers need feasibility, so ``z``
    is the one handed back — recorded choice).  A capped run places the best
    feasible iterate it saw, flagged ``converged=False``.  Either way
    ``iterations`` counts the iterations run, one per trace record, which
    holds the objective of ``z``, ``||p - z||`` and ``rho ||z - z_old||``.
    """
    library, traffic = scenario.library, scenario.traffic
    constraints = _pooled_constraints(library, scenario.cluster)
    h_csl = echr_csl(library, scenario.cluster)

    z = np.zeros((1, library.count))
    theta = np.zeros_like(z)

    trace = []
    best_objective, best_z = np.inf, z
    converged = False
    popularity = library.popularity
    rho = abs(float(_derivatives(0.0, traffic)[0])) * float(popularity @ popularity)
    duals = np.zeros(1)
    for k in range(1, config.max_iter + 1):
        p = p_update(z, theta, scenario, rho)
        z_old = z
        z = project_feasible(p + theta, constraints, duals)
        theta = theta + (p - z)
        primal = float(np.linalg.norm(p - z))
        change = float(np.linalg.norm(z - z_old))
        h = _clamped_echr(z, library)
        objective = adt_curve(h, traffic)
        trace.append(IterationRecord(k, objective, primal, rho * change))
        if objective < best_objective:
            best_objective, best_z = objective, z
        if _relative_fw_gap(h, _derivatives(h, traffic)[0], objective, h_csl) <= config.tol:
            converged = True
            break
        # r > 10 s and s > 10 r multiplied out, so a zero denominator reads
        # as an infinite ratio: rho falls while theta is 0 and z moves.
        primal_scale = max(float(np.linalg.norm(p)), float(np.linalg.norm(z)))
        dual_scale = float(np.linalg.norm(theta))
        if primal * dual_scale > _BALANCE_RATIO * change * primal_scale:
            rho, theta = rho * _RHO_FACTOR, theta / _RHO_FACTOR
        elif change * primal_scale > _BALANCE_RATIO * primal * dual_scale:
            rho, theta = rho / _RHO_FACTOR, theta * _RHO_FACTOR

    return _placed_result(z if converged else best_z, scenario, trace, converged)


def _placed_result(totals, scenario, trace, converged):
    """The :class:`SolveResult` of a solver's feasible 1 x F iterate
    ``totals``: its first-fit placement on the nodes, whose columns sum to
    ``totals`` exactly (:func:`_exact_columns`), with the hit ratio and
    download time read from that placement.  So ``adt`` is both
    ``overall_adt(placement, scenario).overall`` and the objective that the
    trace recorded for the iterate, and no split of the capacity over the
    nodes can change it."""
    totals = totals[0]
    library = scenario.library
    placement = _assign_first_fit(totals, library, scenario.cluster)
    placement = Placement(_exact_columns(placement.matrix, totals))
    h = _clamped_echr(placement, library)
    return SolveResult(
        placement=placement, echr=h, adt=adt_curve(h, scenario.traffic),
        iterations=len(trace), converged=converged, trace=trace,
    )


def _exact_columns(matrix, totals):
    """``matrix`` with column ``f`` summing to ``totals[f]`` exactly.

    First-fit cuts each content's portion out of differences of cumulative
    sizes, so a column can miss its total by rounding.  Here every entry is
    capped at its total and rounded to a multiple of the total's ulp, the
    running sums down each column are capped at the total, and the column's
    last nonzero entry (the last row, for a column left empty) takes what
    remains.  Every running sum is then a multiple of that ulp no larger
    than the total, hence exact in any order; entries move by rounding only,
    and no entry turns nonzero except in an empty column.
    """
    unit = np.spacing(totals)
    pieces = np.round(np.minimum(matrix, totals) / unit) * unit
    reached = np.minimum(np.cumsum(pieces, axis=0), totals)
    rows = np.arange(matrix.shape[0])[:, np.newaxis]
    last = matrix.shape[0] - 1 - np.argmax(matrix[::-1] > 0.0, axis=0)
    reached = np.where(rows >= last, totals, reached)
    return np.diff(reached, axis=0, prepend=0.0)
