"""Operator-splitting solver for the optimal cache placement problem.

The problem minimizes the overall download time ``D`` over placements
subject to box bounds, per-content totals at most 1, and per-node capacity.
``D`` reads a placement only through the hit ratio ``h = popularity . y``,
where ``y`` holds the content totals (the column sums), and the totals that
feasible placements reach are exactly ``{0 <= y <= 1, sizes . y <= total
capacity}``, the pooled set (:class:`ConstraintSystem`).  So the solver, and
the projected-gradient cross-check, work on ``y`` alone, a vector of F
totals, and place the answer on the nodes by first-fit at the end.

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
  set, by a breakpoint search over its one capacity multiplier
  (:func:`project_feasible`).
* **dual update**: ``theta += p - z``.

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
from .model import Placement, _check_count, _check_positive
from .heuristic import _assign_first_fit, echr_csl
from .objective import (
    _clamp_to_unit, _clamped_echr, _derivatives, _relative_fw_gap, adt_curve, stable_echr_interval,
)

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
    nonzero entries and columns equal bit for bit to the F content totals
    that the solver iterates; ``echr`` and ``adt`` are its own.  ``trace``
    holds one :class:`IterationRecord` per iteration run, on those totals.
    In projected gradient's trace the
    residual columns carry the step displacement and the relative
    Frank–Wolfe gap.
    """

    placement: Placement
    echr: float
    adt: float
    iterations: int
    converged: bool
    trace: list


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """The pooled set ``{0 <= y <= 1, sizes . y <= capacity}`` of content totals.

    :meth:`build` pools the cluster's capacities into one ``capacity``, its
    total.  Over the F totals, ``a`` (the F x F identity) bounds each total
    by ``a_u`` (all ones), and ``b`` (``sizes`` as a 1 x F row) weighs them
    by size, bounded by ``b_u`` (``[capacity]``).  These dense rows are
    built on demand, never stored: :func:`project_feasible` reads only
    ``sizes`` and ``capacity``, and the views' only readers are the
    benchmark's tracer, which sizes them, and ``TestConstraintSystem``.
    """

    sizes: np.ndarray
    capacity: float

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=float))
        object.__setattr__(self, "capacity", float(self.capacity))

    @classmethod
    def build(cls, library, cluster):
        return cls(sizes=library.sizes, capacity=cluster.total_capacity)

    @property
    def a(self):
        return np.eye(self.sizes.size)

    @property
    def a_u(self):
        return np.ones(self.sizes.size)

    @property
    def b(self):
        return self.sizes.reshape(1, -1)

    @property
    def b_u(self):
        return np.array([self.capacity])


def project_feasible(y, constraints):
    """Euclidean projection onto the pooled set ``{0 <= y <= 1, sizes . y <= C}``.

    Exact, through the one capacity multiplier ``mu >= 0``: the projection
    is ``clip(v - mu * sizes, 0, 1)`` with ``mu = 0`` if that fits, else the
    ``mu`` at which its load, ``sizes`` times it, is ``C``.  The load is
    piecewise linear and non-increasing in ``mu``, with breakpoints ``v_f /
    s_f`` and ``(v_f - 1) / s_f``, and 0 past the largest; a binary search
    over the sorted positive breakpoints brackets ``C``, and linear
    interpolation inside the bracket is exact (Held, Wolfe & Crowder 1974;
    Kiwiel 2008).  A load that rounding leaves over ``C`` is scaled down.
    No tolerance and no iteration cap enter.

    ``y`` is a vector of F content totals, and so is the result;
    ``constraints`` is the pooled :class:`ConstraintSystem` of size F and
    capacity ``C``.  Any other shape raises ``ValueError``.
    """
    sizes, capacity = constraints.sizes, constraints.capacity
    v = _totals(y, sizes.size)

    def clipped(mu):
        # The benchmark's tracer counts these ``np.clip`` calls as load evaluations.
        z = np.clip(v - mu * sizes, 0.0, 1.0)
        return z, float(sizes @ z)

    z, load = clipped(0.0)
    if load > capacity:
        breaks = np.concatenate([v / sizes, (v - 1.0) / sizes])
        breaks = np.sort(breaks[breaks > 0.0])
        # Invariant: load(mu_lo) > C >= load(breaks[hi]), taken as 0 at the top.
        lo, hi, mu_lo, load_lo, load_hi = -1, breaks.size - 1, 0.0, load, 0.0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            _, load_mid = clipped(breaks[mid])
            if load_mid > capacity:
                lo, mu_lo, load_lo = mid, breaks[mid], load_mid
            else:
                hi, load_hi = mid, load_mid
        mu = mu_lo + (load_lo - capacity) / (load_lo - load_hi) * (breaks[hi] - mu_lo)
        z, load = clipped(mu)
        if load > capacity:
            z *= capacity / load
    return z


def _totals(y, count):
    """``y`` as a float vector of ``count`` content totals, or ``ValueError``."""
    v = np.asarray(y, dtype=float)
    if v.shape != (count,):
        raise ValueError(f"expected a vector of {count} content totals: got shape {v.shape}")
    return v


def p_update(z, theta, scenario, rho):
    """Exact minimizer of the smooth half-step.

    Minimizes ``D(p) + rho/2 ||p - v||^2`` with ``v = z - theta``.  Writing
    ``h = c . p``, optimality forces ``p = v - (D'(h) / rho) c``, and taking
    the inner product with ``c`` leaves one scalar equation

        r(h) = h - c . v + (D'(h) / rho) ||c||^2 = 0

    whose left side is strictly increasing (``D`` is convex), diverging at
    the stability boundaries — so the root exists, is unique, and safeguarded
    Newton finds it to 1e-12.  ``z``, ``theta`` and the result are vectors
    of F content totals, and ``c`` is the popularity vector, so ``c . v`` is
    ``popularity @ v`` and ``||c||^2`` the popularity's squared norm;
    ``scenario`` supplies the popularity and the traffic, and its node
    count does not enter.  The root finder stays inside the stable
    interval, so the residual skips the stability check.  Any other shape
    raises ``ValueError``.
    """
    _check_positive("rho", rho)
    popularity = scenario.library.popularity
    v = _totals(z, popularity.size) - _totals(theta, popularity.size)
    cv = float(popularity @ v)
    c_sq_over_rho = float(popularity @ popularity) / rho
    traffic = scenario.traffic

    def residual(h):
        slope, curvature = _derivatives(h, traffic)
        return h - cv + slope * c_sq_over_rho, 1.0 + curvature * c_sq_over_rho

    h_star = increasing_root(residual, *stable_echr_interval(traffic))
    return v - (_derivatives(h_star, traffic)[0] / rho) * popularity


#: Residual balancing scales ``rho`` by ``_RHO_FACTOR`` when one relative
#: residual exceeds the other ``_BALANCE_RATIO`` times.
_BALANCE_RATIO = 10.0
_RHO_FACTOR = 2.0


def solve(scenario, config=SolverConfig()):
    """Run the splitting iteration on a scenario.

    Iterates on the vector ``y`` of F content totals in the pooled set
    (:class:`ConstraintSystem`): starts from zero and repeats the
    three updates until the relative Frank–Wolfe gap of the feasible
    iterate ``z``, projected gradient's stopping test, is at most
    ``config.tol``; ``config`` is a :class:`SolverConfig`, whose default
    projected gradient takes too.  That gap bounds the relative gap to the
    optimum in any unit of time without reading it, so ``converged=True``
    is a certificate and the iteration an independent check.

    ``rho`` starts at ``|D'(0)| * ||popularity||**2``; no setting overrides
    it.  The p-update moves every total by ``(D'(h) / rho) * popularity``, so at
    that start a step at the initial slope ``D'(0)`` shifts the hit ratio by
    one, the width of its feasible range; the start scales with the unit of
    time as ``D`` does.  Every station's ``d'(0) = 1/mu_e - mu_b/(mu_b -
    lam)**2`` is negative under ``lam < mu_b < mu_e``, so the start is finite
    and positive.  After an unconverged iteration ``rho`` is balanced on the
    unit-free relative primal residual ``r = ||p - z|| / max(||p||, ||z||)``
    and dual one ``s = ||z - z_old|| / ||theta||`` (``rho`` cancels from the
    dual residual ``rho ||z - z_old||`` over the dual ``rho theta``): when one
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
    constraints = ConstraintSystem.build(library, scenario.cluster)
    h_csl = echr_csl(library, scenario.cluster)

    z = np.zeros(library.count)
    theta = np.zeros_like(z)

    trace = []
    best_objective, best_z = np.inf, z
    converged = False
    popularity = library.popularity
    rho = abs(float(_derivatives(0.0, traffic)[0])) * float(popularity @ popularity)
    for k in range(1, config.max_iter + 1):
        p = p_update(z, theta, scenario, rho)
        z_old = z
        z = project_feasible(p + theta, constraints)
        theta = theta + (p - z)
        primal = float(np.linalg.norm(p - z))
        change = float(np.linalg.norm(z - z_old))
        h = _clamp_to_unit(popularity @ z)
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
    """The :class:`SolveResult` of a solver's feasible vector of content
    ``totals``: their first-fit placement on the nodes, whose columns equal
    ``totals`` bit for bit, with the hit ratio and download time read from
    that placement.  So ``adt`` is both ``overall_adt(placement,
    scenario).overall`` and the objective that the trace recorded for the
    iterate, and no split of the capacity over the nodes can change it."""
    library = scenario.library
    placement = _assign_first_fit(totals, library, scenario.cluster)
    h = _clamped_echr(placement, library)
    return SolveResult(
        placement=placement, echr=h, adt=adt_curve(h, scenario.traffic),
        iterations=len(trace), converged=converged, trace=trace,
    )
