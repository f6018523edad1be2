"""Closed-form heuristic: storage-limited vs. provision-limited hit ratios.

Minimizing the overall download time over placements reduces to choosing one
scalar — the ECHR ``h`` — and realizing it with any feasible placement.  Two
candidate optima exist:

* ``h_csl`` (cache-storage-limited): the largest hit ratio the cluster's
  storage can realize at all; the optimum whenever capacity is the
  bottleneck, since below the stationary point the download time only
  improves as ``h`` grows.
* ``h_cpl`` (content-provision-limited): the stationary point of the
  download-time curve, optimal when service rates — not storage — are the
  bottleneck.  For identical stations it has a closed form; otherwise it is
  the root of the derivative.

The reachable hit ratios are exactly ``[0, h_csl]``, so the convexity of the
download-time curve makes ``h* = min(h_csl, h_cpl)`` the exact optimum, for
any content sizes.  For identical stations the two regimes swap at a
threshold arrival rate ``lambda*``: storage-limited below it,
provision-limited above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import increasing_root
from .model import FEASIBILITY_TOL, Placement
from .objective import _curvature_at, _slope_at, stable_echr_interval

__all__ = [
    "HeuristicResult",
    "echr_csl",
    "echr_cpl",
    "lambda_threshold",
    "placement_from_echr",
    "heuristic_solve",
]


def _greedy_fractions(library, cluster, h_target=math.inf):
    """Per-content cached portions chosen greedily by popularity density.

    Sorts contents once by decreasing ``popularity / size`` (plain popularity
    order when sizes are equal).  The longest prefix whose cumulative size
    fits the pooled capacity is cached whole, the next content gets the
    portion that fills it, and the rest exactly zero: the storage greedy,
    exact for this continuous knapsack, so it maximizes the ECHR.  When
    ``h_target`` is at or above that greedy's ECHR, capped at 1 — the very
    number :func:`echr_csl` returns — storage binds and the storage greedy
    itself is returned.  Otherwise the prefix must also fit ``h_target`` in
    cumulative popularity, and the next content gets the portion that
    exhausts the tighter of the two limits.
    """
    popularity, sizes = library.popularity, library.sizes
    order = np.argsort(-(popularity / sizes), kind="stable")
    whole, partial = library.count, 0.0
    for cost, budget in ((sizes[order], cluster.total_capacity), (popularity[order], h_target)):
        used = np.concatenate(([0.0], np.cumsum(cost)))
        k = int(np.searchsorted(used, budget, side="right")) - 1
        if k < library.count:
            whole, partial = min((whole, partial), (k, min((budget - used[k]) / cost[k], 1.0)))
        fractions = np.zeros(library.count)
        fractions[order[:whole]] = 1.0
        fractions[order[whole : whole + 1]] = partial
        if h_target >= min(popularity @ fractions, 1.0):
            break
    return fractions


def _assign_first_fit(fractions, library, cluster):
    """Materialize per-content portions as a node-level placement matrix.

    First-fit in index order: node ``i`` holds the overlap of its interval
    ``[C_{i-1}, C_i)`` of the cumulative capacities with content ``f``'s
    interval ``[D_{f-1}, D_f)`` of the cumulative demand
    ``D = cumsum(fractions * sizes)``, so at most ``N - 1`` contents are split
    and at most ``F + N - 1`` entries are nonzero.  Any feasible assignment
    yields the same objective; this fixed rule makes the output canonical.

    Both cumulative sums are sorted, so two ``searchsorted`` calls give each
    node the contents whose interval touches its own; the overlap formula
    runs on those slices only and every other entry stays the ``+0.0`` of
    ``np.zeros``, which is what the formula gives on a strictly negative
    overlap.  Past the ``O(N * F)`` zero fill and the checks of
    :class:`Placement`, the cost is ``O(F + N log F)``, plus the length of
    any run of uncached contents that a node boundary lands on exactly.
    """
    demand = np.concatenate(([0.0], np.cumsum(fractions * library.sizes)))
    capacity = np.concatenate(([0.0], np.cumsum(cluster.capacities)))
    # Content f touches node i iff demand[f + 1] >= capacity[i] and
    # demand[f] <= capacity[i + 1].
    starts = np.searchsorted(demand[1:], capacity[:-1], side="left").tolist()
    stops = np.searchsorted(demand[:-1], capacity[1:], side="right").tolist()
    matrix = np.zeros((cluster.node_count, library.count))
    for i, (lo, hi) in enumerate(zip(starts, stops)):
        overlap = np.minimum(demand[lo + 1 : hi + 1], capacity[i + 1]) - np.maximum(
            demand[lo:hi], capacity[i]
        )
        matrix[i, lo:hi] = np.maximum(overlap, 0.0) / library.sizes[lo:hi]
    return Placement(matrix)


def echr_csl(library, cluster):
    """Largest realizable ECHR, the storage-limited bound ``h_csl``.

    Solves ``max sum_f P_r(f) x_f`` subject to the pooled capacity bound and
    ``0 <= x_f <= 1`` by greedy fractional selection in decreasing
    popularity-per-size density; the greedy is the exact optimum of this
    continuous knapsack.  Pooling the node capacities loses nothing because
    fractional portions can always be split across nodes.
    """
    return float(min(library.popularity @ _greedy_fractions(library, cluster), 1.0))


def echr_cpl(traffic):
    """Stationary point of the download-time curve, clamped to [0, 1].

    For identical stations the stationarity condition balances the two queue
    terms and solves in closed form::

        h = ((mu_e - sqrt(mu_e * mu_b)) * sqrt(mu_b) + lam * sqrt(mu_e))
            / (lam * (sqrt(mu_b) + sqrt(mu_e)))

    For heterogeneous traffic the derivative is strictly increasing and
    diverges at both ends of the stable interval, so its unique root there is
    found by safeguarded Newton (to 1e-12, or a few ulps for a root far
    above 1 under light traffic).  Either stationary point is then
    clamped to [0, 1], which covers slow arrivals and extreme rate ratios
    where it leaves the physical range.
    """
    if traffic.homogeneous:
        lam = float(traffic.lam[0])
        root_e = math.sqrt(float(traffic.mu_e[0]))
        root_b = math.sqrt(float(traffic.mu_b[0]))
        h = ((float(traffic.mu_e[0]) - root_e * root_b) * root_b + lam * root_e) / (
            lam * (root_b + root_e)
        )
    else:
        h = increasing_root(
            lambda h: _slope_at(h, traffic),
            lambda h: _curvature_at(h, traffic),
            *stable_echr_interval(traffic),
        )
    return float(min(max(h, 0.0), 1.0))


def lambda_threshold(h_csl, mu_e, mu_b):
    """Arrival rate where the storage- and provision-limited optima coincide.

    For identical stations with rates ``mu_e``/``mu_b`` and a storage bound
    ``h_csl``, returns::

        lambda* = sqrt(mu_b * mu_e) * (sqrt(mu_e) - sqrt(mu_b))
                  / (h_csl * (sqrt(mu_e) + sqrt(mu_b)) - sqrt(mu_e))

    Below ``lambda*`` the storage bound binds (CSL regime); above it the
    stationary point does (CPL).  When the denominator is not positive the
    two curves never cross for any stable arrival rate — storage stays the
    bottleneck throughout — and ``None`` is returned.  A returned value at or
    above ``mu_b`` likewise cannot be reached by stable traffic.
    """
    h_csl = float(h_csl)
    mu_e, mu_b = float(mu_e), float(mu_b)
    if not 0.0 < h_csl <= 1.0:
        raise ValueError("h_csl must lie in (0, 1]")
    if not 0.0 < mu_b < mu_e:
        raise ValueError("rates must satisfy 0 < mu_b < mu_e")
    root_e, root_b = math.sqrt(mu_e), math.sqrt(mu_b)
    denominator = h_csl * (root_e + root_b) - root_e
    if denominator <= 0.0:
        return None
    return root_b * root_e * (root_e - root_b) / denominator


def placement_from_echr(h_target, library, cluster):
    """A canonical feasible placement whose ECHR equals ``h_target``.

    Caches contents greedily in popularity-density order, scaling the last
    content's portion so the popularity-weighted total lands on ``h_target``
    (within 1e-9); node assignment is first-fit in node index order.  A
    target at the storage bound ``echr_csl`` gets the storage greedy exactly.
    Targets above the storage bound are unreachable and rejected, as are
    non-finite ones.
    """
    h_target = float(h_target)
    if not math.isfinite(h_target):
        raise ValueError(f"h_target must be finite, got {h_target}")
    if h_target < -FEASIBILITY_TOL:
        raise ValueError("target hit ratio must be nonnegative")
    fractions = _greedy_fractions(library, cluster, h_target=max(h_target, 0.0))
    # Short of the target only when storage binds, and then at the storage bound.
    reached = float(library.popularity @ fractions)
    if h_target > reached + 1e-9:
        raise ValueError(
            f"target hit ratio {h_target:g} exceeds the storage-limited bound {reached:g}"
        )
    return _assign_first_fit(fractions, library, cluster)


@dataclass(frozen=True, eq=False)
class HeuristicResult:
    """Outcome of the closed-form heuristic.

    ``regime`` is ``"CSL"`` when the storage bound is the binding one and
    ``"CPL"`` when the stationary point is; ``lambda_star`` is the switch
    threshold (identical-station traffic only, ``None`` when undefined or not
    applicable).  ``placement`` realizes ``h_star`` exactly.
    """

    h_csl: float
    h_cpl: float
    h_star: float
    lambda_star: float | None
    regime: str
    placement: Placement


def heuristic_solve(scenario):
    """Run the full heuristic on a scenario.

    Computes the storage bound and the stationary point, takes
    ``h_star = min(h_csl, h_cpl)`` — the exact optimum, by convexity — and
    materializes it with :func:`placement_from_echr` in both regimes; in the
    storage-limited one that is the storage greedy itself.
    """
    library, cluster, traffic = scenario.library, scenario.cluster, scenario.traffic
    h_csl = echr_csl(library, cluster)
    h_cpl = echr_cpl(traffic)
    h_star = min(h_csl, h_cpl)
    regime = "CPL" if h_cpl <= h_csl else "CSL"
    placement = placement_from_echr(h_star, library, cluster)
    lambda_star = None
    if traffic.homogeneous and h_csl > 0.0:
        lambda_star = lambda_threshold(h_csl, float(traffic.mu_e[0]), float(traffic.mu_b[0]))
    return HeuristicResult(
        h_csl=h_csl,
        h_cpl=h_cpl,
        h_star=h_star,
        lambda_star=lambda_star,
        regime=regime,
        placement=placement,
    )
