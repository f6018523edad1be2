"""Two-regime heuristic: storage-limited vs. provision-limited hit ratios.

Minimizing the overall download time over placements reduces to choosing one
scalar — the ECHR ``h`` — and realizing it with any feasible placement.  Two
candidate optima exist:

* ``h_csl`` (cache-storage-limited): the largest hit ratio the cluster's
  storage can realize at all; the optimum whenever capacity is the
  bottleneck, since below the stationary point the download time only
  improves as ``h`` grows.
* ``h_cpl`` (content-provision-limited): the stationary point of the
  download-time curve — the root of its derivative — optimal when service
  rates, not storage, are the bottleneck.

The reachable hit ratios are exactly ``[0, h_csl]``, so the convexity of the
download-time curve makes ``h* = min(h_csl, h_cpl)`` the exact optimum, for
any content sizes.  As every arrival rate grows by one common factor, the
optimum is storage-limited up to a threshold and provision-limited just
above it; heterogeneous stations can turn it storage-limited again at a
higher load.  :func:`lambda_threshold` reports the threshold as a mean
arrival rate, ``lambda*`` for identical stations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import TOL, increasing_root
from .model import FEASIBILITY_TOL, Placement
from .objective import _clamp_to_unit, _derivatives, _station_times, stable_echr_interval

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

    Returns the portions, the ECHR they reach and the storage bound
    ``h_csl``: the storage greedy's ECHR, capped at 1.  Both ECHRs are summed
    in density order, so the order in which the library lists its contents
    cannot change them.
    """
    popularity, sizes = library.popularity, library.sizes
    order = np.argsort(-(popularity / sizes), kind="stable")
    ranked = popularity[order]
    whole, partial, h_csl = library.count, 0.0, None
    for cost, budget in ((sizes[order], cluster.total_capacity), (ranked, h_target)):
        used = np.concatenate(([0.0], np.cumsum(cost)))
        k = int(np.searchsorted(used, budget, side="right")) - 1
        if k < library.count:
            whole, partial = min((whole, partial), (k, min((budget - used[k]) / cost[k], 1.0)))
        taken = np.zeros(library.count)
        taken[:whole] = 1.0
        taken[whole : whole + 1] = partial
        reached = float(ranked @ taken)
        if h_csl is None:
            h_csl = min(reached, 1.0)
        if h_target >= h_csl:
            break
    fractions = np.empty(library.count)
    fractions[order] = taken
    return fractions, reached, h_csl


def _assign_first_fit(totals, library, cluster):
    """Place per-content totals on the nodes, first-fit in index order.

    Content ``f`` fills ``[D_{f-1}, D_f)`` of the cumulative demand ``D =
    cumsum(totals * sizes)`` and node ``i`` fills ``[C_{i-1}, C_i)`` of the
    cumulative capacities, but the last node with positive capacity (the
    last node, if none has any) reaches to ``+inf``: what rounding leaves
    past the total stays on it.  A boundary ``C`` cuts ``f`` at 0 if ``C <=
    D_{f-1}``, at ``t_f`` if ``C >= D_f``, else at ``(C - D_{f-1}) / s_f``
    clipped to ``[0, t_f]`` and rounded to a multiple of ``spacing(t_f)``;
    node ``i`` holds the difference of its two cuts.  So a content that no
    boundary falls inside is held whole, the pieces of a cut one are
    multiples of its ulp, and every column sums to its total bit for bit in
    any order.  No entry is ``-0.0``, a zero-capacity node holds nothing
    (bar that last node), and at most ``F + N - 1`` entries are nonzero.
    Any feasible placement of the totals yields the same objective; this
    fixed rule makes the output canonical.

    Both cumulative sums are sorted, so ``searchsorted`` gives each node
    the contents whose cuts differ at its two boundaries: all held whole but
    the first, which its lower boundary may cut, and the last, which its
    upper one may.  Every other entry stays the ``+0.0`` of ``np.zeros``.
    Past the ``O(N * F)`` zero fill and the checks of :class:`Placement`,
    the cost is ``O(F + N log F)``.
    """
    totals = np.asarray(totals, dtype=float) + 0.0  # a -0.0 total becomes +0.0
    demand = np.concatenate(([0.0], np.cumsum(totals * library.sizes)))
    start, end = demand[:-1], demand[1:]
    reached = np.cumsum(cluster.capacities)
    lower, upper = np.concatenate(([0.0], reached[:-1])), reached.copy()
    upper[cluster.node_count - 1 - np.argmax(cluster.capacities[::-1] > 0.0)] = np.inf
    # Node i: the contents with start < upper[i] and either end > lower[i] or start >= lower[i].
    firsts = np.minimum(np.searchsorted(end, lower, "right"), np.searchsorted(start, lower))
    stops = np.searchsorted(start, upper)

    def cut(boundary, f):
        unit = np.spacing(totals[f])
        return np.round(min((boundary - start[f]) / library.sizes[f], totals[f]) / unit) * unit

    matrix = np.zeros((cluster.node_count, library.count))
    for i, (lo, hi) in enumerate(zip(firsts.tolist(), stops.tolist())):
        if lo < hi:
            matrix[i, lo:hi] = totals[lo:hi]
            if end[hi - 1] > upper[i]:
                matrix[i, hi - 1] = cut(upper[i], hi - 1)
            if start[lo] < lower[i]:
                matrix[i, lo] -= cut(lower[i], lo)
    return Placement(matrix)


def echr_csl(library, cluster):
    """Largest realizable ECHR, the storage-limited bound ``h_csl``.

    Solves ``max sum_f P_r(f) x_f`` subject to the pooled capacity bound and
    ``0 <= x_f <= 1`` by greedy fractional selection in decreasing
    popularity-per-size density; the greedy is the exact optimum of this
    continuous knapsack.  Pooling the node capacities loses nothing because
    fractional portions can always be split across nodes.
    """
    return _greedy_fractions(library, cluster)[2]


def echr_cpl(traffic):
    """Stationary point of the download-time curve, clamped to [0, 1].

    The derivative is strictly increasing and diverges at both ends of the
    stable interval, so its unique root there is found by safeguarded Newton
    (to 1e-12, or a few ulps for a root far above 1 under light traffic),
    for identical and heterogeneous stations alike.  The root is then
    clamped to [0, 1], which covers slow arrivals and extreme rate ratios
    where it leaves the physical range.
    """
    h = increasing_root(lambda h: _derivatives(h, traffic), *stable_echr_interval(traffic))
    return _clamp_to_unit(h)


def lambda_threshold(h_csl, traffic):
    """Lowest mean arrival rate at which the stationary point takes over from storage.

    With every arrival rate times one load factor ``s``, the slope
    ``D'(h_csl)`` is a hit term minus a miss term, both increasing and
    convex in ``s`` up to the first queue saturation, and negative at
    ``s = 0``.  Returns ``s* * mean(lam)`` for the lowest ``s*`` where it
    reaches 0 (CSL below, CPL just above), or ``None`` if it stays negative
    up to saturation, as always for ``h_csl = 0``.  For identical stations
    that is ``lambda*``, the only crossing; heterogeneous traffic can cross
    back to CSL as a miss queue nears saturation.  A value may break some
    station's chain ``lam < mu_b``, out of reach of stable traffic.

    A sweep from ``s = 0`` proves each step negative by the hit term's chord
    minus the miss term's tangent, or by a negative end where the slope
    rises (the hit term's derivative at the start above the miss term's at
    the end).  :func:`~._roots.increasing_root` takes a rising step with a
    positive end; any other step halves, down to :data:`~._roots.TOL`.
    """
    h_csl = float(h_csl)
    if not 0.0 <= h_csl <= 1.0:
        raise ValueError(f"h_csl must lie in [0, 1], got {h_csl:g}")
    lam, weights = traffic.lam, traffic.weights
    with np.errstate(divide="ignore", over="ignore"):
        saturation = np.minimum(traffic.mu_e / (lam * h_csl), traffic.mu_b / (lam * (1.0 - h_csl)))
    # Loads past 1e307 count as saturated, so that the sum of two loads stays finite.
    limit = float(np.min(saturation, initial=1e307))

    def terms(s):
        """The slope's hit term and its derivative in load ``s``, over the miss term's."""
        t_e, t_b, _ = _station_times(h_csl, traffic, s)
        hit, miss = traffic.mu_e * t_e**2, traffic.mu_b * t_b**2
        rise, climb = 2.0 * h_csl * lam * hit * t_e, 2.0 * (1.0 - h_csl) * lam * miss * t_b
        return np.array([[hit @ weights, rise @ weights], [miss @ weights, climb @ weights]])

    lo, at_lo, step, tol = 0.0, terms(0.0), limit, max(TOL, 4.0 * np.spacing(limit))
    while limit - lo > tol:
        hi = lo + min(step, 0.5 * (limit - lo))
        at_hi = terms(hi)
        ((_, rise_lo), (miss_lo, climb_lo)), ((hit_hi, _), (miss_hi, climb_hi)) = at_lo, at_hi
        rising = rise_lo > climb_hi
        if rising and hit_hi > miss_hi:
            load = increasing_root(lambda s: np.subtract(*terms(s)), lo, hi)
            return float(load * np.mean(lam))
        below = hit_hi - miss_lo - climb_lo * (hi - lo) < 0.0
        if below or (rising or hi - lo <= tol) and hit_hi < miss_hi:
            lo, at_lo, step = hi, at_hi, 2.0 * step
        elif hi - lo > tol:
            step = 0.5 * (hi - lo)
        else:
            return float(0.5 * (lo + hi) * np.mean(lam))
    return None


def placement_from_echr(h_target, library, cluster):
    """A canonical feasible placement whose ECHR equals ``h_target``.

    Caches contents greedily in popularity-density order, scaling the last
    content's portion so the popularity-weighted total lands on ``h_target``
    (within 1e-9); node assignment is first-fit in node index order, and
    each column sums to its content's portion bit for bit.  A target at the
    storage bound ``echr_csl`` gets the storage greedy exactly.
    Targets above the storage bound are unreachable and rejected, as are
    non-finite ones.
    """
    h_target = float(h_target)
    if not math.isfinite(h_target):
        raise ValueError(f"h_target must be finite, got {h_target}")
    if h_target < -FEASIBILITY_TOL:
        raise ValueError("target hit ratio must be nonnegative")
    fractions, reached, _ = _greedy_fractions(library, cluster, h_target=max(h_target, 0.0))
    # Short of the target only when storage binds, and then at the storage bound.
    if h_target > reached + 1e-9:
        raise ValueError(
            f"target hit ratio {h_target:g} exceeds the storage-limited bound {reached:g}"
        )
    return _assign_first_fit(fractions, library, cluster)


@dataclass(frozen=True, eq=False)
class HeuristicResult:
    """Outcome of the two-regime heuristic.

    ``regime`` is ``"CPL"`` when ``D'(h_csl) >= 0`` (the stationary point
    binds) and ``"CSL"`` otherwise; ``lambda_star`` is the lowest
    mean arrival rate at which the regime turns CPL when every station's
    rate is scaled by one factor (``None`` when storage binds at every load).
    ``placement`` is the first-fit placement of the greedy portions that
    realize ``h_star``, as :func:`placement_from_echr` builds it: each
    column sums to its content's portion bit for bit.
    """

    h_csl: float
    h_cpl: float
    h_star: float
    lambda_star: float | None
    regime: str
    placement: Placement


def heuristic_solve(scenario):
    """Run the full heuristic on a scenario.

    Computes the stationary point ``h_cpl``, then, from one density sort,
    the storage bound ``h_csl`` and the portions that realize ``h_star =
    min(h_csl, h_cpl)``, the exact optimum by convexity: the portions of
    :func:`placement_from_echr` at ``h_star``, assigned first-fit.
    """
    library, cluster, traffic = scenario.library, scenario.cluster, scenario.traffic
    h_cpl = echr_cpl(traffic)
    fractions, _, h_csl = _greedy_fractions(library, cluster, h_target=h_cpl)
    regime = "CPL" if _derivatives(h_csl, traffic)[0] >= 0.0 else "CSL"
    return HeuristicResult(
        h_csl=h_csl,
        h_cpl=h_cpl,
        h_star=min(h_csl, h_cpl),
        lambda_star=lambda_threshold(h_csl, traffic),
        regime=regime,
        placement=_assign_first_fit(fractions, library, cluster),
    )
