"""Brute-force oracles for tests, independent of the solvers they check,
and the paper's gradient baseline.

* :func:`qp_projection_oracle` — the exact Euclidean projection onto the
  feasible placement set of content ``sizes`` and node ``capacities`` by
  active-set enumeration, an independent cross-check of
  ``fogcache.admm.project_feasible`` (a vector of content totals under one
  pooled capacity, by breakpoint search) and of :func:`project_placement`
  (N x F, by dual Newton): it shares nothing with either, and builds its
  constraint rows itself from the sizes and capacities.
* :func:`h_csl_oracle` — the storage-limited hit ratio by vertex
  enumeration, an independent cross-check of the greedy knapsack in
  ``fogcache.heuristic``.
* :func:`h_cpl_oracle` — the stationary point of the download-time curve
  for identical stations, in closed form, an independent cross-check of the
  Newton root in ``fogcache.heuristic.echr_cpl``.
* :func:`lambda_star_oracle` — the regime threshold for identical stations,
  in closed form, an independent cross-check of the load-factor root in
  ``fogcache.heuristic.lambda_threshold``.
* :func:`assert_lowest_crossing` — the regime threshold for any traffic
  profile, checked by a scan of :func:`slope_at_load` over a fine grid of
  loads, an independent cross-check of the same root.
* :func:`fixed_step_projected_gradient` — projected gradient with a fixed
  first trial step and monotone Armijo halving, stopped on the
  gradient-mapping norm: the "existing algorithm" against which the paper
  claims the splitting solver converges faster, on the N x F placement.
* :func:`project_placement` — the Euclidean projection onto the N x F
  feasible placement set, by semismooth Newton over the N per-node
  capacity multipliers: the projection of that baseline, exact near the
  set.

The solvers in ``src/`` see only the pooled set of content totals; the
N x F set of ``sizes`` and ``capacities`` lives here, with the baseline
that runs on it.
"""

import itertools
import math

import numpy as np

from fogcache.admm import IterationRecord, SolveResult
from fogcache.model import Placement
from fogcache.objective import _clamped_echr, _station_times, adt_curve, adt_slope


def h_cpl_oracle(lam, mu_e, mu_b):
    """Stationary point of the download time of identical stations.

    The stationarity condition balances the two queue margins,
    ``(mu_e - lam h) / sqrt(mu_e) == (mu_b - lam (1 - h)) / sqrt(mu_b)``,
    which is linear in ``h`` and solves to::

        h = ((mu_e - sqrt(mu_e * mu_b)) * sqrt(mu_b) + lam * sqrt(mu_e))
            / (lam * (sqrt(mu_b) + sqrt(mu_e)))

    Not clamped: the value leaves [0, 1] under slow arrivals.
    """
    root_e, root_b = math.sqrt(mu_e), math.sqrt(mu_b)
    return ((mu_e - root_e * root_b) * root_b + lam * root_e) / (lam * (root_b + root_e))


def lambda_star_oracle(h_csl, mu_e, mu_b):
    """Arrival rate at which identical stations' stationary point is ``h_csl``.

    At ``h = h_csl`` the stationarity condition of :func:`h_cpl_oracle` is
    linear in ``lam`` and solves to::

        lambda* = sqrt(mu_b * mu_e) * (sqrt(mu_e) - sqrt(mu_b))
                  / (h_csl * (sqrt(mu_e) + sqrt(mu_b)) - sqrt(mu_e))

    Returns ``None`` when the denominator is not positive (storage binds at
    every arrival rate), and when the root overloads the hit queue
    (``lambda* * h_csl >= mu_e``): that root balances the two queue margins
    with both negative, so it is no crossing of the regimes.  A value at or
    above ``mu_b`` is a crossing with both queues stable at ``h_csl`` that
    stable traffic cannot reach.
    """
    root_e, root_b = math.sqrt(mu_e), math.sqrt(mu_b)
    denominator = h_csl * (root_e + root_b) - root_e
    if denominator <= 0.0:
        return None
    lambda_star = root_b * root_e * (root_e - root_b) / denominator
    return lambda_star if lambda_star * h_csl < mu_e else None


def _first_saturation(h_csl, traffic):
    """The load factor at which the first queue saturates at ``h_csl``,
    station by station."""
    first = math.inf
    for lam, mu_e, mu_b in zip(traffic.lam, traffic.mu_e, traffic.mu_b):
        hit_load = mu_e / (lam * h_csl) if h_csl > 0.0 else math.inf
        miss_load = mu_b / (lam * (1.0 - h_csl)) if h_csl < 1.0 else math.inf
        first = min(first, hit_load, miss_load)
    return first


def slope_at_load(h_csl, traffic, loads):
    """``D'(h_csl)`` with every arrival rate times ``loads``, a scalar or an
    array; the scaled rates need not satisfy the stability chain."""
    t_e, t_b, _ = _station_times(h_csl, traffic, np.asarray(loads)[..., np.newaxis])
    return (traffic.mu_e * t_e**2 - traffic.mu_b * t_b**2) @ traffic.weights


def assert_lowest_crossing(h_csl, traffic, lambda_star):
    """Assert that ``lambda_star`` is the lowest load at which the slope at
    ``h_csl`` reaches 0, by a scan of the mean arrival rate.

    The slope at ``h_csl`` is negative on a fine grid of loads from 0 up
    to the threshold, or up to the first saturation when there is none, and
    non-negative just above the threshold.
    """
    grid = np.linspace(0.0, 1.0, 2001)[:-1]
    limit = _first_saturation(h_csl, traffic)
    if lambda_star is None:
        assert np.all(slope_at_load(h_csl, traffic, limit * grid) < 0.0)
        return
    load = lambda_star / traffic.lam.mean()
    assert 0.0 < load < limit
    assert np.all(slope_at_load(h_csl, traffic, load * grid) < 0.0)
    assert slope_at_load(h_csl, traffic, load * (1.0 + 1e-7)) >= 0.0


def h_csl_oracle(popularity, sizes, total_capacity):
    """Largest hit ratio ``max p . x`` with ``s . x <= C`` and ``0 <= x <= 1``.

    The linear program has one row besides the box, so every vertex has at
    most one fractional coordinate: a set of whole contents that fits,
    plus at most one other content cut to the capacity left.  Enumerates
    all of them: allowed only for ``F <= 10``.
    """
    popularity = np.asarray(popularity, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    count = popularity.size
    if count > 10:
        raise ValueError(f"vertex enumeration is limited to 10 contents, got {count}")
    best = 0.0
    for bits in itertools.product((False, True), repeat=count):
        whole = np.array(bits)
        spare = total_capacity - float(sizes[whole].sum())
        if spare < 0.0:
            continue
        value = float(popularity[whole].sum())
        best = max(best, value)
        for g in np.flatnonzero(~whole):
            best = max(best, value + min(1.0, spare / sizes[g]) * popularity[g])
    return best


def _feasible_adt(placement, scenario):
    """Overall ADT of a feasible N x F placement, at its clamped hit ratio."""
    return adt_curve(_clamped_echr(placement, scenario.library), scenario.traffic)


def fixed_step_projected_gradient(scenario, tol=1e-8, max_iter=5000):
    """Projected gradient descent with a fixed first step, the paper's baseline.

    Iterates ``p <- proj(p - t * grad D(p))``: each iteration tries the step
    ``1 / max(1, max|grad|)`` first, so no trial moves an entry by more than
    the box width, and halves it until the objective falls by at least
    ``1e-4 * ||p_new - p||**2 / step``.  It stops when the gradient-mapping
    norm ``||p - proj(p - t grad)|| / t`` drops below ``tol``, or returns the
    last iterate unconverged after ``max_iter`` iterations.  It works on the
    N x F placement, projected by :func:`project_placement`.  The trace's
    residual columns carry the step displacement and the gradient-mapping
    norm.
    """
    library, cluster = scenario.library, scenario.cluster
    p = np.zeros((cluster.node_count, library.count))
    value = _feasible_adt(p, scenario)
    trace = []
    converged = False
    k = 0
    for k in range(1, max_iter + 1):
        # Equal for every node, so one row broadcasts over the matrix.
        gradient = adt_slope(_clamped_echr(p, library), scenario.traffic) * library.popularity
        scale = max(1.0, float(np.max(np.abs(gradient))))
        step = 1.0 / scale
        while True:
            candidate = project_placement(p - step * gradient, library.sizes, cluster.capacities)
            candidate_value = _feasible_adt(candidate, scenario)
            displacement_sq = float(np.sum((candidate - p) ** 2))
            if candidate_value <= value - 1e-4 * displacement_sq / step + 1e-15:
                break
            step *= 0.5
            if step * scale < 1e-16:
                # The iterate is numerically stationary; accept as is.
                candidate, candidate_value = p, value
                break
        mapping_norm = float(np.linalg.norm(candidate - p)) / step
        displacement = float(np.linalg.norm(candidate - p))
        p, value = candidate, candidate_value
        trace.append(IterationRecord(k, value, displacement, mapping_norm))
        if mapping_norm <= tol:
            converged = True
            break

    return SolveResult(
        placement=Placement(p), echr=_clamped_echr(p, library), adt=value,
        iterations=k, converged=converged, trace=trace,
    )


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


def project_placement(x, sizes, capacities):
    """Euclidean projection onto the N x F feasible placement set of content
    ``sizes`` and node ``capacities``.

    Through the dual over the N per-node capacity multipliers
    ``mu >= 0``.  For a fixed ``mu`` the problem separates by content
    (:func:`_project_columns`, a sort-based simplex step per column), and
    the dual ``g(mu)`` is concave and piecewise quadratic with gradient
    ``Z(mu) @ sizes - capacities``.  A projected semismooth Newton ascent
    from ``mu = 0`` with Armijo backtracking maximizes it over a box that
    must contain the maximizer; its generalized Hessian is regularized in
    proportion to the projected gradient, because it is singular whenever a
    per-content row is active at ``mu`` but slack at the solution, or a node
    holds nothing.  On each quadratic piece Newton is exact, so the
    iteration ends on the solution's piece after a handful of steps.  The
    ascent runs with sizes and capacities divided by a power of two near the
    largest size, so its tolerance and multiplier box hold in any unit.

    Its domain is the neighbourhood of the set, where the fixed-step
    baseline queries it: there it matches :func:`qp_projection_oracle` to
    rounding.  Far outside, the cancellation in ``y - mu * s - shift``
    breaks that: on queries scaled by 1e3 it can miss the projection by
    tenths (``test_misses_the_projection_far_outside_the_set``).

    ``x`` is an (N, F) matrix, and so is the result; any other shape raises
    ``ValueError``.
    """
    y = np.asarray(x, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    n, f = capacities.size, sizes.size
    if y.shape != (n, f):
        raise ValueError(f"expected a matrix of shape ({n}, {f}): {n} nodes x {f} contents")
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

    mu = np.zeros(n)
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


def _constraint_rows(sizes, capacities):
    """Rows ``C`` and bounds ``u`` of ``C z <= u`` over a node-major ``z``.

    Entry ``j = i * F + f`` holds content ``f`` on node ``i``: row ``f``
    sums content ``f`` over the nodes (at most 1), and row ``F + i`` weighs
    node ``i``'s entries by size (at most its capacity).
    """
    n_nodes, n_contents = capacities.size, sizes.size
    rows = np.zeros((n_contents + n_nodes, n_nodes * n_contents))
    for i in range(n_nodes):
        for f in range(n_contents):
            rows[f, i * n_contents + f] = 1.0
            rows[n_contents + i, i * n_contents + f] = sizes[f]
    return rows, np.concatenate([np.ones(n_contents), capacities])


def _box_patterns(flat):
    """Box states (0 free, 1 at 0, 2 at 1) per coordinate, as an int array.

    With nonnegative rows the projection is ``clip(x - C^T mu, 0, 1)`` for
    some ``mu >= 0``, and ``C^T mu >= 0``: a coordinate with ``x_j <= 0`` is
    pinned at 0, and only one with ``x_j >= 1`` can be pinned at 1.  The
    other patterns cannot be the projection and are not generated.
    """
    states = [(1,) if value <= 0.0 else (0, 1) if value < 1.0 else (0, 1, 2) for value in flat]
    return np.array(list(itertools.product(*states)), dtype=np.int8)


def qp_projection_oracle(x, sizes, capacities):
    """Exact Euclidean projection for small instances, by KKT enumeration.

    The set is the N x F feasible placement set of content ``sizes`` and
    node ``capacities``, over ``x`` of N * F entries in node-major order,
    any shape: an (N, F) matrix, or a vector of F content totals under one
    pooled capacity.  The result has the shape of ``x``.

    Enumerates every candidate active set — a box state per coordinate (free,
    pinned at 0, pinned at 1) that :func:`_box_patterns` allows, crossed
    with every subset of the linear rows treated as equalities — solves each
    reduced KKT system in a batch, keeps the candidates passing feasibility
    and multiplier-sign checks, and returns the one closest to ``x``.  The
    unique projection always appears among candidates with linearly
    independent active rows, so singular systems are safely skipped.

    Exponential by construction: allowed only for ``N*F <= 12``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    n = flat.size
    if n > 12:
        raise ValueError(f"active-set enumeration is limited to 12 variables, got {n}")
    sizes = np.asarray(sizes, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if n != capacities.size * sizes.size:
        raise ValueError("x does not match the sizes and capacities")
    c_rows, u = _constraint_rows(sizes, capacities)
    if np.any(c_rows < 0.0):
        raise ValueError("the box patterns are pruned for nonnegative rows only")
    n_rows = c_rows.shape[0]

    patterns = _box_patterns(flat)
    free = patterns == 0
    w = np.where(free, flat[np.newaxis, :], np.where(patterns == 2, 1.0, 0.0))
    free_counts = free.sum(axis=1)
    # Free coordinates of each pattern that each row touches.
    free_per_row = free.astype(float) @ (c_rows != 0.0).T

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
            # An active row without a free coordinate gives the reduced Gram
            # matrix a zero row, and fewer free coordinates than active rows
            # leave it rank deficient: both are exactly singular, so drop
            # those patterns up front.
            eligible = (free_counts >= r) & np.all(free_per_row[:, row_mask] > 0.0, axis=1)
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
