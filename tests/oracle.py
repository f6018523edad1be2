"""Brute-force oracles for tests, independent of the solvers they check,
and the paper's gradient baseline.

* :func:`qp_projection_oracle` — the exact Euclidean projection onto the
  feasible placement set, an independent cross-check of
  ``fogcache.admm.project_feasible``: it shares nothing with that dual
  Newton method, and builds its constraint rows itself from the content
  sizes and node capacities.
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
  claims the splitting solver converges faster.
"""

import itertools
import math

import numpy as np

from fogcache.admm import ConstraintSystem, IterationRecord, SolveResult, project_feasible
from fogcache.model import Placement
from fogcache.objective import _clamped_echr, _feasible_adt, _station_times, adt_slope


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


def fixed_step_projected_gradient(scenario, tol=1e-8, max_iter=5000):
    """Projected gradient descent with a fixed first step, the paper's baseline.

    Iterates ``p <- proj(p - t * grad D(p))``: each iteration tries the step
    ``1 / max(1, max|grad|)`` first, so no trial moves an entry by more than
    the box width, and halves it until the objective falls by at least
    ``1e-4 * ||p_new - p||**2 / step``.  It stops when the gradient-mapping
    norm ``||p - proj(p - t grad)|| / t`` drops below ``tol``, or returns the
    last iterate unconverged after ``max_iter`` iterations.  Each
    projection, Armijo trials included, starts from the capacity
    multipliers the one before it ended on.  The trace's residual columns
    carry the step displacement and the gradient-mapping norm.
    """
    library, cluster = scenario.library, scenario.cluster
    constraints = ConstraintSystem.build(library, cluster)
    p = np.zeros((cluster.node_count, library.count))
    duals = np.zeros(cluster.node_count)
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
            candidate = project_feasible(p - step * gradient, constraints, duals)
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


def qp_projection_oracle(x, constraints):
    """Exact Euclidean projection for small instances, by KKT enumeration.

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
    sizes = np.asarray(constraints.sizes, dtype=float)
    capacities = np.asarray(constraints.capacities, dtype=float)
    if n != capacities.size * sizes.size:
        raise ValueError("x does not match the constraint system")
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
