"""Brute-force oracles for tests, independent of the solvers they check.

* :func:`qp_projection_oracle` — the exact Euclidean projection onto the
  feasible placement set, an independent cross-check of
  ``fogcache.admm.project_feasible``: it shares nothing with that dual
  Newton method, and builds its constraint rows itself from the content
  sizes and node capacities.
* :func:`h_csl_oracle` — the storage-limited hit ratio by vertex
  enumeration, an independent cross-check of the greedy knapsack in
  ``fogcache.heuristic``.
"""

import itertools

import numpy as np


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
