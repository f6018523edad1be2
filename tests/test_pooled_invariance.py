"""Pooled invariance: the solvers see the nodes only through their total capacity.

Both iterative solvers work on the F content totals under the one pooled
capacity and place the answer on the nodes by first-fit afterwards, with
every column summing to its total exactly.  So the same total capacity
split another way over the nodes, in any order, must give bit-identical
traces, iteration counts, hit ratios and download times; and every
placement must be feasible, with at most ``F + N - 1`` nonzeros.

Two things outside the solvers must stay fixed for a comparison bit for
bit.  The capacities are whole multiples of ``2**-20``, so the total is the
same float in any split and any order.  And the download time is the
traffic-weighted mean over the stations, whose rounding depends on the
station count, so a change of node count keeps the rates of one station:
one node against two identical stations, whose mean of two equal times is
exact.  Splits over a case's own N nodes keep its per-station traffic.
"""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    TrafficProfile,
    projected_gradient_solve,
    solve,
)
from fogcache.admm import _exact_columns
from fogcache.heuristic import _assign_first_fit
from fogcache.model import validate_placement

from conftest import probe_scenario

#: The capacity quantum: sums of its multiples are exact in any order.
UNIT = 2.0**-20


def _split(rng, units, n):
    """``units`` quanta over ``n`` nodes, at least one each, in random order."""
    return FogCluster((rng.multinomial(units - n, np.full(n, 1.0 / n)) + 1) * UNIT)


def _groups(seed=41, count=12):
    """Groups of scenarios that differ only in how one total capacity is
    split over the nodes: over 1 and 2 nodes, and three ways over a probe
    case's N nodes (a split, the same split reordered, another split)."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(count):
        case = probe_scenario(rng)
        library, traffic = case.library, case.traffic
        n = traffic.station_count
        units = max(round(case.cluster.total_capacity / UNIT), n)
        one = TrafficProfile(traffic.lam[:1], traffic.mu_e[:1], traffic.mu_b[:1])
        two = TrafficProfile(*(np.repeat(rates, 2) for rates in (one.lam, one.mu_e, one.mu_b)))
        groups.append(
            [Scenario(library, _split(rng, units, 1), one),
             Scenario(library, _split(rng, units, 2), two)]
        )
        split = _split(rng, units, n)
        reordered = FogCluster(split.capacities[rng.permutation(n)])
        groups.append(
            [Scenario(library, cluster, traffic)
             for cluster in (split, reordered, _split(rng, units, n))]
        )
    return groups


GROUPS = _groups()


def _outcome(result):
    return result.trace, result.iterations, result.converged, result.echr, result.adt


@pytest.mark.parametrize("run", [solve, projected_gradient_solve])
def test_only_the_total_capacity_reaches_the_solvers(run):
    for index, group in enumerate(GROUPS):
        assert len({scenario.cluster.total_capacity for scenario in group}) == 1
        results = [run(scenario, SolverConfig()) for scenario in group]
        for scenario, result in zip(group, results):
            validate_placement(result.placement, scenario.library, scenario.cluster)
            nonzeros = np.count_nonzero(result.placement.matrix)
            assert nonzeros <= scenario.library.count + scenario.cluster.node_count - 1
            assert _outcome(result) == _outcome(results[0]), f"group {index}"


def test_first_fit_columns_sum_to_the_totals_exactly():
    # Up to 5000 contents over 50 nodes, so that first-fit cuts portions out
    # of cumulative sizes in the thousands, far coarser than the totals.
    rng = np.random.default_rng(5)
    for trial in range(20):
        f, n = int(rng.integers(2, 5001)), int(rng.integers(1, 51))
        sizes = rng.uniform(0.2, 3.0, size=f) if trial % 2 else np.ones(f)
        library = ContentLibrary(np.full(f, 1.0 / f), sizes)
        totals = rng.uniform(0.0, 1.0, size=f) * (rng.random(f) < 0.8)
        cluster = FogCluster(float(totals @ sizes) * rng.dirichlet(np.ones(n)))
        first_fit = _assign_first_fit(totals, library, cluster).matrix
        matrix = _exact_columns(first_fit, totals)
        np.testing.assert_array_equal(matrix.sum(axis=0), totals)
        np.testing.assert_array_equal(matrix[::-1].sum(axis=0), totals)
        assert np.all(matrix >= 0.0)
        # Nothing moves beyond the rounding of first-fit's cumulative sums
        # (of F sizes and N capacities, each off by at most its length in
        # ulps of the total), and no node gains an entry except in a column
        # left empty.
        rounding = (f + n) * np.spacing(cluster.total_capacity) / sizes.min()
        assert np.max(np.abs(matrix - first_fit)) <= rounding
        gained = (matrix != 0.0) & (first_fit == 0.0)
        assert not np.any(gained[:, first_fit.any(axis=0)])
        validate_placement(matrix, library, cluster)
