"""Pooled invariance: the solvers see the nodes only through their total capacity.

Both iterative solvers work on the F content totals under the one pooled
capacity, and the heuristic on the F portions of its greedy; each places
its answer on the nodes by first-fit afterwards, with every column summing
to its total exactly.  So the same total capacity split another way over
the nodes, in any order, must give bit-identical traces, iteration counts,
hit ratios and download times, and the heuristic bit-identical bounds,
threshold, regime, hit ratio and download time; and every placement must
be feasible, with at most ``F + N - 1`` nonzeros.

The capacities are whole multiples of ``2**-20``, so the total is the same
float in any split and any order.  The stations and the nodes are counted
apart, so each group keeps one traffic profile, of a probe case's 1-7
stations, and splits its capacity over 1 node, 2 nodes and a node count
drawn apart from the station count.
"""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    heuristic_solve,
    overall_adt,
    projected_gradient_solve,
    solve,
)
from fogcache.heuristic import _assign_first_fit, _greedy_fractions
from fogcache.model import validate_placement

from conftest import probe_scenario
from oracle import full_width_assign_first_fit, loop_assign_first_fit

#: The capacity quantum: sums of its multiples are exact in any order.
UNIT = 2.0**-20


def _split(rng, units, n):
    """``units`` quanta over ``n`` nodes, at least one each, in random order."""
    return FogCluster((rng.multinomial(units - n, np.full(n, 1.0 / n)) + 1) * UNIT)


def _groups(seed=41, count=12):
    """Groups of scenarios that share a library, a traffic profile and a
    total capacity, split over the nodes five ways: over 1 node, over 2,
    and three ways over ``n`` nodes, drawn apart from the station count (a
    split, the same split reordered, another split)."""
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(count):
        case = probe_scenario(rng)
        n = int(rng.integers(1, 8))
        units = max(round(case.cluster.total_capacity / UNIT), n, 2)
        split = _split(rng, units, n)
        reordered = FogCluster(split.capacities[rng.permutation(n)])
        clusters = (_split(rng, units, 1), _split(rng, units, 2), split, reordered,
                    _split(rng, units, n))
        groups.append([Scenario(case.library, cluster, case.traffic) for cluster in clusters])
    return groups


GROUPS = _groups()


def _outcome(result):
    return result.trace, result.iterations, result.converged, result.echr, result.adt


def _assert_first_fit(placement, scenario):
    """Feasible, at most ``F + N - 1`` nonzeros, no ``-0.0``, and columns
    that sum alike in row order and in reverse."""
    matrix = placement.matrix
    validate_placement(placement, scenario.library, scenario.cluster)
    assert np.count_nonzero(matrix) <= scenario.library.count + scenario.cluster.node_count - 1
    assert not np.any(np.signbit(matrix))
    np.testing.assert_array_equal(matrix.sum(axis=0), matrix[::-1].sum(axis=0))


def test_the_groups_have_more_stations_than_nodes_and_fewer():
    counts = [
        (scenario.traffic.station_count, scenario.cluster.node_count)
        for group in GROUPS
        for scenario in group
    ]
    assert any(stations > nodes for stations, nodes in counts)
    assert any(stations < nodes for stations, nodes in counts)


@pytest.mark.parametrize("run", [solve, projected_gradient_solve])
def test_only_the_total_capacity_reaches_the_solvers(run):
    for index, group in enumerate(GROUPS):
        assert len({scenario.cluster.total_capacity for scenario in group}) == 1
        results = [run(scenario, SolverConfig()) for scenario in group]
        for scenario, result in zip(group, results):
            _assert_first_fit(result.placement, scenario)
            assert _outcome(result) == _outcome(results[0]), f"group {index}"


def test_only_the_total_capacity_reaches_the_heuristic():
    for index, group in enumerate(GROUPS):
        outcomes = []
        for scenario in group:
            result = heuristic_solve(scenario)
            _assert_first_fit(result.placement, scenario)
            report = overall_adt(result.placement, scenario)
            outcomes.append(
                (result.h_csl, result.h_cpl, result.h_star, result.lambda_star, result.regime,
                 report.h_e, report.overall)
            )
        assert all(outcome == outcomes[0] for outcome in outcomes), f"group {index}"


def _first_fit_cases(rng):
    """Solver-like random totals whose demand fills the cluster, and the
    storage greedy's portions; each on a cluster with no zero-capacity node
    or with one placed first, in the middle or last."""
    for trial in range(24):
        f, n = int(rng.integers(2, 5001)), int(rng.integers(2, 51))
        sizes = rng.uniform(0.2, 3.0, size=f) if trial % 2 else np.ones(f)
        library = ContentLibrary(np.full(f, 1.0 / f), sizes)
        shares = rng.dirichlet(np.ones(n))
        zero = (None, 0, n // 2, n - 1)[trial % 4]
        if zero is not None:
            shares[zero] = 0.0
        if trial % 3 == 2:
            cluster = FogCluster(rng.uniform(0.0, 0.6) * sizes.sum() * shares)
            totals = _greedy_fractions(library, cluster)[0]
        else:
            totals = rng.uniform(0.0, 1.0, size=f) * (rng.random(f) < 0.8)
            # Totals so small that their demand interval rounds to a point.
            totals[rng.random(f) < 0.05] *= 1e-17
            cluster = FogCluster(float(totals @ sizes) * shares / shares.sum())
        yield library, cluster, totals


def test_first_fit_columns_sum_to_the_totals_exactly():
    # Up to 5000 contents over 50 nodes, so that first-fit cuts portions out
    # of cumulative sizes in the thousands, far coarser than the totals.
    rng = np.random.default_rng(5)
    for library, cluster, totals in _first_fit_cases(rng):
        f, n, sizes = library.count, cluster.node_count, library.sizes
        matrix = _assign_first_fit(totals, library, cluster).matrix
        np.testing.assert_array_equal(matrix.sum(axis=0), totals)
        np.testing.assert_array_equal(matrix[::-1].sum(axis=0), totals)
        assert np.all(matrix >= 0.0)
        assert not np.any(np.signbit(matrix))
        assert not matrix[cluster.capacities == 0.0].any()
        assert np.count_nonzero(matrix) <= f + n - 1
        np.testing.assert_array_equal(matrix, full_width_assign_first_fit(totals, library, cluster))
        # Nothing moves beyond the rounding of first-fit's cumulative sums
        # (of F sizes and N capacities, each off by at most its length in
        # ulps of the total) from the node-at-a-time first-fit, and no node
        # gains an entry except in a column that one leaves empty.
        loop = loop_assign_first_fit(totals, library, cluster)
        rounding = (f + n) * np.spacing(cluster.total_capacity) / sizes.min()
        assert np.max(np.abs(matrix - loop)) <= rounding
        gained = (matrix != 0.0) & (loop == 0.0)
        assert not np.any(gained[:, loop.any(axis=0)])
        validate_placement(matrix, library, cluster)


def test_a_point_of_demand_on_a_node_boundary_goes_to_the_node_it_starts():
    # The third total is so small that its demand interval is the point 2,
    # the end of the first node and the start of the zero-capacity second.
    library = ContentLibrary(np.full(4, 0.25))
    cluster = FogCluster([2.0, 0.0, 2.0])
    matrix = _assign_first_fit(np.array([1.0, 1.0, 1e-17, 1.0]), library, cluster).matrix
    np.testing.assert_array_equal(matrix, [[1.0, 1.0, 0.0, 0.0], [0.0] * 4, [0.0, 0.0, 1e-17, 1.0]])
