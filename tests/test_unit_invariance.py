"""Metamorphic tests: the units of time and of size, and the grain of the
contents, carry no meaning for either iterative solver.

Multiplying every rate by ``c`` (seconds to milliseconds is ``c = 1e3``)
describes the same scenario with every time divided by ``c``.  ADMM's
penalty starts at a value that scales as ``D`` does, it balances the
penalty on unit-free residual ratios, and projected gradient's first step
moves the largest entry one box width; both stop on a relative gap, so the
run must take the same iterations to the same placement, and report
``D / c``.

Multiplying every size and capacity by ``c`` describes the same feasible
set, and the projection works in a power-of-two unit of the largest size,
so the run must again take the same iterations to the same placement, and
report the same ``D``.

Scaling by a power of two is exact in floating point, so there the run is
bit-identical.

Splitting every content into two halves, each with half its popularity and
half its size, leaves the optimum where it was.  The download time depends
on a placement only through its hit ratio, and the largest hit ratio that
storage allows is a fractional knapsack by density, popularity over size,
which both halves share with their whole.  So the optimal download time
``D*`` must not move, and both solvers must reach it.

Each unscaled run comes from :func:`conftest.solved`, so both unit tests
share, over every factor, one run of each solver per scenario.
"""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    TrafficProfile,
    adt_curve,
    heuristic_solve,
    projected_gradient_solve,
    solve,
)

from conftest import REFERENCE, mixed_size_scenarios, solved

SOLVERS = {"admm": solve, "pgd": projected_gradient_solve}


def _rates_times(scenario, c):
    traffic = scenario.traffic
    return Scenario(
        scenario.library,
        scenario.cluster,
        TrafficProfile(traffic.lam * c, traffic.mu_e * c, traffic.mu_b * c),
    )


def _sizes_times(scenario, c):
    library = scenario.library
    return Scenario(
        ContentLibrary(library.popularity, library.sizes * c),
        FogCluster(scenario.cluster.capacities * c),
        scenario.traffic,
    )


def _contents_split(scenario):
    library = scenario.library
    return Scenario(
        ContentLibrary(np.repeat(library.popularity / 2, 2), np.repeat(library.sizes / 2, 2)),
        scenario.cluster,
        scenario.traffic,
    )


def _optimal_adt(scenario):
    return float(adt_curve(heuristic_solve(scenario).h_star, scenario.traffic))


SCENARIOS = [REFERENCE] + [scenario for _, scenario in mixed_size_scenarios(404)]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("c", [1e-3, 2.0**-7, 1e3])
def test_solvers_ignore_the_unit_of_time(solver, c):
    run = SOLVERS[solver]
    for scenario in SCENARIOS:
        base = solved(run, scenario, SolverConfig())
        scaled = run(_rates_times(scenario, c), SolverConfig())
        assert base.converged and scaled.converged
        assert scaled.iterations == base.iterations
        np.testing.assert_allclose(
            scaled.placement.matrix, base.placement.matrix, rtol=0, atol=1e-12
        )
        assert scaled.adt == pytest.approx(base.adt / c, rel=1e-12)
        if np.log2(c).is_integer():
            np.testing.assert_array_equal(scaled.placement.matrix, base.placement.matrix)
            assert scaled.adt == base.adt / c


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("c", [1e-6, 2.0**20, 1e6])
def test_solvers_ignore_the_unit_of_size(solver, c):
    run = SOLVERS[solver]
    for scenario in SCENARIOS:
        base = solved(run, scenario, SolverConfig())
        scaled = run(_sizes_times(scenario, c), SolverConfig())
        assert base.converged and scaled.converged
        assert scaled.iterations == base.iterations
        # Outside a power of two the projection's unit differs from the
        # unscaled one by rounding, and its ascent stops at 1e-12 times the
        # largest capacity in that unit, up to 7.2 here: placements agree to
        # 1e-11, the download time, which reads their weighted sum, closer.
        np.testing.assert_allclose(
            scaled.placement.matrix, base.placement.matrix, rtol=0, atol=1e-11
        )
        assert scaled.adt == pytest.approx(base.adt, rel=1e-12)
        if np.log2(c).is_integer():
            np.testing.assert_array_equal(scaled.placement.matrix, base.placement.matrix)
            assert scaled.adt == base.adt


def test_splitting_every_content_leaves_the_optimum():
    for scenario in SCENARIOS:
        assert _optimal_adt(_contents_split(scenario)) == pytest.approx(
            _optimal_adt(scenario), rel=1e-15
        )


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solvers_reach_the_optimum_of_the_split_contents(solver):
    tol = SolverConfig().tol
    for scenario in SCENARIOS:
        result = SOLVERS[solver](_contents_split(scenario))
        assert result.converged
        assert result.adt == pytest.approx(_optimal_adt(scenario), rel=tol)
