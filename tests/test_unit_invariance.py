"""Metamorphic tests: the units of time and of size carry no meaning for
either iterative solver.

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
"""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    TrafficProfile,
    projected_gradient_solve,
    solve,
)

from conftest import make_scenario, mixed_size_scenarios

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


SCENARIOS = [make_scenario()] + [scenario for _, scenario in mixed_size_scenarios(404)]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("c", [1e-3, 2.0**-7, 1e3])
def test_solvers_ignore_the_unit_of_time(solver, c):
    run = SOLVERS[solver]
    for scenario in SCENARIOS:
        base, scaled = run(scenario), run(_rates_times(scenario, c))
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
        base, scaled = run(scenario), run(_sizes_times(scenario, c))
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
