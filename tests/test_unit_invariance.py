"""Metamorphic tests: the unit of time carries no meaning for ADMM.

Multiplying every rate by ``c`` (seconds to milliseconds is ``c = 1e3``)
describes the same scenario with every time divided by ``c``.  ADMM's
penalty starts at a value that scales as ``D`` does, it balances the
penalty on unit-free residual ratios, and it stops on a relative gap, so
the run must take the same iterations to the same placement, and report
``D / c``.  Scaling by a power of two is exact in floating point, so there
the run is bit-identical.
"""

import numpy as np
import pytest

from fogcache import Scenario, TrafficProfile, solve

from conftest import make_scenario, mixed_size_scenarios


def _rates_times(scenario, c):
    traffic = scenario.traffic
    return Scenario(
        scenario.library,
        scenario.cluster,
        TrafficProfile(traffic.lam * c, traffic.mu_e * c, traffic.mu_b * c),
    )


SCENARIOS = [make_scenario()] + [scenario for _, scenario in mixed_size_scenarios(404)]


@pytest.mark.parametrize("c", [1e-3, 2.0**-7, 1e3])
def test_admm_ignores_the_unit_of_time(c):
    for scenario in SCENARIOS:
        base, scaled = solve(scenario), solve(_rates_times(scenario, c))
        assert base.converged and scaled.converged
        assert scaled.iterations == base.iterations
        np.testing.assert_allclose(
            scaled.placement.matrix, base.placement.matrix, rtol=0, atol=1e-12
        )
        assert scaled.adt == pytest.approx(base.adt / c, rel=1e-12)
        if np.log2(c).is_integer():
            np.testing.assert_array_equal(scaled.placement.matrix, base.placement.matrix)
            assert scaled.adt == base.adt / c
