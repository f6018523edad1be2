"""Seeded check that ``converged=True`` is a certificate from both solvers.

Both iterative solvers stop on the relative Frank–Wolfe gap of a feasible
iterate, which bounds its relative gap to the optimal download time.  On
scenarios drawn on wide axes (:func:`conftest.probe_scenario`: up to 7
stations, sizes U(0.2, 3), Zipf exponents 0 to 2.5 in random order,
capacity from 5% to 120% of the catalog, loads up to 1e-4 below
saturation), a converged run at the solver's default ``tol`` must be
within ``tol`` of the exact optimum, relative.  A run that reaches its
iteration cap certifies nothing; the count of those is pinned, so that a
change in it shows.
"""

import numpy as np
import pytest

from fogcache import adt_curve, heuristic_solve, projected_gradient_solve, solve

from conftest import probe_scenario

SEED = 7
COUNT = 50

#: Each solver at its defaults, with its default ``tol`` and the number of
#: the ``COUNT`` cases that reach its iteration cap.
SOLVERS = {
    "admm": (solve, 1e-6, 1),
    "pgd": (projected_gradient_solve, 1e-8, 0),
}


@pytest.fixture(scope="module")
def cases():
    """The seeded scenarios, each with its exact optimal download time."""
    rng = np.random.default_rng(SEED)
    scenarios = [probe_scenario(rng) for _ in range(COUNT)]
    return [
        (scenario, float(adt_curve(heuristic_solve(scenario).h_star, scenario.traffic)))
        for scenario in scenarios
    ]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_converged_certifies_the_relative_gap(cases, solver):
    run, tol, capped = SOLVERS[solver]
    unconverged = []
    for index, (scenario, optimum) in enumerate(cases):
        result = run(scenario)
        if not result.converged:
            unconverged.append(index)
            continue
        gap = (result.adt - optimum) / optimum
        assert gap <= tol, f"case {index}: converged at relative gap {gap:.3g}"
    assert len(unconverged) == capped, unconverged
