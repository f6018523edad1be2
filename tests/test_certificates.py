"""Seeded checks of the exact answer and of ``converged=True`` as a certificate.

On scenarios drawn on wide axes (:func:`conftest.probe_scenario`: up to 7
stations, sizes U(0.2, 3), Zipf exponents 0 to 2.5 in random order,
capacity from 5% to 120% of the catalog, loads up to 1e-4 below
saturation), the heuristic's ``h*`` must be the optimum by its own
optimality conditions, its regime threshold the lowest crossing that a load
scan finds, and its placement must be feasible and realize ``h*``.

Both iterative solvers stop on the relative Frank–Wolfe gap of a feasible
iterate, which bounds its relative gap to the optimal download time ``D*``.
Every run must converge, within ``tol`` of ``D*``, relative: ADMM at the
default :class:`~fogcache.admm.SolverConfig`, projected gradient at ``tol``
1e-8.  A run that reaches its iteration cap certifies nothing, so the test
names every such case.  No run's feasible placement may beat ``D*`` by more
than rounding, and projected gradient's last Frank–Wolfe gap must bound its
true relative gap.

Each solver's run on each case comes from :func:`conftest.solved`, so
``tests/test_order_invariance.py`` reads the same runs for its unpermuted
side instead of solving the cases again.  The cases are the
``probe_scenarios`` fixture: 50 in tier-1, and more in
``tests/test_probe.py``, which runs these tests again under the ``probe``
marker.
"""

import numpy as np
import pytest

from fogcache import (
    SolverConfig,
    adt_curve,
    adt_slope,
    echr,
    heuristic_solve,
    projected_gradient_solve,
    solve,
)
from fogcache._roots import TOL
from fogcache.model import validate_placement

from conftest import solved
from oracle import assert_lowest_crossing

#: Each solver with its config.
SOLVERS = {
    "admm": (solve, SolverConfig()),
    "pgd": (projected_gradient_solve, SolverConfig(tol=1e-8)),
}


def with_optimum(scenarios):
    """Each of ``scenarios`` with its heuristic result and ``D*``."""
    results = [heuristic_solve(scenario) for scenario in scenarios]
    return [
        (scenario, result, float(adt_curve(result.h_star, scenario.traffic)))
        for scenario, result in zip(scenarios, results)
    ]


@pytest.fixture(scope="module")
def cases(probe_scenarios):
    """The seeded scenarios, each with its heuristic result and ``D*``."""
    return with_optimum(probe_scenarios)


def _runs(solver, cases):
    """``solver``'s result on every case, shared across the session."""
    run, config = SOLVERS[solver]
    return [solved(run, scenario, config) for scenario, _, _ in cases]


def test_h_star_meets_its_optimality_conditions(cases):
    # Interior (CPL): the slope changes sign across h*, within the root
    # finder's own stop.  At the storage bound (CSL): the slope is not
    # positive there, so no feasible h does better.
    regimes = []
    for index, (scenario, result, _) in enumerate(cases):
        traffic, h = scenario.traffic, result.h_star
        slope_at_csl = float(adt_slope(result.h_csl, traffic))
        assert result.regime == ("CPL" if slope_at_csl >= 0.0 else "CSL"), f"case {index}"
        if result.h_cpl < result.h_csl:
            assert h == result.h_cpl
            e = max(TOL, 4.0 * np.spacing(h))
            assert adt_slope(h - e, traffic) <= 0.0 <= adt_slope(h + e, traffic), f"case {index}"
        else:
            assert h == result.h_csl
            assert slope_at_csl <= 0.0, f"case {index}"
        regimes.append(result.regime)
    # Both branches above are exercised.
    assert set(regimes) == {"CPL", "CSL"}


def test_threshold_is_the_lowest_crossing(cases):
    for scenario, result, _ in cases:
        assert_lowest_crossing(result.h_csl, scenario.traffic, result.lambda_star)


def test_heuristic_placement_is_feasible_and_realizes_h_star(cases):
    for index, (scenario, result, _) in enumerate(cases):
        validate_placement(result.placement, scenario.library, scenario.cluster)
        realized = echr(result.placement, scenario.library)
        assert abs(realized - result.h_star) <= 1e-12, f"case {index}"


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_converged_certifies_the_relative_gap(cases, solver):
    _, config = SOLVERS[solver]
    unconverged = []
    for index, ((_, _, optimum), result) in enumerate(zip(cases, _runs(solver, cases))):
        if not result.converged:
            unconverged.append(index)
            continue
        gap = (result.adt - optimum) / optimum
        assert gap <= config.tol, f"case {index}: converged at relative gap {gap:.3g}"
    assert unconverged == []


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_no_run_beats_the_optimum(cases, solver):
    for index, ((_, _, optimum), result) in enumerate(zip(cases, _runs(solver, cases))):
        assert result.adt >= optimum * (1.0 - 1e-12), f"case {index}"


def test_projected_gradient_gap_bounds_the_true_gap(cases):
    # Converged or not, the last Frank-Wolfe gap bounds the true relative
    # gap, up to rounding.
    for index, ((_, _, optimum), result) in enumerate(zip(cases, _runs("pgd", cases))):
        true_gap = (result.adt - optimum) / result.adt
        assert true_gap <= result.trace[-1].dual_residual + 1e-15, f"case {index}"


def test_projected_gradient_objective_never_rises(cases):
    # The Armijo search is monotone, so a capped run's last iterate is its best.
    for index, result in enumerate(_runs("pgd", cases)):
        values = [record.objective for record in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:])), f"case {index}"
