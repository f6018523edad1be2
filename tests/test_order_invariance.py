"""Metamorphic tests: the order of contents and of nodes carries no meaning.

Listing the contents in another order, each with its popularity and size,
or the nodes in another order, each with its traffic, describes the same
scenario.  Every solver must then reach the same hit ratios and the same
optimal download time ``D*``.

The heuristic sums its storage bound in density order, which no listing
order changes, so its hit ratios and regime must match exactly.  The other
routes add and multiply in another order once the contents or nodes move,
so they get rounding-level slack: a relative 1e-15 for the grid's ``D*``,
and a relative 1e-9 for ADMM and projected gradient, whose stopping tests a
rounding-level difference may move by one iteration.  Any dependence on
order that is not rounding is far larger.

Each test runs on small mixed-size scenarios and on the wide-axis probe
cases of the certificate tests.  The unpermuted side of each case is solved
through :func:`conftest.solved`, so on the probe cases both order tests read
the runs of ``tests/test_certificates.py``, and only the permuted side is
solved here.  Node order is checked on the download time alone: the total
capacity is summed in node order, so ``h_csl`` may move by an ulp when the
nodes move.
"""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    TrafficProfile,
    grid_bruteforce,
    heuristic_solve,
    projected_gradient_solve,
    solve,
)

from conftest import mixed_size_scenarios, probe_cases, solved

#: The three routes to ``D*``, the paper's algorithm and both cross-checks:
#: each a solver, its argument after the scenario, and the relative slack.
ROUTES = {
    "admm": (solve, SolverConfig(), 1e-9),
    "pgd": (projected_gradient_solve, SolverConfig(tol=1e-8), 1e-9),
    "grid": (grid_bruteforce, 1e-4, 1e-15),
}


def _optimal_adt(result):
    """``D*`` from a solver's result, or from the grid's ``(h, D)`` pair."""
    return result[1] if isinstance(result, tuple) else result.adt


def _cases(seed, count=8):
    """``mixed_size_scenarios(seed, count)``, then the probe cases, each with
    the generator to draw its permutation from."""
    yield from mixed_size_scenarios(seed, count)
    rng = np.random.default_rng(seed)
    for scenario in probe_cases():
        yield rng, scenario


def _permute_contents(scenario, order):
    library = scenario.library
    return Scenario(
        ContentLibrary(library.popularity[order], library.sizes[order]),
        scenario.cluster,
        scenario.traffic,
    )


def _permute_nodes(scenario, order):
    traffic = scenario.traffic
    return Scenario(
        scenario.library,
        FogCluster(scenario.cluster.capacities[order]),
        TrafficProfile(traffic.lam[order], traffic.mu_e[order], traffic.mu_b[order]),
    )


def test_heuristic_ignores_content_order():
    for rng, scenario in _cases(101, count=40):
        permuted = _permute_contents(scenario, rng.permutation(scenario.library.count))
        base, other = heuristic_solve(scenario), heuristic_solve(permuted)
        assert (other.h_csl, other.h_cpl, other.h_star, other.regime) == (
            base.h_csl, base.h_cpl, base.h_star, base.regime
        )


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_optimal_adt_ignores_content_order(route):
    run, argument, rel = ROUTES[route]
    for rng, scenario in _cases(202):
        permuted = _permute_contents(scenario, rng.permutation(scenario.library.count))
        assert _optimal_adt(run(permuted, argument)) == pytest.approx(
            _optimal_adt(solved(run, scenario, argument)), rel=rel
        )


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_optimal_adt_ignores_node_order(route):
    run, argument, rel = ROUTES[route]
    for rng, scenario in _cases(303):
        permuted = _permute_nodes(scenario, rng.permutation(scenario.cluster.node_count))
        assert _optimal_adt(run(permuted, argument)) == pytest.approx(
            _optimal_adt(solved(run, scenario, argument)), rel=rel
        )
