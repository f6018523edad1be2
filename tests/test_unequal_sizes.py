"""Every solver on libraries of unequal content sizes, against brute force.

Content sizes weight only the node-capacity rows, so the download time is
still a function of the hit ratio alone and the optimum is
``D(min(h_cpl, h_csl))``.  ``h_csl`` comes from :func:`oracle.h_csl_oracle`,
a vertex enumeration that shares no code with the solvers.
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
    adt_slope,
    echr,
    grid_bruteforce,
    heuristic_solve,
    overall_adt,
    projected_gradient_solve,
    solve,
)
from fogcache.model import validate_placement, zipf_popularity

from oracle import h_csl_oracle

from conftest import random_feasible_placement


def _instance(rng, regime, homogeneous):
    """Sizes U(0.2, 5); ``regime`` sets storage and load so that the storage
    bound (``"CSL"``) or the stationary point (``"CPL"``) is likely to bind."""
    f, n = int(rng.integers(2, 11)), int(rng.integers(1, 5))
    sizes = rng.uniform(0.2, 5.0, size=f)
    library = ContentLibrary(zipf_popularity(f, float(rng.uniform(0.3, 1.5))), sizes)
    share, load = ((0.1, 0.5), (0.1, 0.5)) if regime == "CSL" else ((0.6, 1.2), (0.6, 0.95))
    cluster = FogCluster(rng.uniform(*share) * sizes.sum() * rng.dirichlet(np.ones(n)))
    width = 1 if homogeneous else n
    mu_b = np.broadcast_to(rng.uniform(1.5, 8.0, size=width), n)
    mu_e = mu_b * np.broadcast_to(rng.uniform(1.25, 3.0, size=width), n)
    lam = mu_b * np.broadcast_to(rng.uniform(*load, size=width), n)
    return Scenario(library, cluster, TrafficProfile(lam, mu_e, mu_b))


def _instances():
    rng = np.random.default_rng(20260418)
    return [
        _instance(rng, regime, homogeneous)
        for regime in ("CSL", "CPL")
        for homogeneous in (True, False)
        for _ in range(10)
    ]


INSTANCES = _instances()


def _optimum(scenario):
    """``(h_opt, adt_opt)`` from the brute-force storage bound."""
    library = scenario.library
    h_csl = h_csl_oracle(library.popularity, library.sizes, scenario.cluster.total_capacity)
    h_opt = min(heuristic_solve(scenario).h_cpl, h_csl)
    return h_opt, adt_curve(h_opt, scenario.traffic)


def test_instances_cover_both_regimes_and_unequal_sizes():
    regimes = [heuristic_solve(scenario).regime for scenario in INSTANCES]
    assert regimes.count("CSL") >= 10 and regimes.count("CPL") >= 10
    assert all(np.ptp(scenario.library.sizes) > 0.0 for scenario in INSTANCES)


@pytest.mark.parametrize("scenario", INSTANCES)
def test_heuristic_reaches_the_brute_force_optimum(scenario):
    library = scenario.library
    result = heuristic_solve(scenario)
    h_csl = h_csl_oracle(library.popularity, library.sizes, scenario.cluster.total_capacity)
    assert result.h_csl == pytest.approx(h_csl, abs=1e-12)
    h_opt, adt_opt = _optimum(scenario)
    assert result.h_star == pytest.approx(h_opt, abs=1e-12)
    assert overall_adt(result.placement, scenario).overall == pytest.approx(adt_opt, rel=1e-12)


@pytest.mark.parametrize("scenario", INSTANCES)
def test_admm_converges_to_the_optimum(scenario):
    result = solve(scenario)
    assert result.converged
    validate_placement(result.placement, scenario.library, scenario.cluster)
    _, adt_opt = _optimum(scenario)
    assert result.adt == pytest.approx(adt_opt, rel=1e-6)


@pytest.mark.parametrize("scenario", INSTANCES)
def test_projected_gradient_never_beats_the_optimum(scenario):
    # Any iteration cap keeps the iterate feasible, hence no better than
    # the optimum.
    result = projected_gradient_solve(scenario, SolverConfig(tol=1e-8, max_iter=200))
    report = overall_adt(result.placement, scenario)
    _, adt_opt = _optimum(scenario)
    assert result.adt == report.overall
    assert min(result.adt, report.overall) >= adt_opt - 1e-12


@pytest.mark.parametrize("scenario", INSTANCES)
def test_grid_bruteforce_agrees(scenario):
    resolution = 1e-4
    h_best, adt_best = grid_bruteforce(scenario, resolution)
    h_opt, adt_opt = _optimum(scenario)
    assert abs(h_best - h_opt) <= resolution + 1e-12
    # D falls up to h_opt, and the grid holds a point within one step below it.
    assert adt_opt - 1e-12 <= adt_best
    assert adt_best <= adt_curve(max(h_opt - resolution, 0.0), scenario.traffic) + 1e-12


def test_gradient_at_an_unequal_size_placement():
    # Sizes weigh only the capacity rows: D's partial derivative in entry
    # (i, f) is still D'(h) * popularity[f], on every node.
    scenario = INSTANCES[0]
    rng = np.random.default_rng(5)
    placement = random_feasible_placement(rng, scenario.library, scenario.cluster)
    slope = adt_slope(echr(placement, scenario.library), scenario.traffic)
    e = 1e-6
    for i, f in np.ndindex(placement.matrix.shape):
        bumped = [placement.matrix.copy(), placement.matrix.copy()]
        bumped[0][i, f] += e
        bumped[1][i, f] -= e
        up, down = (overall_adt(matrix, scenario).overall for matrix in bumped)
        fd = (up - down) / (2 * e)
        partial = slope * scenario.library.popularity[f]
        assert partial == pytest.approx(fd, rel=1e-6, abs=1e-12)
