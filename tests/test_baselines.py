"""Tests for the independent cross-checks and the test-side projection oracle."""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    TrafficProfile,
    adt_curve,
    grid_bruteforce,
    heuristic_solve,
    overall_adt,
    projected_gradient_solve,
)
from fogcache.model import validate_placement

from oracle import fixed_step_projected_gradient, project_placement, qp_projection_oracle

from conftest import (
    ADT_OPT,
    GRID_ADT_BEST,
    GRID_H_BEST,
    H_CPL,
    HETERO_ADT_OPT,
    REFERENCE,
    make_scenario,
    mixed_size_scenarios,
    random_projection_instance,
    solved,
)


def _seed_303(index, contents, capacity):
    """Case ``index`` of ``mixed_size_scenarios(303)``, checked to be the
    one-node case of ``contents`` contents and ``capacity`` storage."""

    def build():
        scenario = list(mixed_size_scenarios(303))[index][1]
        assert scenario.library.count == contents
        assert scenario.cluster.capacities == pytest.approx([capacity], abs=5e-3)
        return scenario

    return build


_HARD_CASES = {
    "seed303-F12": _seed_303(5, 12, 7.80),
    "seed303-F6": _seed_303(7, 6, 5.44),
    "rates-x1e-3": lambda: make_scenario(lam=4e-3, mu_e=8e-3, mu_b=6e-3),
    "rates-x1e3": lambda: make_scenario(lam=4e3, mu_e=8e3, mu_b=6e3),
    **{
        f"lam-mu_b(1-1e-{k})": (lambda k=k: make_scenario(lam=6.0 * (1.0 - 10.0**-k)))
        for k in (2, 6, 10)
    },
}


@pytest.fixture(scope="module")
def pgd_reference():
    """Projected gradient at ``tol`` 1e-8 on the reference scenario, run once."""
    return projected_gradient_solve(make_scenario(), SolverConfig(tol=1e-8))


class TestProjectedGradient:
    def test_reference_scenario_reaches_the_optimum(self, pgd_reference, reference_scenario):
        result = pgd_reference
        assert result.converged
        assert result.adt == pytest.approx(ADT_OPT, abs=1e-10)
        assert result.echr == pytest.approx(H_CPL, abs=1e-6)
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)

    def test_iteration_count_is_pinned(self):
        # The paper's fixed-step baseline on the N x F placement; the count
        # pins its iterates.
        assert solved(fixed_step_projected_gradient, REFERENCE).iterations == 2734

    def test_trace_schema(self, reference_scenario):
        result = projected_gradient_solve(reference_scenario, SolverConfig(max_iter=200))
        assert len(result.trace) == result.iterations
        first = result.trace[0]
        assert first.k == 1
        # The objective column decreases monotonically under Armijo descent.
        values = [record.objective for record in result.trace]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_iterates_do_not_depend_on_the_stopping_rule(self, reference_scenario):
        short = projected_gradient_solve(reference_scenario, SolverConfig(tol=1e-8, max_iter=3))
        long = projected_gradient_solve(reference_scenario, SolverConfig())
        assert not short.converged and long.iterations > 3
        assert [record.objective for record in short.trace] == [
            record.objective for record in long.trace[:3]
        ]

    def test_iteration_cap_flags_nonconvergence(self, reference_scenario):
        result = projected_gradient_solve(reference_scenario, SolverConfig(tol=1e-8, max_iter=3))
        assert not result.converged
        assert result.iterations == 3

    def test_heterogeneous_scenario_value(self, hetero_scenario):
        # A relative gap of 1e-6 certifies the objective to within 2e-7
        # here; the value lands well under 1e-8 from the optimum.
        result = projected_gradient_solve(hetero_scenario, SolverConfig())
        assert result.converged
        assert result.adt == pytest.approx(HETERO_ADT_OPT, abs=1e-8)

    @pytest.mark.parametrize("case", sorted(_HARD_CASES))
    def test_certified_gap_on_hard_cases(self, case):
        # The gradient's scale moves by orders of magnitude across these
        # cases, one way with rates x1e3, the other with rates x1e-3 and
        # loads next to saturation.  A fixed first step stopped at the cap,
        # unconverged, on the rates x1e3 and on the two small storage-limited
        # cases with unequal sizes; the first step 1/max|g| scales with it.
        scenario = _HARD_CASES[case]()
        config = SolverConfig(tol=1e-8)
        result = projected_gradient_solve(scenario, config)
        optimum = float(adt_curve(heuristic_solve(scenario).h_star, scenario.traffic))
        assert result.converged
        gap = (result.adt - optimum) / optimum
        assert gap <= config.tol
        # The Frank-Wolfe gap bounds the true one, up to rounding.
        assert (result.adt - optimum) / result.adt <= result.trace[-1].dual_residual + 1e-15

    def test_the_spectral_step_cannot_cycle(self):
        # Storage-limited with h_csl = 0.99874.  With the step capped at an
        # absolute 1e10, its Barzilai-Borwein step reached the cap near the
        # optimum, the projection's input entries 1e9, where it is not a
        # projection, and the search cycled every 5 iterations at relative
        # gap 1.27e-3.  Capped in box widths, it converges.
        rank = [16, 20, 8, 10, 4, 12, 0, 11, 6, 7, 13, 14, 5, 19, 15, 3, 18, 9, 17, 2, 1]
        sizes = [2.3, 0.561, 1.526, 2.018, 1.586, 2.13, 2.371, 2.799, 2.017, 0.693, 2.351,
                 1.386, 2.156, 2.13, 2.684, 1.85, 0.843, 1.337, 1.938, 1.798, 0.742]
        scenario = Scenario(
            ContentLibrary(ContentLibrary.zipf(21, 2.5).popularity[rank], sizes),
            FogCluster([32.0]),
            TrafficProfile([1.079], [4.502], [1.204]),
        )
        config = SolverConfig(tol=1e-8, max_iter=200)
        result = projected_gradient_solve(scenario, config)
        optimum = float(adt_curve(heuristic_solve(scenario).h_star, scenario.traffic))
        assert result.converged
        assert (result.adt - optimum) / optimum <= config.tol


class TestGridBruteforce:
    def test_reference_fine_grid(self, reference_scenario):
        h_best, adt_best = grid_bruteforce(reference_scenario, 1e-5)
        assert h_best == pytest.approx(GRID_H_BEST, abs=1e-12)
        assert adt_best == pytest.approx(GRID_ADT_BEST, abs=1e-14)
        # The grid value can only overshoot the true optimum, and only by
        # a quadratic-in-resolution margin.
        assert ADT_OPT <= adt_best <= ADT_OPT + 1e-9

    def test_grid_covers_the_storage_bound(self):
        # In the storage-limited regime the best grid point sits at the top
        # of the reachable range, one resolution step below the bound.
        scenario = make_scenario(lam=2.0)
        h_best, adt_best = grid_bruteforce(scenario, 1e-5)
        assert h_best == pytest.approx(0.69380, abs=1e-12)
        assert adt_best == pytest.approx(0.16175829392168428, abs=1e-14)

    def test_refinement_never_hurts(self, reference_scenario):
        coarse = grid_bruteforce(reference_scenario, 1e-2)[1]
        fine = grid_bruteforce(reference_scenario, 1e-4)[1]
        assert fine <= coarse + 1e-15

    def test_degenerate_resolution_keeps_the_origin(self, reference_scenario):
        h_best, adt_best = grid_bruteforce(reference_scenario, 1.5)
        assert h_best == 0.0
        assert adt_best == pytest.approx(0.5)

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, float("nan")])
    def test_rejects_a_nonpositive_resolution(self, reference_scenario, resolution):
        with pytest.raises(
            ValueError, match=f"^resolution must be positive and finite, got {resolution}$"
        ):
            grid_bruteforce(reference_scenario, resolution)

    def test_rejects_an_infinite_resolution(self, reference_scenario):
        with pytest.raises(ValueError, match="^resolution must be positive and finite, got inf$"):
            grid_bruteforce(reference_scenario, float("inf"))


class TestQpProjectionOracle:
    def test_box_only_instance(self):
        assert qp_projection_oracle(np.array([[1.7]]), [1.0], [10.0])[0, 0] == pytest.approx(1.0)

    def test_independent_capacity_clips(self):
        # Capacities small enough that every row constraint binds on its own:
        # the projection is elementwise clipping.
        capacities = np.array([0.2171, 0.000171, 0.0469, 0.2448, 0.2521])
        x = np.array([[1.159], [0.4437], [1.204], [0.2097], [0.6183]])
        expected = np.minimum(np.maximum(x, 0.0), capacities[:, np.newaxis])
        np.testing.assert_allclose(qp_projection_oracle(x, [1.0], capacities), expected, atol=1e-10)
        # Regression: the iterative projection once stopped early on this
        # shape of instance, leaving one coordinate short of its clip value.
        projected = project_placement(x, [1.0], capacities)
        np.testing.assert_allclose(projected, expected, atol=1e-8)

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError, match="12 variables"):
            qp_projection_oracle(np.zeros((1, 13)), np.ones(13), [5.0])

    def test_agrees_with_iterative_projection(self):
        rng = np.random.default_rng(424242)
        worst = 0.0
        for _ in range(40):
            x, library, cluster = random_projection_instance(rng)
            z_iter = project_placement(x, library.sizes, cluster.capacities)
            z_oracle = qp_projection_oracle(x, library.sizes, cluster.capacities)
            worst = max(worst, float(np.max(np.abs(z_iter - z_oracle))))
        assert worst < 1e-7

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "project_placement is exact near the set only: with the query scaled "
        "by 1e3 it misses the projection by up to 0.34 on 2 of the 200"))
    def test_misses_the_projection_far_outside_the_set(self):
        # Scaled by 1, 10 or 100 these 200 queries match within 1.5e-12; the
        # fixed-step baseline queries the projection near the set.  Mending
        # the far case turns this into a pass, which strict xfail reports.
        rng = np.random.default_rng(31337)
        for _ in range(200):
            x, library, cluster = random_projection_instance(rng)
            x = x * 1e3
            z = project_placement(x, library.sizes, cluster.capacities)
            oracle = qp_projection_oracle(x, library.sizes, cluster.capacities)
            assert float(np.max(np.abs(z - oracle))) <= 1e-6
