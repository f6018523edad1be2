"""Tests for the independent cross-checks and the test-side projection oracle."""

from dataclasses import fields

import numpy as np
import pytest

from fogcache import (
    BaselineConfig,
    ContentLibrary,
    FogCluster,
    grid_bruteforce,
    overall_adt,
    projected_gradient_solve,
)
from fogcache.admm import ConstraintSystem, project_feasible
from fogcache.model import validate_placement

from oracle import qp_projection_oracle

from conftest import (
    ADT_OPT,
    GRID_ADT_BEST,
    GRID_H_BEST,
    H_CPL,
    HETERO_ADT_OPT,
    make_scenario,
    random_projection_instance,
)


class TestBaselineConfig:
    def test_defaults(self):
        config = BaselineConfig()
        assert config.tol == 1e-8
        assert config.max_iter == 5000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": float("nan")},
            {"max_iter": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BaselineConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_max_iter_is_named(self, value):
        with pytest.raises(ValueError, match="^max_iter must be an integer"):
            BaselineConfig(max_iter=value)

    def test_has_exactly_the_stopping_rule_fields(self):
        assert [field.name for field in fields(BaselineConfig)] == ["tol", "max_iter"]


@pytest.fixture(scope="module")
def pgd_reference():
    """Projected gradient at its defaults on the reference scenario, run once."""
    return projected_gradient_solve(make_scenario())


class TestProjectedGradient:
    def test_reference_scenario_reaches_the_optimum(self, pgd_reference, reference_scenario):
        result = pgd_reference
        assert result.converged
        assert result.adt == pytest.approx(ADT_OPT, abs=1e-10)
        assert result.echr == pytest.approx(H_CPL, abs=1e-6)
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)

    def test_iteration_count_is_pinned(self, pgd_reference):
        # Warm-starting the projection may move each iterate by rounding
        # only; this count pins the iterates of the cold-start solver.
        assert pgd_reference.iterations == 2734

    def test_trace_schema(self, reference_scenario):
        result = projected_gradient_solve(
            reference_scenario, BaselineConfig(tol=1e-6, max_iter=200)
        )
        assert len(result.trace) == result.iterations
        first = result.trace[0]
        assert first.k == 1
        # The objective column decreases monotonically under Armijo descent.
        values = [record.objective for record in result.trace]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_iterates_do_not_depend_on_the_stopping_rule(self, reference_scenario):
        short = projected_gradient_solve(reference_scenario, BaselineConfig(max_iter=5))
        long = projected_gradient_solve(reference_scenario, BaselineConfig(tol=1e-6))
        assert [record.objective for record in short.trace] == [
            record.objective for record in long.trace[:5]
        ]

    def test_iteration_cap_flags_nonconvergence(self, reference_scenario):
        result = projected_gradient_solve(reference_scenario, BaselineConfig(max_iter=5))
        assert not result.converged
        assert result.iterations == 5

    def test_heterogeneous_scenario_value(self, hetero_scenario):
        # The default mapping tolerance converges very slowly here; a mildly
        # looser one settles the objective to well under 1e-8.
        result = projected_gradient_solve(hetero_scenario, BaselineConfig(tol=1e-6))
        assert result.converged
        assert result.adt == pytest.approx(HETERO_ADT_OPT, abs=1e-8)


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

    def test_rejects_nonpositive_resolution(self, reference_scenario):
        with pytest.raises(ValueError):
            grid_bruteforce(reference_scenario, 0.0)

    def test_rejects_an_infinite_resolution(self, reference_scenario):
        with pytest.raises(ValueError, match="^resolution must be positive and finite, got inf$"):
            grid_bruteforce(reference_scenario, float("inf"))


class TestQpProjectionOracle:
    def test_box_only_instance(self):
        library = ContentLibrary([1.0])
        system = ConstraintSystem.build(library, FogCluster([10.0]))
        assert qp_projection_oracle(np.array([[1.7]]), system)[0, 0] == pytest.approx(1.0)

    def test_independent_capacity_clips(self):
        # Capacities small enough that every row constraint binds on its own:
        # the projection is elementwise clipping.
        library = ContentLibrary([1.0])
        capacities = np.array([0.2171, 0.000171, 0.0469, 0.2448, 0.2521])
        x = np.array([[1.159], [0.4437], [1.204], [0.2097], [0.6183]])
        system = ConstraintSystem.build(library, FogCluster(capacities))
        expected = np.minimum(np.maximum(x, 0.0), capacities[:, np.newaxis])
        np.testing.assert_allclose(qp_projection_oracle(x, system), expected, atol=1e-10)
        # Regression: the iterative projection once stopped early on this
        # shape of instance, leaving one coordinate short of its clip value.
        np.testing.assert_allclose(project_feasible(x, system), expected, atol=1e-8)

    def test_rejects_large_instances(self):
        library = ContentLibrary.zipf(13, 0.5)
        system = ConstraintSystem.build(library, FogCluster([5.0]))
        with pytest.raises(ValueError, match="12 variables"):
            qp_projection_oracle(np.zeros((1, 13)), system)

    def test_agrees_with_iterative_projection(self):
        rng = np.random.default_rng(424242)
        worst = 0.0
        for _ in range(40):
            x, library, cluster = random_projection_instance(rng)
            system = ConstraintSystem.build(library, cluster)
            z_iter = project_feasible(x, system)
            z_oracle = qp_projection_oracle(x, system)
            worst = max(worst, float(np.max(np.abs(z_iter - z_oracle))))
        assert worst < 1e-7
