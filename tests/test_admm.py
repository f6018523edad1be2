"""Tests for the splitting solver and the feasible-set projection."""

import tracemalloc

import numpy as np
import pytest

from fogcache import (
    AdmmConfig,
    ContentLibrary,
    FogCluster,
    adt_slope,
    echr,
    grid_bruteforce,
    heuristic_solve,
    overall_adt,
    solve,
)
from fogcache import admm
from fogcache.admm import ConstraintSystem, p_update, project_feasible
from fogcache.model import validate_placement

from oracle import qp_projection_oracle

from conftest import (
    ADT_OPT,
    H_CPL,
    HETERO_ADT_OPT,
    make_scenario,
    random_feasible_placement,
    random_projection_instance,
    random_scenario,
)

FAST = AdmmConfig(rho=0.02)


class TestAdmmConfig:
    def test_defaults(self):
        config = AdmmConfig()
        assert config.rho == 1.0
        assert config.eps_abs == 1e-6
        assert config.eps_rel == 1e-4
        assert config.max_iter == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho": 0.0},
            {"rho": -1.0},
            {"eps_abs": -1e-9},
            {"max_iter": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AdmmConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_max_iter_is_named(self, value):
        with pytest.raises(ValueError, match="^max_iter must be an integer"):
            AdmmConfig(max_iter=value)


class TestConstraintSystem:
    def test_shapes_and_values(self, reference_scenario):
        system = ConstraintSystem.build(reference_scenario.library, reference_scenario.cluster)
        assert system.a.shape == (20, 60)
        assert system.b.shape == (3, 60)
        np.testing.assert_array_equal(system.a_u, np.ones(20))
        np.testing.assert_array_equal(system.b_u, [2.0, 3.0, 5.0])

    def test_rows_compute_totals_and_loads(self, reference_scenario):
        rng = np.random.default_rng(5)
        placement = random_feasible_placement(
            rng, reference_scenario.library, reference_scenario.cluster
        )
        system = ConstraintSystem.build(reference_scenario.library, reference_scenario.cluster)
        vector = placement.matrix.ravel()
        np.testing.assert_allclose(system.a @ vector, placement.matrix.sum(axis=0), rtol=1e-14)
        np.testing.assert_allclose(
            system.b @ vector,
            placement.matrix @ reference_scenario.library.sizes,
            rtol=1e-14,
        )

    def test_build_stores_no_dense_matrices(self):
        # The dense rows at (F, N) = (2000, 20) would take 646 MB.
        scenario = make_scenario(count=2000, capacities=np.full(20, 100.0))
        tracemalloc.start()
        try:
            system = ConstraintSystem.build(scenario.library, scenario.cluster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (system.capacities.size, system.sizes.size) == (20, 2000)
        assert peak < 1_000_000


class TestProjectFeasible:
    def test_feasible_points_are_fixed(self, reference_scenario):
        rng = np.random.default_rng(8)
        system = ConstraintSystem.build(reference_scenario.library, reference_scenario.cluster)
        placement = random_feasible_placement(
            rng, reference_scenario.library, reference_scenario.cluster
        )
        projected = project_feasible(placement.matrix, system)
        np.testing.assert_allclose(projected, placement.matrix, atol=1e-9)

    def test_box_clipping(self):
        library = ContentLibrary([1.0])
        system = ConstraintSystem.build(library, FogCluster([10.0]))
        assert project_feasible(np.array([[1.7]]), system)[0, 0] == pytest.approx(1.0)
        assert project_feasible(np.array([[-0.3]]), system)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_capacity_halfspace(self):
        library = ContentLibrary([1.0])
        system = ConstraintSystem.build(library, FogCluster([0.4]))
        assert project_feasible(np.array([[0.9]]), system)[0, 0] == pytest.approx(0.4)

    def test_replication_halfspace_shifts_uniformly(self):
        library = ContentLibrary([1.0])
        system = ConstraintSystem.build(library, FogCluster([5.0, 5.0]))
        projected = project_feasible(np.array([[0.8], [0.7]]), system)
        np.testing.assert_allclose(projected, [[0.55], [0.45]], atol=1e-10)

    def test_tight_capacity_beats_uniform_shift(self):
        # One node has almost no storage: its share must go to the other
        # node's detriment, not split evenly.
        library = ContentLibrary([1.0])
        system = ConstraintSystem.build(library, FogCluster([0.05, 3.0]))
        projected = project_feasible(np.array([[0.9], [0.9]]), system)
        assert projected[0, 0] == pytest.approx(0.05, abs=1e-9)
        assert projected[1, 0] == pytest.approx(0.9, abs=1e-9)

    def test_unequal_sizes_scale_the_capacity_rows(self):
        library = ContentLibrary([0.6, 0.4], [2.0, 1.0])
        system = ConstraintSystem.build(library, FogCluster([1.0]))
        projected = project_feasible(np.array([[1.0, 1.0]]), system)
        load = float((projected @ library.sizes).item())
        assert load <= 1.0 + 1e-9

    def test_rejects_a_flat_vector(self, reference_scenario):
        system = ConstraintSystem.build(reference_scenario.library, reference_scenario.cluster)
        with pytest.raises(ValueError, match=r"\(3, 20\)"):
            project_feasible(np.full(60, 0.9), system)

    def test_idempotent_on_random_instances(self):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            scenario = random_scenario(rng)
            system = ConstraintSystem.build(scenario.library, scenario.cluster)
            x = rng.uniform(-0.5, 1.5, size=(scenario.cluster.node_count, scenario.library.count))
            z = project_feasible(x, system)
            z2 = project_feasible(z, system)
            np.testing.assert_allclose(z2, z, atol=1e-8)
            validate_placement(z, scenario.library, scenario.cluster)

    def test_exact_beyond_the_oracle_size(self):
        # Up to 20 nodes and 2000 contents, equal and unequal sizes: the
        # result is feasible, a fixed point, and satisfies the variational
        # inequality <x - z, w - z> <= 0 that characterizes the projection.
        rng = np.random.default_rng(20200206)
        for trial in range(12):
            n = int(rng.integers(1, 21))
            f = int(rng.integers(1, 2001))
            sizes = rng.uniform(0.5, 2.0, size=f) if trial % 2 else np.ones(f)
            library = ContentLibrary(np.full(f, 1.0 / f), sizes)
            share = float(rng.uniform(0.05, 1.1))
            cluster = FogCluster(share * sizes.sum() * rng.dirichlet(np.ones(n)))
            system = ConstraintSystem.build(library, cluster)
            x = rng.uniform(-0.6, 1.6, size=(n, f)) * rng.uniform(0.1, 1.0)
            z = project_feasible(x, system)
            violation = max(
                float(np.max(-z, initial=0.0)),
                float(np.max(z - 1.0, initial=0.0)),
                float(np.max(z.sum(axis=0) - 1.0, initial=0.0)),
                float(np.max(z @ sizes - cluster.capacities, initial=0.0)),
            )
            assert violation <= 1e-9
            np.testing.assert_allclose(project_feasible(z, system), z, atol=1e-9)
            bound = 1e-9 * (1.0 + float(np.vdot(x, x)))
            for _ in range(5):
                w = random_feasible_placement(rng, library, cluster).matrix
                assert float(np.vdot(x - z, w - z)) <= bound

    def test_singular_newton_system(self):
        # Regression: this 5x1 instance's content row is active at the
        # starting multipliers (the clipped column sums to 2.6) but slack at
        # the projection, so the unregularized Newton system is singular.
        x, library, cluster = random_projection_instance(np.random.default_rng(8088))
        assert x.shape == (5, 1)
        system = ConstraintSystem.build(library, cluster)
        assert np.clip(x, 0.0, 1.0).sum() > 1.0
        z = project_feasible(x, system)
        assert z.sum() < 1.0 - 0.1
        np.testing.assert_allclose(z, qp_projection_oracle(x, system), atol=1e-12)

    def test_gradient_fallback_far_outside_the_set(self, monkeypatch):
        # A unit gradient step from 0 next to saturation (lam = 5.999999,
        # mu_b = 6) gives entries of size 1e12, where the regularized Newton
        # system turns singular and the ascent falls back to the dual
        # gradient; no solver reaches that path any more.  It must still
        # return a feasible point: at this magnitude y - mu * s cancels to
        # column totals up to 1.00024, which the projection scales back.
        scenario = make_scenario(lam=5.999999)
        library, cluster = scenario.library, scenario.cluster
        x = np.zeros((3, 20)) - adt_slope(0.0, scenario.traffic) * library.popularity
        singular = []
        solve_linear = np.linalg.solve

        def counting_solve(a, b):
            try:
                return solve_linear(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        z = project_feasible(x, ConstraintSystem.build(library, cluster), np.zeros(3))
        assert singular
        assert z.shape == (3, 20)
        assert np.all((z >= 0.0) & (z <= 1.0))
        assert np.all(z @ library.sizes <= cluster.capacities)
        validate_placement(z, library, cluster)


def _warm_start_instance(rng, variant):
    """A seeded projection instance altered to stress the multipliers."""
    x, library, cluster = random_projection_instance(rng)
    sizes, capacities = library.sizes, cluster.capacities.copy()
    if variant == "unequal sizes":
        sizes = rng.uniform(0.5, 2.0, size=library.count)
    elif variant == "zero-capacity node":
        capacities[rng.integers(capacities.size)] = 0.0
    else:  # tight capacities
        capacities *= 0.05
    return x, ConstraintSystem(sizes=sizes, capacities=capacities)


def _starting_duals(rng, start, x, system):
    n = system.capacities.size
    if start == "zero":
        return np.zeros(n)
    if start == "previous output":
        duals = np.zeros(n)
        project_feasible(x + rng.normal(scale=0.05, size=x.shape), system, duals)
        return duals
    if start == "negative":
        return rng.uniform(-5.0, -0.1, size=n)
    return np.full(n, 1e6)  # far above the multiplier box


class TestWarmStart:
    @pytest.mark.parametrize("start", ["zero", "previous output", "negative", "outside the box"])
    @pytest.mark.parametrize("variant", ["unequal sizes", "zero-capacity node", "tight capacities"])
    def test_matches_the_cold_projection(self, variant, start):
        rng = np.random.default_rng(31337)
        for _ in range(40):
            x, system = _warm_start_instance(rng, variant)
            duals = _starting_duals(rng, start, x, system)
            warm = project_feasible(x, system, duals)
            # Each ascent stops once every capacity row is within
            # 1e-12 * max(1, capacity) of its bound, so an entry of size s
            # may sit that over s from the exact projection in either run.
            bound = 2e-12 * max(1.0, system.capacities.max()) / system.sizes.min()
            np.testing.assert_allclose(warm, project_feasible(x, system), rtol=0, atol=bound)
            # KKT of the capacity rows: the returned multipliers are
            # nonnegative and vanish wherever a row is slack.
            slack = system.capacities - warm @ system.sizes
            assert np.all(duals >= 0.0)
            np.testing.assert_allclose(duals * slack, 0.0, atol=1e-10)

    def test_written_multipliers_restart_at_the_solution(self, monkeypatch):
        # Restarting from its own output, the ascent is already stationary:
        # the projection evaluates the dual once and returns the same point.
        rng = np.random.default_rng(2718)
        evaluations = 0
        project_columns = admm._project_columns

        def counted(*args):
            nonlocal evaluations
            evaluations += 1
            return project_columns(*args)

        monkeypatch.setattr(admm, "_project_columns", counted)
        for variant in ("unequal sizes", "zero-capacity node", "tight capacities"):
            for _ in range(20):
                x, system = _warm_start_instance(rng, variant)
                duals = np.zeros(system.capacities.size)
                first = project_feasible(x, system, duals)
                evaluations = 0
                again = project_feasible(x, system, duals)
                assert evaluations == 1
                np.testing.assert_array_equal(again, first)

    def test_rejects_multipliers_of_the_wrong_length(self, reference_scenario):
        system = ConstraintSystem.build(reference_scenario.library, reference_scenario.cluster)
        with pytest.raises(ValueError, match="3 capacity multipliers"):
            project_feasible(np.zeros((3, 20)), system, np.zeros(2))


class TestPUpdate:
    def test_optimality_identity(self, reference_scenario):
        # The minimizer must satisfy p = v - (slope(h)/rho) c with h = c.p.
        rng = np.random.default_rng(17)
        rho = 0.7
        z = rng.uniform(0.0, 0.05, size=(3, 20))
        theta = rng.uniform(-0.02, 0.02, size=(3, 20))
        p = p_update(z, theta, reference_scenario, rho)
        c = np.tile(reference_scenario.library.popularity, (3, 1))
        h = float(np.vdot(c, p))
        slope = float(adt_slope(h, reference_scenario.traffic))
        np.testing.assert_allclose(p, (z - theta) - (slope / rho) * c, atol=1e-10)

    def test_preserves_matrix_shape(self, reference_scenario):
        p = p_update(np.zeros((3, 20)), np.zeros((3, 20)), reference_scenario, 1.0)
        assert p.shape == (3, 20)

    def test_large_rho_tracks_the_anchor(self, reference_scenario):
        # As rho grows the quadratic dominates and p approaches v = z - theta.
        z = np.full((3, 20), 0.02)
        p = p_update(z, np.zeros((3, 20)), reference_scenario, 1e8)
        np.testing.assert_allclose(p, z, atol=1e-6)

    def test_rejects_bad_rho_and_shape(self, reference_scenario):
        with pytest.raises(ValueError):
            p_update(np.zeros((3, 20)), np.zeros((3, 20)), reference_scenario, 0.0)
        with pytest.raises(ValueError):
            p_update(np.zeros((3, 19)), np.zeros((3, 19)), reference_scenario, 1.0)
        with pytest.raises(ValueError, match=r"\(3, 20\)"):
            p_update(np.zeros(60), np.zeros(60), reference_scenario, 1.0)


class TestSolve:
    def test_reference_scenario_reaches_the_optimum(self, reference_scenario):
        result = solve(reference_scenario, FAST)
        assert result.converged
        assert result.adt == pytest.approx(ADT_OPT, abs=1e-9)
        assert result.echr == pytest.approx(H_CPL, abs=1e-5)
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)

    @pytest.mark.parametrize("rho, iterations", [(1.0, 91), (0.02, 19)])
    def test_iteration_counts_are_pinned(self, reference_scenario, rho, iterations):
        # Residual balancing moves rho from its initial value; these counts
        # pin the iterates of that policy on the reference scenario.
        assert solve(reference_scenario, AdmmConfig(rho=rho)).iterations == iterations

    @pytest.mark.parametrize("rho", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
    def test_converges_from_any_initial_rho(self, reference_scenario, rho):
        _, grid_adt = grid_bruteforce(reference_scenario, 1e-5)
        result = solve(reference_scenario, AdmmConfig(rho=rho))
        assert result.converged
        assert result.adt == pytest.approx(grid_adt, abs=1e-8)

    def test_two_hundred_contents_converge_at_defaults(self):
        # Held fixed at its default 1.0, rho needs over 1000 iterations here.
        scenario = make_scenario(count=200, capacities=(20.0, 20.0, 20.0))
        exact = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        result = solve(scenario)
        assert result.converged
        assert result.adt == pytest.approx(exact, rel=1e-4)

    def test_default_config_converges(self, reference_scenario):
        result = solve(reference_scenario)
        assert result.converged
        assert result.adt == pytest.approx(ADT_OPT, abs=1e-7)

    def test_trace_records_every_iteration(self, reference_scenario):
        result = solve(reference_scenario, FAST)
        assert len(result.trace) == result.iterations
        assert [record.k for record in result.trace] == list(range(1, result.iterations + 1))
        last = result.trace[-1]
        assert last.objective == pytest.approx(result.adt, abs=1e-15)
        assert last.primal_residual >= 0.0
        assert last.dual_residual >= 0.0

    def test_result_describes_the_returned_placement(self, reference_scenario):
        result = solve(reference_scenario, FAST)
        assert result.adt == overall_adt(result.placement, reference_scenario).overall
        assert result.echr == echr(result.placement, reference_scenario.library)
        assert result.trace[-1].k == result.iterations

    def test_heterogeneous_scenario(self, hetero_scenario):
        result = solve(hetero_scenario, FAST)
        assert result.converged
        assert result.adt == pytest.approx(HETERO_ADT_OPT, abs=1e-8)

    def test_iteration_cap_returns_best_feasible_iterate(self, reference_scenario):
        result = solve(reference_scenario, AdmmConfig(rho=1.0, max_iter=3))
        assert not result.converged
        assert result.iterations <= 3
        assert len(result.trace) == 3
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)
        assert result.adt == min(record.objective for record in result.trace)

    def test_matches_heuristic_on_random_scenarios(self):
        rng = np.random.default_rng(60221023)
        for _ in range(8):
            scenario = random_scenario(rng, max_nodes=2, max_contents=12)
            expected = overall_adt(heuristic_solve(scenario).placement, scenario).overall
            result = solve(scenario, FAST)
            assert result.adt <= expected + 1e-6
