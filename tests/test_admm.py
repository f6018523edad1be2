"""Tests for the splitting solver and the feasible-set projection."""

import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    SolverConfig,
    adt_curve,
    adt_slope,
    echr,
    heuristic_solve,
    overall_adt,
    projected_gradient_solve,
    solve,
)
from fogcache.admm import ConstraintSystem, p_update, project_feasible
from fogcache.model import validate_placement
from fogcache.objective import _clamped_echr

from oracle import project_placement, qp_projection_oracle

from conftest import (
    ADT_OPT,
    H_CPL,
    HETERO_ADT_OPT,
    REFERENCE,
    make_scenario,
    random_feasible_placement,
    random_projection_instance,
    random_scenario,
    solved,
)


class TestSolverConfig:
    def test_defaults(self):
        # One stopping rule for both solvers; ADMM's penalty is worked out
        # by ``solve``, never set.
        config = SolverConfig()
        assert (config.max_iter, config.tol) == (1000, 1e-6)
        assert [field.name for field in dataclasses.fields(SolverConfig)] == ["tol", "max_iter"]
        for removed in ("rho", "eps_abs", "eps_rel"):
            with pytest.raises(TypeError):
                SolverConfig(**{removed: 1.0})

    @pytest.mark.parametrize("solver", [solve, projected_gradient_solve])
    def test_is_each_solvers_default(self, solver):
        assert inspect.signature(solver).parameters["config"].default == SolverConfig()

    @pytest.mark.parametrize("value", [0.0, -1e-9, float("inf"), float("nan")])
    def test_tolerance_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {value}$"):
            SolverConfig(tol=value)

    def test_rejects_a_zero_iteration_cap(self):
        with pytest.raises(ValueError, match="^max_iter must be at least 1, got 0$"):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_max_iter_is_named(self, value):
        with pytest.raises(ValueError, match="^max_iter must be an integer"):
            SolverConfig(max_iter=value)


class TestConstraintSystem:
    def test_shapes_and_values(self, reference_scenario):
        # The pooled set: the capacities 2/3/5 pool into one capacity of 10.
        system = ConstraintSystem.build(reference_scenario.library, reference_scenario.cluster)
        fields = [field.name for field in dataclasses.fields(ConstraintSystem)]
        assert fields == ["sizes", "capacity"]
        assert system.capacity == 10.0
        np.testing.assert_array_equal(system.a, np.eye(20))
        np.testing.assert_array_equal(system.b, [reference_scenario.library.sizes])
        np.testing.assert_array_equal(system.a_u, np.ones(20))
        np.testing.assert_array_equal(system.b_u, [10.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_pooled_rows_are_the_column_sum_image_of_the_placement_rows(self, seed):
        # A feasible placement's totals y meet the pooled rows: a @ y is y,
        # and b @ y is the sum of the node loads, within the capacity.
        rng = np.random.default_rng(seed)
        scenario = random_scenario(rng)
        library, cluster = scenario.library, scenario.cluster
        system = ConstraintSystem.build(library, cluster)
        matrix = random_feasible_placement(rng, library, cluster).matrix
        y = matrix.sum(axis=0)
        np.testing.assert_array_equal(system.a @ y, y)
        np.testing.assert_allclose(system.b @ y, [(matrix @ library.sizes).sum()], rtol=1e-14)
        assert np.all(system.a @ y <= system.a_u)
        assert np.all(system.b @ y <= system.b_u)

    def test_build_stores_no_dense_matrices(self):
        # The dense rows of the pooled set at F = 2000 would take 32 MB.
        scenario = make_scenario(count=2000, capacities=np.full(20, 100.0))
        tracemalloc.start()
        try:
            system = ConstraintSystem.build(scenario.library, scenario.cluster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (system.sizes.size, system.capacity) == (2000, 2000.0)
        assert peak < 1_000_000


def _rejected(shape):
    """The message that refuses ``shape`` where 20 content totals belong."""
    return rf"^expected a vector of 20 content totals: got shape {re.escape(str(shape))}$"


def _pooled(library, capacity):
    return ConstraintSystem(sizes=library.sizes, capacity=capacity)


def _pooled_as_one_node(x, sizes, capacities):
    """``project_feasible`` on the one row of a one-node (1, F) query, in
    :func:`~oracle.project_placement`'s signature."""
    (capacity,) = capacities
    return project_feasible(x[0], ConstraintSystem(sizes=sizes, capacity=capacity))[np.newaxis]


class TestProjectFeasible:
    """The solvers' pooled ``project_feasible`` and the baseline's N x F ``project_placement``."""

    def test_feasible_points_are_fixed(self, reference_scenario):
        rng = np.random.default_rng(8)
        library, cluster = reference_scenario.library, reference_scenario.cluster
        placement = random_feasible_placement(rng, library, cluster)
        projected = project_placement(placement.matrix, library.sizes, cluster.capacities)
        np.testing.assert_allclose(projected, placement.matrix, atol=1e-9)

    def test_feasible_points_come_back_bit_identical(self):
        rng = np.random.default_rng(9)
        for f in (1, 20, 2000):
            library = ContentLibrary(np.full(f, 1.0 / f), rng.uniform(0.5, 2.0, size=f))
            system = _pooled(library, 0.3 * library.sizes.sum())
            y = random_feasible_placement(rng, library, FogCluster([system.capacity])).matrix[0]
            np.testing.assert_array_equal(project_feasible(y, system), y)

    def test_box_clipping(self):
        system = _pooled(ContentLibrary([1.0]), 10.0)
        assert project_feasible(np.array([1.7]), system)[0] == pytest.approx(1.0)
        low = project_feasible(np.array([-0.3]), system)[0]
        assert low == pytest.approx(0.0, abs=1e-12)

    def test_capacity_halfspace(self):
        system = _pooled(ContentLibrary([1.0]), 0.4)
        assert project_feasible(np.array([0.9]), system)[0] == pytest.approx(0.4)

    def test_a_single_content_of_any_size(self):
        system = _pooled(ContentLibrary([1.0], [2.0]), 0.5)
        assert project_feasible(np.array([0.9]), system)[0] == pytest.approx(0.25)

    def test_zero_capacity_gives_zeros(self):
        system = _pooled(ContentLibrary([0.5, 0.3, 0.2], [1.0, 2.0, 0.5]), 0.0)
        z = project_feasible(np.array([0.9, 1.5, 0.2]), system)
        np.testing.assert_array_equal(z, np.zeros(3))

    def test_replication_halfspace_shifts_uniformly(self):
        projected = project_placement(np.array([[0.8], [0.7]]), [1.0], [5.0, 5.0])
        np.testing.assert_allclose(projected, [[0.55], [0.45]], atol=1e-10)

    def test_tight_capacity_beats_uniform_shift(self):
        # One node has almost no storage: its share must go to the other
        # node's detriment, not split evenly.
        projected = project_placement(np.array([[0.9], [0.9]]), [1.0], [0.05, 3.0])
        assert projected[0, 0] == pytest.approx(0.05, abs=1e-9)
        assert projected[1, 0] == pytest.approx(0.9, abs=1e-9)

    def test_unequal_sizes_scale_the_capacity_rows(self):
        library = ContentLibrary([0.6, 0.4], [2.0, 1.0])
        projected = project_feasible(np.array([1.0, 1.0]), _pooled(library, 1.0))
        load = float(projected @ library.sizes)
        assert load <= 1.0 + 1e-9

    @pytest.mark.parametrize("shape", [(1, 20), (20, 1), (19,), (60,), ()])
    def test_rejects_anything_but_a_vector_of_totals(self, reference_scenario, shape):
        # A (1, F) row matrix is a one-node placement, not a vector of totals.
        system = _pooled(reference_scenario.library, 10.0)
        with pytest.raises(ValueError, match=_rejected(shape)):
            project_feasible(np.full(shape, 0.9), system)

    def test_idempotent_on_random_instances(self):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            scenario = random_scenario(rng)
            sizes, capacities = scenario.library.sizes, scenario.cluster.capacities
            x = rng.uniform(-0.5, 1.5, size=(scenario.cluster.node_count, scenario.library.count))
            z = project_placement(x, sizes, capacities)
            np.testing.assert_allclose(project_placement(z, sizes, capacities), z, atol=1e-8)
            validate_placement(z, scenario.library, scenario.cluster)

    def test_exact_beyond_the_oracle_size(self):
        self._assert_exact(project_placement, max_nodes=20, max_contents=2000)

    def test_exact_on_one_node_up_to_fifty_thousand_contents(self):
        self._assert_exact(_pooled_as_one_node, max_nodes=1, max_contents=50_000)

    @staticmethod
    def _assert_exact(project, max_nodes, max_contents):
        # Equal and unequal sizes: the result is feasible, a fixed point, and
        # satisfies the variational inequality <x - z, w - z> <= 0 that
        # characterizes the projection.
        rng = np.random.default_rng(20200206)
        for trial in range(12):
            n = int(rng.integers(1, max_nodes + 1))
            f = int(rng.integers(1, max_contents + 1))
            sizes = rng.uniform(0.5, 2.0, size=f) if trial % 2 else np.ones(f)
            library = ContentLibrary(np.full(f, 1.0 / f), sizes)
            share = float(rng.uniform(0.05, 1.1))
            cluster = FogCluster(share * sizes.sum() * rng.dirichlet(np.ones(n)))
            x = rng.uniform(-0.6, 1.6, size=(n, f)) * rng.uniform(0.1, 1.0)
            z = project(x, sizes, cluster.capacities)
            violation = max(
                float(np.max(-z, initial=0.0)),
                float(np.max(z - 1.0, initial=0.0)),
                float(np.max(z.sum(axis=0) - 1.0, initial=0.0)),
                float(np.max(z @ sizes - cluster.capacities, initial=0.0)),
            )
            assert violation <= 1e-9
            np.testing.assert_allclose(project(z, sizes, cluster.capacities), z, atol=1e-9)
            bound = 1e-9 * (1.0 + float(np.vdot(x, x)))
            for _ in range(5):
                w = random_feasible_placement(rng, library, cluster).matrix
                assert float(np.vdot(x - z, w - z)) <= bound

    def test_hit_ratio_never_falls_along_the_popularity(self):
        # An exact projection of 0.5 + a * c cannot lower c . y as a grows.
        # Between neighbours on a log grid of a up to 1e12 the fall is
        # bounded by the rounding of the input, eps * max|0.5 + a * c|.
        order = [16, 20, 8, 10, 4, 12, 0, 11, 6, 7, 13, 14, 5, 19, 15, 3, 18, 9, 17, 2, 1]
        c = ContentLibrary.zipf(21, 2.5).popularity[order]
        sizes = [2.3, 0.561, 1.526, 2.018, 1.586, 2.13, 2.371, 2.799, 2.017, 0.693, 2.351,
                 1.386, 2.156, 2.13, 2.684, 1.85, 0.843, 1.337, 1.938, 1.798, 0.742]
        system = _pooled(ContentLibrary(c, sizes), 32.0)
        points = [0.5 + a * c for a in np.logspace(0.0, 12.0, 241)]
        hits = [float(c @ project_feasible(x, system)) for x in points]
        for x, before, after in zip(points[1:], hits, hits[1:]):
            assert before - after <= np.finfo(float).eps * np.max(np.abs(x))

    def test_singular_newton_system(self):
        # Regression: this 5x1 instance's content row is active at the
        # starting multipliers (the clipped column sums to 2.6) but slack at
        # the projection, so the unregularized Newton system is singular.
        x, library, cluster = random_projection_instance(np.random.default_rng(8088))
        assert x.shape == (5, 1)
        sizes, capacities = library.sizes, cluster.capacities
        assert np.clip(x, 0.0, 1.0).sum() > 1.0
        z = project_placement(x, sizes, capacities)
        assert z.sum() < 1.0 - 0.1
        np.testing.assert_allclose(z, qp_projection_oracle(x, sizes, capacities), atol=1e-12)

    def test_gradient_fallback_far_outside_the_set(self, monkeypatch):
        # A unit gradient step from 0 next to saturation (lam = 5.999999,
        # mu_b = 6) gives entries of size 1e12, where y - mu * s cancels and
        # a node's load can overshoot its capacity by far more than rounding.
        # Started from 0, the ascent met a singular Newton system there and
        # fell back to the dual gradient; started from the rows' own
        # multipliers it meets none, so every solve fails here to take that
        # path.  It must still return a feasible point.
        scenario = make_scenario(lam=5.999999)
        library, cluster = scenario.library, scenario.cluster
        x = np.zeros((3, 20)) - adt_slope(0.0, scenario.traffic) * library.popularity
        singular = []

        def singular_solve(a, b):
            singular.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular_solve)
        z = project_placement(x, library.sizes, cluster.capacities)
        assert singular
        assert z.shape == (3, 20)
        assert np.all((z >= 0.0) & (z <= 1.0))
        assert np.all(z @ library.sizes <= cluster.capacities)
        validate_placement(z, library, cluster)


def _stressed_instance(rng, variant, query):
    """A seeded pooled projection instance altered to stress the search."""
    x, library, cluster = random_projection_instance(rng)
    sizes, capacity = library.sizes, cluster.total_capacity
    if variant == "unequal sizes":
        sizes = rng.uniform(0.5, 2.0, size=library.count)
    elif variant == "zero capacity":
        capacity = 0.0
    else:  # tight capacity
        capacity *= 0.05
    x = x[0]
    if query == "inside the box":
        x = rng.uniform(0.0, 1.0, size=x.shape)
    elif query == "negative":
        x = rng.uniform(-5.0, -0.1, size=x.shape)
    elif query == "above one":
        x = rng.uniform(1.0, 3.0, size=x.shape)
    else:  # far outside the box
        x = x * 1e6
    return x, ConstraintSystem(sizes=sizes, capacity=capacity)


class TestStressedInstances:
    @pytest.mark.parametrize("query", ["inside the box", "negative", "above one", "far outside the box"])
    @pytest.mark.parametrize("variant", ["unequal sizes", "zero capacity", "tight capacity"])
    def test_matches_the_qp_oracle(self, variant, query):
        rng = np.random.default_rng(31337)
        for _ in range(20):
            x, system = _stressed_instance(rng, variant, query)
            z = project_feasible(x, system)
            # The breakpoints v_f / s_f carry the rounding of x, so the match
            # is relative to the largest entry of the query.
            bound = 1e-12 * max(1.0, float(np.max(np.abs(x))))
            oracle = qp_projection_oracle(x, system.sizes, [system.capacity])
            np.testing.assert_allclose(z, oracle, rtol=0, atol=bound)
            np.testing.assert_allclose(project_feasible(z, system), z, rtol=0, atol=bound)
            assert np.all((z >= 0.0) & (z <= 1.0))
            # The scale-down after the search rounds too: the load may end
            # an ulp or so above the capacity, never more.
            load = float(z @ system.sizes)
            assert load <= system.capacity * (1.0 + 16 * np.finfo(float).eps)


class TestPUpdate:
    def test_optimality_identity(self, reference_scenario):
        # The minimizer must satisfy p = v - (slope(h)/rho) c with h = c.p and
        # c the popularity, on the vector of content totals.
        rng = np.random.default_rng(17)
        rho = 0.7
        c = reference_scenario.library.popularity
        z = rng.uniform(0.0, 0.05, size=20)
        theta = rng.uniform(-0.02, 0.02, size=20)
        p = p_update(z, theta, reference_scenario, rho)
        h = float(c @ p)
        slope = float(adt_slope(h, reference_scenario.traffic))
        np.testing.assert_allclose(p, (z - theta) - (slope / rho) * c, atol=1e-10)

    def test_returns_a_vector_of_totals(self, reference_scenario):
        p = p_update(np.zeros(20), np.zeros(20), reference_scenario, 1.0)
        assert p.shape == (20,)

    def test_large_rho_tracks_the_anchor(self, reference_scenario):
        # As rho grows the quadratic dominates and p approaches v = z - theta.
        z = np.full(20, 0.02)
        p = p_update(z, np.zeros(20), reference_scenario, 1e8)
        np.testing.assert_allclose(p, z, atol=1e-6)

    @pytest.mark.parametrize("rho", [0.0, -1.0, float("inf"), float("nan")])
    def test_rho_must_be_positive_and_finite(self, reference_scenario, rho):
        with pytest.raises(ValueError, match=f"^rho must be positive and finite, got {rho}$"):
            p_update(np.zeros(20), np.zeros(20), reference_scenario, rho)

    @pytest.mark.parametrize("z_shape, theta_shape", [
        ((1, 20), (1, 20)), ((19,), (19,)), ((60,), (60,)), ((20,), (1, 20)), ((1, 20), (20,)),
    ])
    def test_rejects_anything_but_vectors_of_totals(self, reference_scenario, z_shape, theta_shape):
        # A (1, F) row matrix is a one-node placement, not a vector of totals.
        bad = z_shape if z_shape != (20,) else theta_shape
        with pytest.raises(ValueError, match=_rejected(bad)):
            p_update(np.zeros(z_shape), np.zeros(theta_shape), reference_scenario, 1.0)


class TestSolve:
    def test_reference_scenario_reaches_the_optimum(self, reference_scenario):
        result = solve(reference_scenario)
        assert result.converged
        assert result.adt == pytest.approx(ADT_OPT, abs=1e-9)
        assert result.echr == pytest.approx(H_CPL, abs=1e-5)
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)

    def test_iteration_count_is_pinned(self, reference_scenario):
        # Residual balancing moves rho from the scaled start, and the
        # Frank-Wolfe gap stops the run; the count pins the iterates of
        # that policy on the reference scenario.
        assert solve(reference_scenario).iterations == 22

    def test_cross_check_iteration_count_is_pinned(self):
        # SolverConfig's docstring states both counts: projected gradient's
        # spectral steps stop after 10 iterations at the same defaults.
        assert solved(projected_gradient_solve, REFERENCE, SolverConfig()).iterations == 10

    @pytest.mark.parametrize("digits", range(1, 10))
    def test_converges_as_the_start_grows_toward_saturation(self, digits):
        # lam = mu_b (1 - 10**-digits) moves the scaled start from about 1
        # to about 1e16; balancing brings every start down (15 to 66
        # iterations).
        scenario = make_scenario(lam=6.0 * (1.0 - 10.0**-digits))
        exact = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        result = solve(scenario)
        assert result.converged
        assert result.adt == pytest.approx(exact, rel=1e-8)

    def test_two_hundred_contents_converge_at_defaults(self):
        # Residual balancing takes 54 iterations here from the scaled
        # start.
        scenario = make_scenario(count=200, capacities=(20.0, 20.0, 20.0))
        exact = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        result = solve(scenario)
        assert result.converged
        assert result.adt == pytest.approx(exact, rel=1e-4)

    @pytest.mark.parametrize("count", [5000, 20_000])
    def test_storage_limited_iterations_stay_flat_in_the_catalog_size(self, count):
        # Pooled capacity 0.1 F over 50 nodes, so storage binds: balancing
        # takes 26 iterations at either size.
        scenario = make_scenario(count=count, capacities=(0.1 * count / 50,) * 50)
        result = solve(scenario)
        assert result.converged
        assert result.iterations <= 60

    def test_default_config_converges(self, reference_scenario):
        result = solve(reference_scenario)
        assert result.converged
        assert result.adt == pytest.approx(ADT_OPT, abs=1e-7)

    @staticmethod
    def _first_step_from_the_scaled_penalty(scenario):
        """Iteration 1 rebuilt by hand from ``rho = |D'(0)| ||popularity||**2``,
        on the content totals in the pooled set; the objective is read from
        the totals as a one-node placement."""
        library = scenario.library
        rho = -adt_slope(0.0, scenario.traffic) * float(library.popularity @ library.popularity)
        assert np.isfinite(rho) and rho > 0.0
        zeros = np.zeros(library.count)
        p = p_update(zeros, zeros, scenario, rho)
        z = project_feasible(p, ConstraintSystem.build(library, scenario.cluster))
        primal = float(np.linalg.norm(p - z))
        objective = adt_curve(_clamped_echr(z[np.newaxis], library), scenario.traffic)
        return (1, objective, primal, float(rho * np.linalg.norm(z)))

    def test_default_starts_from_the_scaled_penalty(self, reference_scenario):
        first = self._first_step_from_the_scaled_penalty(reference_scenario)
        assert solve(reference_scenario).trace[0] == first

    def test_scaled_penalty_is_finite_and_positive_on_random_scenarios(self):
        rng = np.random.default_rng(20171030)
        for _ in range(40):
            scenario = random_scenario(rng)
            first = self._first_step_from_the_scaled_penalty(scenario)
            assert solve(scenario, SolverConfig(max_iter=1)).trace == [first]

    def test_converges_at_defaults_next_to_saturation(self):
        # |D'(0)| grows without bound as lam nears mu_b, and so does the
        # scaled start; balancing brings it back down (74 iterations here).
        scenario = make_scenario(lam=6.0 * (1.0 - 1e-10))
        exact = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        result = solve(scenario)
        assert result.converged
        assert result.adt == pytest.approx(exact, rel=1e-8)

    def test_trace_records_every_iteration(self, reference_scenario):
        result = solve(reference_scenario)
        assert len(result.trace) == result.iterations
        assert [record.k for record in result.trace] == list(range(1, result.iterations + 1))
        last = result.trace[-1]
        assert last.objective == pytest.approx(result.adt, abs=1e-15)
        assert last.primal_residual >= 0.0
        assert last.dual_residual >= 0.0

    def test_result_describes_the_returned_placement(self, reference_scenario):
        result = solve(reference_scenario)
        assert result.adt == overall_adt(result.placement, reference_scenario).overall
        assert result.echr == echr(result.placement, reference_scenario.library)
        assert result.trace[-1].k == result.iterations

    def test_heterogeneous_scenario(self, hetero_scenario):
        result = solve(hetero_scenario)
        assert result.converged
        assert result.adt == pytest.approx(HETERO_ADT_OPT, abs=1e-8)

    @pytest.mark.parametrize("run", [solve, projected_gradient_solve])
    def test_iteration_cap_returns_best_feasible_iterate(self, reference_scenario, run):
        # The one cap rule of both solvers.
        result = run(reference_scenario, SolverConfig(max_iter=3))
        assert not result.converged
        assert result.iterations == len(result.trace) == 3
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)
        assert result.adt == min(record.objective for record in result.trace)

    @pytest.mark.parametrize("cap", range(11, 18))
    def test_capped_run_counts_every_iteration_but_returns_the_best(
        self, reference_scenario, cap
    ):
        # At caps 11 to 17 iterate 10 beats every later one.
        result = solve(reference_scenario, SolverConfig(max_iter=cap))
        assert not result.converged
        assert result.iterations == len(result.trace) == cap
        objectives = [record.objective for record in result.trace]
        assert min(objectives) == objectives[9] < objectives[-1]
        assert result.adt == objectives[9]
        assert result.adt == overall_adt(result.placement, reference_scenario).overall
        validate_placement(result.placement, reference_scenario.library, reference_scenario.cluster)

    def test_matches_heuristic_on_random_scenarios(self):
        rng = np.random.default_rng(60221023)
        for _ in range(8):
            scenario = random_scenario(rng, max_nodes=2, max_contents=12)
            expected = overall_adt(heuristic_solve(scenario).placement, scenario).overall
            result = solve(scenario)
            assert result.adt <= expected + 1e-6
