"""Tests for the storage-limited / provision-limited heuristic."""

import math

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    TrafficProfile,
    adt_slope,
    echr,
    echr_cpl,
    echr_csl,
    heuristic_solve,
    overall_adt,
    placement_from_echr,
)
from fogcache.heuristic import _assign_first_fit, _greedy_fractions, lambda_threshold
from fogcache.model import validate_placement, zipf_popularity

from conftest import (
    ADT_AT_CSL,
    ADT_OPT,
    H_CPL,
    H_CSL,
    HETERO_ADT_OPT,
    HETERO_H_OPT,
    LAMBDA_STAR,
    TENTH_FRACTION,
    TOP9_MASS,
    bounded,
    make_scenario,
    random_scenario,
)


def _echr_csl_with_placement(library, cluster):
    """``echr_csl`` and the placement ``heuristic_solve`` returns in the CSL
    regime: first-fit on the storage greedy."""
    placement = _assign_first_fit(_greedy_fractions(library, cluster), library, cluster)
    return echr_csl(library, cluster), placement


def _loop_greedy_fractions(library, cluster, h_target=None):
    """The content-at-a-time greedy the vectorised helper replaced (oracle)."""
    popularity, sizes = library.popularity, library.sizes
    order = np.argsort(-(popularity / sizes), kind="stable")
    fractions = np.zeros(library.count)
    remaining_capacity = cluster.total_capacity
    remaining_hit = math.inf if h_target is None else float(h_target)
    for f in order:
        if remaining_capacity <= 0.0 or remaining_hit <= 0.0:
            break
        take = min(1.0, remaining_capacity / sizes[f], remaining_hit / popularity[f])
        fractions[f] = take
        remaining_capacity -= take * sizes[f]
        remaining_hit -= take * popularity[f]
    return fractions


def _loop_assign_first_fit(fractions, library, cluster):
    """The node-at-a-time first-fit the interval-overlap form replaced (oracle)."""
    matrix = np.zeros((cluster.node_count, library.count))
    spare = cluster.capacities.astype(float).copy()
    for f in range(library.count):
        demand = fractions[f] * library.sizes[f]
        if demand <= 0.0:
            continue
        for i in range(cluster.node_count):
            if demand <= 0.0:
                break
            amount = min(spare[i], demand)
            if amount <= 0.0:
                continue
            matrix[i, f] = amount / library.sizes[f]
            spare[i] -= amount
            demand -= amount
    return matrix


def _full_width_assign_first_fit(fractions, library, cluster):
    """First-fit as one full-width overlap pass per node (oracle): the same
    elementwise formula as the sliced helper, on every content."""
    demand = np.concatenate(([0.0], np.cumsum(fractions * library.sizes)))
    capacity = np.concatenate(([0.0], np.cumsum(cluster.capacities)))
    matrix = np.zeros((cluster.node_count, library.count))
    for i in range(cluster.node_count):
        overlap = np.minimum(demand[1:], capacity[i + 1]) - np.maximum(demand[:-1], capacity[i])
        matrix[i] = np.maximum(overlap, 0.0) / library.sizes
    return matrix


def _assert_bitwise_equal(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _greedy_instance(layout, rng):
    """A library and cluster whose capacities follow ``layout``."""
    count, nodes = int(rng.integers(5, 80)), int(rng.integers(3, 8))
    popularity = zipf_popularity(count, float(rng.uniform(0.3, 1.5)))
    if layout == "on_boundaries":
        # Unit sizes and integer capacities: every node ends on a content boundary.
        library = ContentLibrary(popularity)
        return library, FogCluster(rng.integers(1, 4, nodes).astype(float))
    library = ContentLibrary(popularity, rng.uniform(0.2, 3.0, count))
    if layout == "ample":
        return library, FogCluster(rng.dirichlet(np.ones(nodes)) * 1.5 * library.sizes.sum())
    capacities = rng.uniform(0.0, 0.6, nodes) * library.sizes.sum() / nodes
    position = {"zero_first": 0, "zero_middle": nodes // 2, "zero_last": nodes - 1}.get(layout)
    if position is not None:
        capacities[position] = 0.0
    return library, FogCluster(capacities)


def _assert_first_fit_shape(matrix, cluster):
    """At most N - 1 contents are split, each across consecutive nodes
    (consecutive once zero-capacity nodes, which hold nothing, are skipped)."""
    assert np.count_nonzero(matrix) <= matrix.shape[0] + matrix.shape[1] - 1
    assert not matrix[cluster.capacities == 0.0].any()
    held = matrix[cluster.capacities > 0.0] != 0.0
    counts = held.sum(axis=0)
    first = np.argmax(held, axis=0)
    last = held.shape[0] - 1 - np.argmax(held[::-1], axis=0)
    np.testing.assert_array_equal(np.where(counts > 0, last - first + 1, 0), counts)


LAYOUTS = ("random", "zero_first", "zero_middle", "zero_last", "on_boundaries", "ample")


class TestVectorisedHelpers:
    @pytest.mark.parametrize("seed, layout", enumerate(LAYOUTS))
    def test_match_the_loops(self, seed, layout):
        rng = np.random.default_rng(600 + seed)
        for _ in range(15):
            library, cluster = _greedy_instance(layout, rng)
            h_csl = float(library.popularity @ _loop_greedy_fractions(library, cluster))
            for h_target in (math.inf, 0.0, -0.0, float(rng.uniform(0.0, h_csl)), h_csl):
                fractions = _greedy_fractions(library, cluster, h_target=h_target)
                expected = _loop_greedy_fractions(library, cluster, h_target=h_target)
                np.testing.assert_allclose(fractions, expected, rtol=0.0, atol=1e-9)
                assert library.popularity @ fractions == pytest.approx(
                    library.popularity @ expected, abs=1e-12
                )
                placement = _assign_first_fit(fractions, library, cluster)
                np.testing.assert_allclose(
                    placement.matrix,
                    _loop_assign_first_fit(fractions, library, cluster),
                    rtol=0.0,
                    atol=1e-9,
                )
                _assert_bitwise_equal(
                    placement.matrix, _full_width_assign_first_fit(fractions, library, cluster)
                )
                validate_placement(placement, library, cluster)
                _assert_first_fit_shape(placement.matrix, cluster)

    def test_first_fit_shape_at_catalog_scale(self):
        rng = np.random.default_rng(50_000)
        library = ContentLibrary.zipf(50_000, 0.8)
        cluster = FogCluster(rng.uniform(0.8, 1.2, 50) * 100.0)
        h_csl, placement = _echr_csl_with_placement(library, cluster)
        interior = placement_from_echr(0.5 * h_csl, library, cluster)
        for h_target, matrix in ((math.inf, placement.matrix), (0.5 * h_csl, interior.matrix)):
            validate_placement(matrix, library, cluster)
            _assert_first_fit_shape(matrix, cluster)
            fractions = _greedy_fractions(library, cluster, h_target=h_target)
            _assert_bitwise_equal(
                matrix, _full_width_assign_first_fit(fractions, library, cluster)
            )


def _assert_storage_greedy_at_the_bound(library, cluster):
    """``placement_from_echr`` at ``echr_csl`` is first-fit on the storage
    greedy, bit for bit; returns that matrix."""
    expected = _assign_first_fit(_greedy_fractions(library, cluster), library, cluster).matrix
    actual = placement_from_echr(echr_csl(library, cluster), library, cluster).matrix
    _assert_bitwise_equal(actual, expected)
    return expected


class TestPlacementAtTheStorageBound:
    @pytest.mark.parametrize("seed, layout", enumerate(LAYOUTS))
    def test_every_layout(self, seed, layout):
        rng = np.random.default_rng(700 + seed)
        for _ in range(40):
            _assert_storage_greedy_at_the_bound(*_greedy_instance(layout, rng))

    def test_unequal_sizes(self):
        rng = np.random.default_rng(7070)
        for _ in range(100):
            count, nodes = int(rng.integers(2, 60)), int(rng.integers(1, 6))
            popularity = np.sort(rng.dirichlet(np.ones(count)))[::-1]
            library = ContentLibrary(popularity, rng.uniform(0.1, 5.0, count))
            share = float(rng.uniform(0.05, 1.2))
            cluster = FogCluster(share * library.sizes.sum() * rng.dirichlet(np.ones(nodes)))
            _assert_storage_greedy_at_the_bound(library, cluster)

    def test_random_instances(self):
        for seed in range(300):
            scenario = random_scenario(np.random.default_rng(seed))
            _assert_storage_greedy_at_the_bound(scenario.library, scenario.cluster)

    def test_heuristic_solve_returns_it_when_storage_binds(self):
        rng = np.random.default_rng(7171)
        scenarios = [make_scenario(lam=2.0)] + [random_scenario(rng) for _ in range(100)]
        storage_limited = 0
        for scenario in scenarios:
            result = heuristic_solve(scenario)
            if result.regime == "CSL":
                storage_limited += 1
                expected = _assert_storage_greedy_at_the_bound(scenario.library, scenario.cluster)
                _assert_bitwise_equal(result.placement.matrix, expected)
        assert storage_limited > 10

    def test_full_hit_ratio_caches_every_content_whole(self):
        # Ample storage and slow arrivals: h_csl = h_cpl = 1.  The popularity
        # sums past 1 by rounding here, and a target of 1 must still cache
        # all five contents whole rather than re-cut the last one.
        scenario = Scenario(
            library=ContentLibrary.zipf(5, 0.8),
            cluster=FogCluster([10.0]),
            traffic=TrafficProfile([0.01], [8.0], [6.0]),
        )
        result = heuristic_solve(scenario)
        assert (result.h_csl, result.h_cpl, result.regime) == (1.0, 1.0, "CPL")
        np.testing.assert_array_equal(result.placement.matrix, np.ones((1, 5)))


class TestEchrCsl:
    def test_reference_value(self, reference_scenario):
        h, placement = _echr_csl_with_placement(reference_scenario.library, reference_scenario.cluster)
        # Total capacity 10 at unit sizes: the ten most popular contents fit whole.
        assert h == H_CSL
        np.testing.assert_array_equal(placement.matrix.sum(axis=0)[:10], np.ones(10))
        np.testing.assert_array_equal(placement.matrix.sum(axis=0)[10:], np.zeros(10))

    def test_matches_popularity_mass_of_placement(self, reference_scenario):
        h, placement = _echr_csl_with_placement(reference_scenario.library, reference_scenario.cluster)
        assert h == pytest.approx(echr(placement, reference_scenario.library), abs=1e-15)

    def test_caps_at_one_when_storage_is_ample(self):
        library = ContentLibrary.zipf(5, 0.8)
        h, placement = _echr_csl_with_placement(library, FogCluster([10.0]))
        assert h == 1.0
        np.testing.assert_array_equal(placement.matrix.sum(axis=0), np.ones(5))

    def test_zero_capacity(self):
        library = ContentLibrary.zipf(5, 0.8)
        h, placement = _echr_csl_with_placement(library, FogCluster([0.0, 0.0]))
        assert h == 0.0
        np.testing.assert_array_equal(placement.matrix, np.zeros((2, 5)))

    def test_fractional_tail_content(self):
        # Capacity 1.5 at unit sizes: rank 1 whole, half of rank 2.
        library = ContentLibrary([0.5, 0.3, 0.2])
        h, placement = _echr_csl_with_placement(library, FogCluster([1.5]))
        assert h == pytest.approx(0.5 + 0.15)
        np.testing.assert_allclose(placement.matrix.sum(axis=0), [1.0, 0.5, 0.0])

    def test_density_order_under_unequal_sizes(self):
        # Popularity/size densities are 0.4/2=0.2 vs 0.35 vs 0.25: the greedy
        # should prefer contents 2 and 3 over the biggest one.
        library = ContentLibrary([0.4, 0.35, 0.25], [2.0, 1.0, 1.0])
        h, placement = _echr_csl_with_placement(library, FogCluster([2.0]))
        assert h == pytest.approx(0.6)
        np.testing.assert_allclose(placement.matrix.sum(axis=0), [0.0, 1.0, 1.0])

    def test_respects_per_node_capacities(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            scenario = random_scenario(rng)
            _, placement = _echr_csl_with_placement(scenario.library, scenario.cluster)
            validate_placement(placement, scenario.library, scenario.cluster)


class TestEchrCpl:
    def test_reference_closed_form(self, reference_scenario):
        assert echr_cpl(reference_scenario.traffic) == H_CPL

    def test_stationarity_identity(self, reference_scenario):
        # At the interior stationary point the two queue margins balance:
        # (mu_e - lam h) / sqrt(mu_e) == (mu_b - lam (1 - h)) / sqrt(mu_b).
        h = echr_cpl(reference_scenario.traffic)
        lam, mu_e, mu_b = 4.0, 8.0, 6.0
        lhs = (mu_e - lam * h) / math.sqrt(mu_e)
        rhs = (mu_b - lam * (1.0 - h)) / math.sqrt(mu_b)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_slope_vanishes_at_the_stationary_point(self, reference_scenario):
        h = echr_cpl(reference_scenario.traffic)
        assert float(adt_slope(h, reference_scenario.traffic)) == pytest.approx(0.0, abs=1e-10)

    def test_heterogeneous_root(self, hetero_scenario):
        h = echr_cpl(hetero_scenario.traffic)
        assert h == pytest.approx(HETERO_H_OPT, abs=1e-9)
        assert float(adt_slope(h, hetero_scenario.traffic)) == pytest.approx(0.0, abs=1e-9)

    def test_never_at_zero_under_the_stability_chain(self):
        # The slope at h=0 is negative whenever mu_b < mu_e, so the
        # stationary point is always strictly positive.
        rng = np.random.default_rng(55)
        for _ in range(40):
            traffic = random_scenario(rng).traffic
            assert echr_cpl(traffic) > 0.0

    def test_clamps_to_one_for_slow_arrivals(self):
        # lam tiny: the curve still decreases at h=1, so the clamp binds.
        traffic = TrafficProfile([0.01], [8.0], [6.0])
        assert echr_cpl(traffic) == 1.0

    def test_heterogeneous_clamps_to_one_for_slow_arrivals(self):
        # The root lies far above 1 inside the stable interval; clamped.
        traffic = TrafficProfile([0.01, 0.02], [8.0, 8.0], [6.0, 6.0])
        assert not traffic.homogeneous
        assert echr_cpl(traffic) == 1.0

    @pytest.mark.parametrize("lam", [[1e-6, 2e-6], [1e-9, 3e-9]])
    def test_heterogeneous_light_traffic_returns(self, lam):
        # The root lies so far above 1 that one ulp there exceeds the root
        # finder's 1e-12 tolerance; it must still stop, and clamp to 1.
        traffic = TrafficProfile(lam, [8.0, 8.0], [6.0, 6.0])
        assert bounded(echr_cpl, traffic, seconds=10) == 1.0


class TestLambdaThreshold:
    def test_reference_value(self):
        assert lambda_threshold(H_CSL, 8.0, 6.0) == LAMBDA_STAR

    def test_curves_cross_at_the_threshold(self):
        # At lam = lambda*, the stationary point equals the storage bound.
        traffic = TrafficProfile([LAMBDA_STAR], [8.0], [6.0])
        assert echr_cpl(traffic) == pytest.approx(H_CSL, abs=1e-12)

    def test_none_when_storage_stays_the_bottleneck(self):
        # Small storage bound: the stationary point exceeds it at every
        # stable arrival rate, so no threshold exists.
        assert lambda_threshold(0.25, 8.0, 6.0) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lambda_threshold(0.0, 8.0, 6.0)
        with pytest.raises(ValueError):
            lambda_threshold(0.5, 6.0, 8.0)


class TestPlacementFromEchr:
    def test_reference_target_splits_the_tenth_content(self, reference_scenario):
        placement = placement_from_echr(
            H_CPL, reference_scenario.library, reference_scenario.cluster
        )
        fractions = placement.matrix.sum(axis=0)
        np.testing.assert_array_equal(fractions[:9], np.ones(9))
        assert fractions[9] == pytest.approx(TENTH_FRACTION, abs=1e-12)
        np.testing.assert_array_equal(fractions[10:], np.zeros(10))
        realized = echr(placement, reference_scenario.library)
        assert realized == pytest.approx(H_CPL, abs=1e-14)
        # Cross-check the split against the frozen popularity masses.
        assert TOP9_MASS + TENTH_FRACTION * reference_scenario.library.popularity[9] == (
            pytest.approx(H_CPL, abs=1e-15)
        )

    def test_first_fit_fills_nodes_in_order(self, reference_scenario):
        placement = placement_from_echr(
            H_CPL, reference_scenario.library, reference_scenario.cluster
        )
        loads = placement.matrix @ reference_scenario.library.sizes
        np.testing.assert_allclose(loads[:2], [2.0, 3.0])  # nodes 1-2 exactly full
        assert loads[2] < 5.0

    def test_zero_target_is_the_empty_placement(self, reference_scenario):
        placement = placement_from_echr(
            0.0, reference_scenario.library, reference_scenario.cluster
        )
        np.testing.assert_array_equal(placement.matrix, np.zeros((3, 20)))

    def test_rejects_unreachable_target(self, reference_scenario):
        with pytest.raises(ValueError, match="exceeds the storage-limited bound"):
            placement_from_echr(
                H_CSL + 0.01, reference_scenario.library, reference_scenario.cluster
            )

    def test_rejects_a_nan_target(self, reference_scenario):
        with pytest.raises(ValueError, match="^h_target must be finite, got nan$"):
            placement_from_echr(
                float("nan"), reference_scenario.library, reference_scenario.cluster
            )

    def test_realizes_random_targets_exactly(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            scenario = random_scenario(rng)
            h_csl = echr_csl(scenario.library, scenario.cluster)
            target = float(rng.uniform(0.0, h_csl))
            placement = placement_from_echr(target, scenario.library, scenario.cluster)
            validate_placement(placement, scenario.library, scenario.cluster)
            assert echr(placement, scenario.library) == pytest.approx(target, abs=1e-9)


class TestHeuristicSolve:
    def test_reference_scenario_is_provision_limited(self, reference_scenario):
        result = heuristic_solve(reference_scenario)
        assert result.regime == "CPL"
        assert result.h_csl == H_CSL
        assert result.h_cpl == H_CPL
        assert result.h_star == H_CPL
        assert result.lambda_star == LAMBDA_STAR
        report = overall_adt(result.placement, reference_scenario)
        assert report.overall == pytest.approx(ADT_OPT, abs=1e-15)

    def test_slow_arrivals_are_storage_limited(self):
        scenario = make_scenario(lam=2.0)  # below lambda* = 3.15
        result = heuristic_solve(scenario)
        assert result.regime == "CSL"
        assert result.h_star == H_CSL
        assert result.lambda_star == LAMBDA_STAR

    def test_regime_agrees_with_threshold(self):
        for lam in (1.0, 2.0, 3.0, 3.5, 4.5):
            result = heuristic_solve(make_scenario(lam=lam))
            expected = "CSL" if lam < LAMBDA_STAR else "CPL"
            assert result.regime == expected, lam

    def test_storage_bound_beats_the_stationary_point_on_adt(self, reference_scenario):
        # The stationary point is the true optimum here; pinning the cache to
        # the larger storage-limited ratio must cost download time.
        result = heuristic_solve(reference_scenario)
        csl_placement = placement_from_echr(
            result.h_csl, reference_scenario.library, reference_scenario.cluster
        )
        adt_at_csl = overall_adt(csl_placement, reference_scenario).overall
        assert adt_at_csl == pytest.approx(ADT_AT_CSL, abs=1e-15)
        assert adt_at_csl > ADT_OPT

    def test_heterogeneous_traffic(self, hetero_scenario):
        result = heuristic_solve(hetero_scenario)
        assert result.regime == "CPL"
        assert result.lambda_star is None  # threshold defined only for identical stations
        assert result.h_star == pytest.approx(HETERO_H_OPT, abs=1e-9)
        report = overall_adt(result.placement, hetero_scenario)
        assert report.overall == pytest.approx(HETERO_ADT_OPT, abs=1e-9)

    def test_zero_capacity_cluster(self):
        scenario = Scenario(
            library=ContentLibrary.zipf(6, 0.9),
            cluster=FogCluster([0.0]),
            traffic=TrafficProfile([3.0], [9.0], [5.0]),
        )
        result = heuristic_solve(scenario)
        assert result.h_star == 0.0
        assert result.regime == "CSL"
        assert result.lambda_star is None
        np.testing.assert_array_equal(result.placement.matrix, np.zeros((1, 6)))

    def test_result_is_scalar_optimal_on_random_scenarios(self):
        # h* = min(h_csl, h_cpl) must beat every other realizable hit ratio.
        rng = np.random.default_rng(31337)
        for _ in range(20):
            scenario = random_scenario(rng)
            result = heuristic_solve(scenario)
            best = overall_adt(result.placement, scenario).overall
            for h in rng.uniform(0.0, result.h_csl, size=5):
                other = placement_from_echr(h, scenario.library, scenario.cluster)
                assert overall_adt(other, scenario).overall >= best - 1e-12
