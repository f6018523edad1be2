"""Tests for the data model: libraries, clusters, traffic, placements."""

import dataclasses

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    FogCluster,
    Placement,
    Scenario,
    TrafficProfile,
    validate_scenario,
)
from fogcache.model import validate_placement, zipf_popularity

from conftest import TOP_POPULARITY, make_scenario, random_scenario


class TestZipfPopularity:
    def test_sums_to_one_and_descends(self):
        pop = zipf_popularity(20, 0.6)
        assert pop.shape == (20,)
        assert pop.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(pop) < 0.0)
        assert pop[0] == TOP_POPULARITY

    def test_zero_exponent_is_uniform(self):
        pop = zipf_popularity(5, 0.0)
        np.testing.assert_allclose(pop, 0.2)

    def test_single_content(self):
        np.testing.assert_array_equal(zipf_popularity(1, 1.3), [1.0])

    def test_matches_direct_formula(self):
        ranks = np.arange(1, 13, dtype=float)
        weights = ranks**-0.9
        np.testing.assert_allclose(zipf_popularity(12, 0.9), weights / weights.sum(), rtol=1e-15)

    @pytest.mark.parametrize("count,exponent", [(0, 0.6), (-3, 0.6), (5, -0.1)])
    def test_rejects_bad_arguments(self, count, exponent):
        with pytest.raises(ValueError):
            zipf_popularity(count, exponent)


    @pytest.mark.parametrize(
        "count, message",
        [(2.5, "an integer, got 2.5"), (True, "an integer, got True"), ("3", "an integer, got '3'"),
         (0, "at least 1, got 0")],
    )
    def test_count_must_be_an_integer_of_at_least_one(self, count, message):
        for build in (zipf_popularity, ContentLibrary.zipf):
            with pytest.raises(ValueError, match=f"^count must be {message}$"):
                build(count, 0.6)

    def test_accepts_a_numpy_integer_count(self):
        np.testing.assert_array_equal(zipf_popularity(np.int64(7), 0.6), zipf_popularity(7, 0.6))


class TestContentLibrary:
    def test_zipf_constructor(self):
        lib = ContentLibrary.zipf(20, 0.6)
        assert lib.count == 20
        np.testing.assert_array_equal(lib.sizes, np.ones(20))
        np.testing.assert_array_equal(lib.popularity, zipf_popularity(20, 0.6))

    def test_explicit_sizes(self):
        lib = ContentLibrary([0.5, 0.3, 0.2], [2.0, 1.0, 4.0])
        np.testing.assert_array_equal(lib.sizes, [2.0, 1.0, 4.0])

    def test_accepts_popularity_in_any_order(self):
        lib = ContentLibrary([0.2, 0.5, 0.3])
        np.testing.assert_array_equal(lib.popularity, [0.2, 0.5, 0.3])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ContentLibrary([0.5, 0.3])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ContentLibrary([1.2, -0.2])

    def test_rejects_size_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ContentLibrary([0.6, 0.4], [1.0])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ContentLibrary([0.6, 0.4], [1.0, 0.0])

    def test_frozen(self):
        lib = ContentLibrary.zipf(3, 1.0)
        with pytest.raises(AttributeError):
            lib.popularity = np.ones(3) / 3


class TestFogCluster:
    def test_basic_properties(self):
        cluster = FogCluster([2.0, 3.0, 5.0])
        assert cluster.node_count == 3
        assert cluster.total_capacity == pytest.approx(10.0)

    def test_zero_capacity_is_allowed(self):
        cluster = FogCluster([0.0, 1.0])
        assert cluster.total_capacity == pytest.approx(1.0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            FogCluster([1.0, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FogCluster([])


class TestTrafficProfile:
    def test_properties(self):
        traffic = TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0])
        assert traffic.station_count == 2
        np.testing.assert_allclose(traffic.weights, [2.0 / 3.0, 1.0 / 3.0])

    def test_weights_are_stored_once_and_not_settable(self):
        traffic = TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0])
        assert "weights" in vars(traffic)
        assert traffic.weights is traffic.weights
        with pytest.raises(TypeError):
            TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0], weights=[0.5, 0.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            traffic.weights = np.array([0.5, 0.5])

    def test_rejects_arrival_at_backhaul_rate(self):
        with pytest.raises(ValueError, match=r"BS 1: lam=6 >= mu_b=6"):
            TrafficProfile([6.0], [8.0], [6.0])

    def test_rejects_backhaul_at_edge_rate(self):
        with pytest.raises(ValueError, match="stability chain"):
            TrafficProfile([4.0], [6.0], [6.0])

    def test_rejects_nonpositive_arrivals(self):
        with pytest.raises(ValueError, match="BS 2"):
            TrafficProfile([4.0, 0.0], [8.0, 8.0], [6.0, 6.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TrafficProfile([4.0, 4.0], [8.0], [6.0, 6.0])

    def test_rejects_a_string_array(self):
        with pytest.raises(ValueError, match="^lam entry \\[0\\] must be a number, got '4.0'$"):
            TrafficProfile(np.array(["4.0"]), 8.0, 6.0)


class TestScenario:
    def test_from_dict_broadcasts_scalar_traffic(self):
        scenario = Scenario.from_dict(
            {
                "library": {"F": 4, "alpha": 0.8},
                "cluster": {"capacities": [1.0, 2.0]},
                "traffic": {"lambda": 3.0, "mu_e": 8.0, "mu_b": 6.0},
            }
        )
        assert scenario.traffic.station_count == 2
        np.testing.assert_array_equal(scenario.traffic.lam, [3.0, 3.0])
        np.testing.assert_array_equal(scenario.library.sizes, np.ones(4))

    def test_from_dict_explicit_popularity(self):
        scenario = Scenario.from_dict(
            {
                "library": {"popularity": [0.7, 0.3], "sizes": [1.0, 1.0]},
                "cluster": {"capacities": [1.0]},
                "traffic": {"lambda": [2.0], "mu_e": [9.0], "mu_b": [5.0]},
            }
        )
        np.testing.assert_array_equal(scenario.library.popularity, [0.7, 0.3])

    def test_from_dict_rejects_alpha_and_popularity_together(self):
        with pytest.raises(ValueError):
            Scenario.from_dict(
                {
                    "library": {"F": 2, "alpha": 0.5, "popularity": [0.7, 0.3]},
                    "cluster": {"capacities": [1.0]},
                    "traffic": {"lambda": 2.0, "mu_e": 9.0, "mu_b": 5.0},
                }
            )

    def test_from_dict_rejects_missing_section(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"library": {"F": 2, "alpha": 0.5}})

    @pytest.mark.parametrize("stations,nodes", [(4, 2), (1, 3)])
    def test_stations_and_nodes_are_counted_apart(self, stations, nodes):
        # The caches are pooled: no station is paired with a node.
        scenario = Scenario(
            library=ContentLibrary.zipf(4, 0.6),
            cluster=FogCluster([1.0] * nodes),
            traffic=TrafficProfile([2.0] * stations, [8.0] * stations, [6.0] * stations),
        )
        assert validate_scenario(scenario) is scenario
        assert (scenario.traffic.station_count, scenario.cluster.node_count) == (stations, nodes)

    @pytest.mark.parametrize(
        "traffic,nodes,lam",
        [
            ({"lambda": [2.0, 3.0, 2.5, 1.0], "mu_e": 8.0, "mu_b": 6.0}, 2, [2.0, 3.0, 2.5, 1.0]),
            ({"lambda": 2.0, "mu_e": [8.0] * 4, "mu_b": 6.0}, 2, [2.0] * 4),
            ({"lambda": [2.0], "mu_e": 8.0, "mu_b": [6.0]}, 3, [2.0]),
            ({"lambda": 2.0, "mu_e": 8.0, "mu_b": [6.0]}, 3, [2.0]),
        ],
    )
    def test_from_dict_takes_the_station_count_from_a_list(self, traffic, nodes, lam):
        # A list sets the station count, whatever the node count, and every
        # scalar rate broadcasts to it.
        scenario = Scenario.from_dict(
            {
                "library": {"F": 4, "alpha": 0.8},
                "cluster": {"capacities": [1.0] * nodes},
                "traffic": traffic,
            }
        )
        assert scenario.cluster.node_count == nodes
        np.testing.assert_array_equal(scenario.traffic.lam, lam)
        np.testing.assert_array_equal(scenario.traffic.mu_e, [8.0] * len(lam))
        np.testing.assert_array_equal(scenario.traffic.mu_b, [6.0] * len(lam))

    @pytest.mark.parametrize(
        "traffic",
        [
            {"lambda": [2.0] * 4, "mu_e": [8.0] * 3, "mu_b": 6.0},
            {"lambda": [2.0], "mu_e": 8.0, "mu_b": [6.0, 6.0]},
        ],
    )
    def test_from_dict_rejects_lists_of_unequal_length(self, traffic):
        with pytest.raises(ValueError, match="^lam, mu_e and mu_b must have equal length$"):
            Scenario.from_dict(
                {
                    "library": {"F": 4, "alpha": 0.8},
                    "cluster": {"capacities": [1.0, 1.0]},
                    "traffic": traffic,
                }
            )

    def test_validate_scenario_accepts_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            validate_scenario(random_scenario(rng))

    def test_validate_scenario_rechecks_arrays_changed_after_construction(self):
        scenario = make_scenario()
        scenario.library.popularity[:] = np.nan
        with pytest.raises(ValueError, match="^popularity must be finite$"):
            validate_scenario(scenario)


class TestPlacement:
    def test_basic_properties(self):
        matrix = np.array([[1.0, 0.5, 0.0], [0.0, 0.25, 0.5]])
        placement = Placement(matrix)
        np.testing.assert_allclose(placement.matrix.sum(axis=0), [1.0, 0.75, 0.5])

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            Placement(np.array([0.5, 0.5]))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            Placement(np.array([[np.nan, 0.0]]))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Placement(np.array([[1.5, 0.0]]))

    def test_rejects_over_replicated_content(self):
        with pytest.raises(ValueError, match=r"^content 1: total cached portion 1\.4 exceeds 1$"):
            Placement(np.array([[0.7], [0.7]]))

    def test_tolerance_level_overshoot_is_accepted(self):
        placement = Placement(np.array([[1.0 + 1e-9, 0.0]]))
        assert placement.matrix[0, 0] == pytest.approx(1.0, abs=2e-9)


class TestValidatePlacement:
    def test_accepts_feasible(self, reference_scenario):
        matrix = np.zeros((3, 20))
        matrix[2, :5] = 1.0
        validate_placement(matrix, reference_scenario.library, reference_scenario.cluster)

    def test_rejects_shape_mismatch(self, reference_scenario):
        with pytest.raises(ValueError, match="does not match"):
            validate_placement(
                np.zeros((2, 20)), reference_scenario.library, reference_scenario.cluster
            )

    def test_rejects_over_capacity(self, reference_scenario):
        matrix = np.zeros((3, 20))
        matrix[0, :3] = 1.0  # node 1 holds 3 units but has capacity 2
        with pytest.raises(ValueError, match="node 1: storage use 3 exceeds capacity 2"):
            validate_placement(matrix, reference_scenario.library, reference_scenario.cluster)

    def test_rejects_over_replication(self, reference_scenario):
        matrix = np.zeros((3, 20))
        matrix[:, 4] = 0.4
        with pytest.raises(ValueError, match="content 5: total cached portion 1.2 exceeds 1"):
            validate_placement(matrix, reference_scenario.library, reference_scenario.cluster)

    def test_rejects_a_nan_entry(self, reference_scenario):
        matrix = np.zeros((3, 20))
        matrix[2, 0] = np.nan
        with pytest.raises(ValueError, match="^placement matrix must be finite$"):
            validate_placement(matrix, reference_scenario.library, reference_scenario.cluster)
