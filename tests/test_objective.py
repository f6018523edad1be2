"""Tests for the download-time objective and its derivatives."""

import numpy as np
import pytest

from fogcache import (
    ContentLibrary,
    Placement,
    TrafficProfile,
    adt_curve,
    adt_slope,
    echr,
    overall_adt,
)
from fogcache.objective import _derivatives, _station_times, adt_curvature, stable_echr_interval

from conftest import make_scenario, random_feasible_placement, random_scenario


def _reference_traffic():
    return TrafficProfile([4.0], [8.0], [6.0])


class TestEchr:
    def test_rejects_a_column_count_mismatch(self, reference_scenario):
        with pytest.raises(ValueError, match="^placement with 19 contents does not match a library of 20$"):
            echr(np.zeros((3, 19)), reference_scenario.library)

    def test_weights_fractions_by_popularity(self):
        library = ContentLibrary([0.5, 0.3, 0.2])
        placement = Placement(np.array([[1.0, 0.5, 0.0]]))
        assert echr(placement, library) == pytest.approx(0.5 + 0.15)

    def test_sums_rows_before_weighting(self):
        library = ContentLibrary([0.6, 0.4])
        placement = Placement(np.array([[0.5, 0.0], [0.5, 1.0]]))
        assert echr(placement, library) == pytest.approx(1.0)

    def test_empty_placement_has_zero_hits(self):
        library = ContentLibrary.zipf(4, 0.7)
        assert echr(Placement(np.zeros((2, 4))), library) == 0.0


class TestStableInterval:
    def test_reference_interval(self):
        lo, hi = stable_echr_interval(_reference_traffic())
        assert lo == pytest.approx(-0.5)
        assert hi == pytest.approx(2.0)

    def test_whole_unit_interval_is_stable_under_the_chain(self):
        # With lam < mu_b < mu_e the open interval always contains [0, 1].
        rng = np.random.default_rng(42)
        for _ in range(50):
            traffic = random_scenario(rng).traffic
            lo, hi = stable_echr_interval(traffic)
            assert lo < 0.0 < 1.0 < hi


class TestAdtCurve:
    def test_endpoints(self):
        traffic = _reference_traffic()
        # h=0: all misses, t = 1/(mu_b - lam); h=1: all hits, t = 1/(mu_e - lam).
        assert adt_curve(0.0, traffic) == pytest.approx(0.5)
        assert adt_curve(1.0, traffic) == pytest.approx(0.25)

    def test_vectorized_matches_scalar(self):
        traffic = _reference_traffic()
        grid = np.linspace(0.0, 1.0, 13)
        values = adt_curve(grid, traffic)
        assert values.shape == grid.shape
        for h, value in zip(grid, values):
            assert value == pytest.approx(float(adt_curve(float(h), traffic)), rel=1e-15)

    def test_weighted_average_across_stations(self):
        traffic = TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0])
        single = TrafficProfile([4.0], [8.0], [6.0])
        other = TrafficProfile([2.0], [8.0], [6.0])
        h = 0.37
        expected = (4.0 * float(adt_curve(h, single)) + 2.0 * float(adt_curve(h, other))) / 6.0
        assert float(adt_curve(h, traffic)) == pytest.approx(expected, rel=1e-15)

    def test_slope_matches_finite_differences(self):
        traffic = _reference_traffic()
        for h in (0.1, 0.35, 0.66, 0.9):
            e = 1e-6
            fd = (float(adt_curve(h + e, traffic)) - float(adt_curve(h - e, traffic))) / (2 * e)
            assert float(adt_slope(h, traffic)) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_curvature_is_positive(self):
        traffic = _reference_traffic()
        assert np.all(adt_curvature(np.linspace(0.0, 1.0, 21), traffic) > 0.0)

    def test_slope_is_increasing(self):
        # Positive curvature everywhere means the slope must increase in h.
        traffic = _reference_traffic()
        slopes = adt_slope(np.linspace(0.0, 1.0, 50), traffic)
        assert np.all(np.diff(slopes) > 0.0)


    def test_defined_on_the_stable_headroom_beyond_unit_interval(self):
        # The reference interval is (-0.5, 2); the root finders step outside [0, 1].
        traffic = _reference_traffic()
        assert np.all(np.isfinite(adt_curve(np.array([-0.49, 1.5, 1.99]), traffic)))

    @pytest.mark.parametrize("function", [adt_curve, adt_slope, adt_curvature])
    def test_rejects_hit_ratios_outside_the_stable_interval(self, function):
        traffic = _reference_traffic()
        for h in (-0.5, 2.0, np.array([0.3, 2.5])):
            with pytest.raises(ValueError, match="stable range"):
                function(h, traffic)


class TestStationTimes:
    def test_extremes_send_all_traffic_to_one_queue(self):
        traffic = TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0])
        t_e, t_b, d = _station_times(0.0, traffic)
        np.testing.assert_array_equal(t_e, 1.0 / traffic.mu_e)
        np.testing.assert_array_equal(t_b, 1.0 / (traffic.mu_b - traffic.lam))
        np.testing.assert_array_equal(d, t_b)
        t_e, t_b, d = _station_times(1.0, traffic)
        np.testing.assert_array_equal(t_e, 1.0 / (traffic.mu_e - traffic.lam))
        np.testing.assert_array_equal(t_b, 1.0 / traffic.mu_b)
        np.testing.assert_array_equal(d, t_e)

    def test_download_time_matches_the_closed_form(self):
        traffic = TrafficProfile([4.0, 2.0, 5.5], [8.0, 9.0, 7.0], [6.0, 3.0, 6.0])
        lam, mu_e, mu_b = traffic.lam, traffic.mu_e, traffic.mu_b
        for h in np.linspace(0.0, 1.0, 17):
            expected = h / (mu_e - lam * h) + (1.0 - h) / (mu_b - lam * (1.0 - h))
            np.testing.assert_allclose(_station_times(h, traffic)[2], expected, rtol=1e-14)

    def test_hit_ratios_broadcast_against_the_station_axis(self):
        traffic = TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0])
        h = np.linspace(0.0, 1.0, 5)[:, np.newaxis]
        for part in _station_times(h, traffic):
            assert part.shape == (5, 2)


class TestAdtCurvature:
    def test_positive_on_the_heterogeneous_grid(self, hetero_scenario):
        values = adt_curvature(np.linspace(0.0, 1.0, 11), hetero_scenario.traffic)
        assert np.all(values > 0.0)

    def test_matches_finite_differences_of_the_slope(self, hetero_scenario):
        traffic = hetero_scenario.traffic
        for h in (0.05, 0.4, 0.8):
            e = 1e-6
            fd = (float(adt_slope(h + e, traffic)) - float(adt_slope(h - e, traffic))) / (2 * e)
            assert float(adt_curvature(h, traffic)) == pytest.approx(fd, rel=1e-6)

# --- oracle: the derivative kernels as they were written before they were
# derived from the sojourn times, kept verbatim ---


def _oracle_slope_terms(h, lam, mu_e, mu_b, weights):
    """Weighted per-station hit and miss terms of the old slope expression."""
    return weights * mu_e / (mu_e - lam * h) ** 2, weights * mu_b / (mu_b - lam * (1.0 - h)) ** 2


def _oracle_slope_at(h, lam, mu_e, mu_b, weights):
    per_station = mu_e / (mu_e - lam * h) ** 2 - mu_b / (mu_b - lam * (1.0 - h)) ** 2
    return np.sum(weights * per_station, axis=-1)


def _oracle_curvature_at(h, lam, mu_e, mu_b, weights):
    per_station = (
        2.0 * mu_e * lam / (mu_e - lam * h) ** 3
        + 2.0 * mu_b * lam / (mu_b - lam * (1.0 - h)) ** 3
    )
    return np.sum(weights * per_station, axis=-1)


class TestDerivativeKernelsMatchTheOracle:
    def test_random_heterogeneous_profiles_up_to_utilisation_0999(self):
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 101)[:, np.newaxis]
        for _ in range(200):
            n = int(rng.integers(1, 9))
            mu_b = rng.uniform(0.5, 20.0, size=n)
            mu_e = mu_b * rng.uniform(1.01, 4.0, size=n)
            lam = mu_b * rng.uniform(0.05, 0.999, size=n)
            traffic = TrafficProfile(lam, mu_e, mu_b)
            rates = (traffic.lam, traffic.mu_e, traffic.mu_b, traffic.weights)

            hit, miss = _oracle_slope_terms(grid, *rates)
            scale = np.sum(hit + miss, axis=-1)
            slope, curvature = _derivatives(grid, traffic)
            slope_error = np.abs(slope - _oracle_slope_at(grid, *rates))
            assert np.all(slope_error <= 1e-12 * scale)

            expected = _oracle_curvature_at(grid, *rates)
            np.testing.assert_allclose(curvature, expected, rtol=1e-12, atol=0)


class TestOverallAdt:
    def test_empty_cache_reference_value(self, reference_scenario):
        report = overall_adt(Placement(np.zeros((3, 20))), reference_scenario)
        assert report.h_e == 0.0
        assert report.overall == pytest.approx(0.5)
        np.testing.assert_allclose(report.t_b, 0.5)

    def test_report_breakdown_is_consistent(self, reference_scenario):
        rng = np.random.default_rng(12)
        placement = random_feasible_placement(
            rng, reference_scenario.library, reference_scenario.cluster
        )
        report = overall_adt(placement, reference_scenario)
        assert report.h_e + report.h_b == pytest.approx(1.0)
        recomputed = report.h_e * report.t_e + report.h_b * report.t_b
        np.testing.assert_allclose(recomputed, report.per_station, rtol=1e-15)
        weights = reference_scenario.traffic.weights
        assert report.overall == pytest.approx(float(weights @ report.per_station), rel=1e-15)
        assert report.overall == pytest.approx(
            float(adt_curve(report.h_e, reference_scenario.traffic)), rel=1e-12
        )

    def test_single_station_matches_the_curve_exactly(self):
        # One expression gives the per-station time behind both functions.
        scenario = make_scenario(capacities=(4.0,))
        rng = np.random.default_rng(21)
        for _ in range(50):
            placement = random_feasible_placement(rng, scenario.library, scenario.cluster)
            report = overall_adt(placement, scenario)
            assert report.overall == adt_curve(report.h_e, scenario.traffic)

    def test_rejects_infeasible_placement(self, reference_scenario):
        matrix = np.zeros((3, 20))
        matrix[0, :5] = 1.0  # over node 1's capacity of 2
        with pytest.raises(ValueError, match="exceeds capacity"):
            overall_adt(matrix, reference_scenario)

    def test_rejects_a_nan_entry(self, reference_scenario):
        matrix = np.zeros((3, 20))
        matrix[1, 3] = np.nan
        with pytest.raises(ValueError, match="^placement matrix must be finite$"):
            overall_adt(matrix, reference_scenario)


class TestPlacementGradient:
    def test_matches_finite_differences(self):
        # D reaches entry (i, f) only through h, so its partial derivative
        # there is D'(h) * popularity[f].
        rng = np.random.default_rng(99)
        scenario = make_scenario(capacities=(2.0, 5.0))
        placement = random_feasible_placement(rng, scenario.library, scenario.cluster, margin=0.8)
        vector = placement.matrix.ravel()
        slope = adt_slope(echr(placement, scenario.library), scenario.traffic)
        popularity = scenario.library.popularity
        base = overall_adt(Placement(placement.matrix), scenario).overall
        for j in rng.choice(vector.size, size=8, replace=False):
            e = 1e-7
            bumped = vector.copy()
            bumped[j] += e
            matrix = bumped.reshape(placement.matrix.shape)
            fd = (overall_adt(Placement(matrix), scenario).overall - base) / e
            partial = slope * popularity[j % scenario.library.count]
            assert partial == pytest.approx(fd, rel=1e-5, abs=1e-12)
