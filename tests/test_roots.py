"""Tests for the safeguarded scalar root finder."""

import numpy as np
import pytest

from fogcache import TrafficProfile, admm, heuristic, heuristic_solve, objective
from fogcache._roots import TOL, increasing_root
from fogcache.errors import NumericalError
from fogcache.objective import _derivatives, stable_echr_interval

from conftest import H_CSL, bounded, make_scenario
from oracle import lambda_star_oracle


def test_closes_the_bracket_once_newton_converges():
    # A residual shaped like the one in the splitting solver's p-update.  Its
    # Newton iterates reach the root from one side, and the last Newton step
    # falls below one ulp, so the far end of the bracket must be closed by a
    # probe just past the root rather than by dozens of bisections.
    def residual(h):
        return h - 0.073 + 1.694 * (1.0 / (2.0 - h) ** 2 - 1.0 / (1.5 + h) ** 2)

    def residual_and_slope(h):
        points.append(h)
        return residual(h), 1.0 + 1.694 * (2.0 / (2.0 - h) ** 3 + 2.0 / (1.5 + h) ** 3)

    points = []
    root = increasing_root(residual_and_slope, -1.5, 2.0)
    assert len(points) <= 12
    assert residual(root - 1e-12) < 0.0 < residual(root + 1e-12)
    assert abs(residual(root)) <= 1e-15


def test_raises_when_no_sign_change_exists():
    with pytest.raises(NumericalError, match="no negative value"):
        increasing_root(lambda x: (x + 10.0, 1.0), -1.0, 1.0)


def test_rejects_an_empty_interval():
    with pytest.raises(ValueError, match="^empty interval \\(1, 1\\)$"):
        increasing_root(lambda x: (x, 1.0), 1.0, 1.0)


def test_finds_the_crossing_after_a_dip():
    # D'(h) of identical stations with h = 0.6875, mu_e = 12 and mu_b = 6,
    # as a function of their arrival rate: it falls until about 12.4, then
    # rises to +inf as the hit queue saturates at 12 / h, ahead of the miss
    # queue.  The first probe lands in the dip, where the slope is negative
    # and no Newton step may be taken.
    h, mu_e, mu_b = 0.6875, 12.0, 6.0

    def func(lam):
        t_e, t_b = 1.0 / (mu_e - lam * h), 1.0 / (mu_b - lam * (1.0 - h))
        value = mu_e / (mu_e - lam * h) ** 2 - mu_b / (mu_b - lam * (1.0 - h)) ** 2
        return value, 2.0 * (h * mu_e * t_e**3 - (1.0 - h) * mu_b * t_b**3)

    hi = mu_e / h
    assert func(0.5 * hi)[1] < 0.0
    root, _ = _checked_root(func, 0.0, hi)
    expected = lambda_star_oracle(h, mu_e, mu_b)
    assert abs(root - expected) <= TOL + 8.0 * np.spacing(expected)


# Arrival rates as a share of mu_b: next to saturation, lam = mu_b (1 - 10^-k)
# for k = 1..10, and light, lam/mu_b down to 10^-9, where the stationary
# point of the download time lies far above 1 and one ulp there exceeds TOL.
SATURATION = range(1, 11)
LIGHT = range(1, 10)


def _checked_root(func, lo, hi):
    """``increasing_root`` on ``(lo, hi)``, returning the root and the number
    of evaluations.  Checks that every evaluated point lies strictly inside
    the interval and that the evaluated values change sign within the
    tolerance of the returned root."""
    points, values = [], []

    def recorded(x):
        points.append(x)
        value, slope = func(x)
        values.append(value)
        return value, slope

    root = bounded(increasing_root, recorded, lo, hi, seconds=10)
    assert all(lo < x < hi for x in points)
    tol = max(TOL, 4.0 * abs(np.spacing(root)))
    near = [(x, v) for x, v in zip(points, values) if abs(x - root) <= tol]
    if (root, 0.0) not in near:
        assert any(x <= root and v < 0.0 for x, v in near)
        assert any(x >= root and v > 0.0 for x, v in near)
    return root, len(points)


def _p_update_residual(traffic, target, c_sq_over_rho):
    """The residual of the splitting solver's p-update at its fixed point:
    ``c . v`` is chosen so that the root is ``target``."""
    cv = target + _derivatives(target, traffic)[0] * c_sq_over_rho

    def residual(h):
        slope, curvature = _derivatives(h, traffic)
        return h - cv + slope * c_sq_over_rho, 1.0 + curvature * c_sq_over_rho

    return residual


def _slope(traffic):
    """``D'`` and ``D''``: the heuristic's residual for ``h_cpl`` and its slope."""
    return lambda h: _derivatives(h, traffic)


def _random_rates(rng, n):
    mu_b = rng.uniform(1.5, 8.0, size=n)
    return mu_b * rng.uniform(1.25, 3.0, size=n), mu_b


class TestPUpdateResiduals:
    """Reference family (F=20, Zipf 0.6, three nodes, mu_e=8, mu_b=6) with a
    seeded ``rho`` from 0.02 to 100; the root is the exact optimum's hit
    ratio, where the iteration converges."""

    @pytest.mark.parametrize("k", SATURATION)
    def test_next_to_saturation(self, k):
        rng = np.random.default_rng(k)
        scenario = make_scenario(lam=6.0 * (1.0 - 10.0**-k))
        popularity = scenario.library.popularity
        target = heuristic_solve(scenario).h_star
        for rho in 10.0 ** rng.uniform(np.log10(0.02), 2.0, size=8):
            c_sq_over_rho = 3 * float(popularity @ popularity) / rho
            func = _p_update_residual(scenario.traffic, target, c_sq_over_rho)
            root, evaluations = _checked_root(func, *stable_echr_interval(scenario.traffic))
            assert evaluations <= 6
            assert abs(root - target) <= TOL

    @pytest.mark.parametrize("k", LIGHT)
    def test_light_traffic(self, k):
        rng = np.random.default_rng(k)
        for _ in range(8):
            n = int(rng.integers(1, 5))
            mu_e, mu_b = _random_rates(rng, n)
            traffic = TrafficProfile(mu_b * 10.0**-k * rng.uniform(0.5, 1.0, size=n), mu_e, mu_b)
            target = float(rng.uniform(0.0, 1.0))
            c_sq_over_rho = float(rng.uniform(1e-3, 1.0))
            func = _p_update_residual(traffic, target, c_sq_over_rho)
            root, _ = _checked_root(func, *stable_echr_interval(traffic))
            assert abs(root - target) <= TOL


class TestHeterogeneousSlope:
    """``D'`` on per-station traffic."""

    @pytest.mark.parametrize("k", SATURATION)
    def test_next_to_saturation(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            mu_e, mu_b = _random_rates(rng, n)
            traffic = TrafficProfile(mu_b * (1.0 - 10.0**-k), mu_e, mu_b)
            _, evaluations = _checked_root(_slope(traffic), *stable_echr_interval(traffic))
            assert evaluations <= 6

    @pytest.mark.parametrize("k", LIGHT)
    def test_light_traffic(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            mu_e, mu_b = _random_rates(rng, n)
            traffic = TrafficProfile(mu_b * 10.0**-k * rng.uniform(0.5, 1.0, size=n), mu_e, mu_b)
            root, _ = _checked_root(_slope(traffic), *stable_echr_interval(traffic))
            assert root > 1.0


class TestOneKernelCallPerEvaluation:
    """Every root caller hands :func:`increasing_root` one callback that runs
    the station kernel once per evaluation, for the value and its slope."""

    @pytest.fixture
    def record(self, monkeypatch):
        """Counts of kernel calls: in total, and within each evaluation of a
        callback passed to ``increasing_root``."""
        counts = {"total": 0, "per_evaluation": []}
        kernel = objective._station_times

        def counted_kernel(*args, **kwargs):
            counts["total"] += 1
            return kernel(*args, **kwargs)

        def counted_root(func, lo, hi):
            def counted(x):
                before = counts["total"]
                result = func(x)
                counts["per_evaluation"].append(counts["total"] - before)
                return result

            return increasing_root(counted, lo, hi)

        for module in (objective, heuristic):
            monkeypatch.setattr(module, "_station_times", counted_kernel)
        for module in (admm, heuristic):
            monkeypatch.setattr(module, "increasing_root", counted_root)
        return counts

    def test_echr_cpl(self, record, hetero_scenario):
        heuristic.echr_cpl(hetero_scenario.traffic)
        assert record["per_evaluation"] and set(record["per_evaluation"]) == {1}
        assert record["total"] == len(record["per_evaluation"])

    def test_p_update(self, record, reference_scenario):
        # One more kernel call after the root, for the step's slope.
        zeros = np.zeros((3, 20))
        admm.p_update(zeros, zeros, reference_scenario, rho=0.5)
        assert record["per_evaluation"] and set(record["per_evaluation"]) == {1}
        assert record["total"] == len(record["per_evaluation"]) + 1

    def test_lambda_threshold_hand_off(self, record, reference_scenario):
        heuristic.lambda_threshold(H_CSL, reference_scenario.traffic)
        assert record["per_evaluation"] and set(record["per_evaluation"]) == {1}
