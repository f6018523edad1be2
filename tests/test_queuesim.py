"""Tests for the discrete-event queue simulator."""

import copy
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from fogcache import (
    Placement,
    SimConfig,
    SimResult,
    adt_curve,
    echr,
    heuristic_solve,
    overall_adt,
    simulate_cluster,
)

from fogcache import queuesim
from fogcache.queuesim import _BLOCK, _sojourn_blocks, mm1_sojourn_times, simulate_station

from conftest import make_scenario


def _force_cpus(monkeypatch, count):
    """Make ``simulate_cluster`` see ``count`` usable CPUs, so its threaded
    path runs whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class _ScriptedRng:
    """Stands in for a Generator; feeds a predetermined sequence of uniform
    draws into the ``out`` arrays the kernel passes.  Copies read the
    sequence independently, and ``bit_generator.advance(n)`` skips ``n``
    draws.  ``calls`` records ``(stream, size)`` for every draw, where the
    kernel's interarrival draws come from a deep copy (stream "arrivals")
    and its service draws from the original (stream "services"); the copy
    records into the same list."""

    def __init__(self, uniforms):
        self._uniforms = np.asarray(uniforms, dtype=float)
        self._position = 0
        self.stream = "services"
        self.calls = []

    @property
    def bit_generator(self):
        return self

    def advance(self, delta):
        self._position += delta

    def __deepcopy__(self, memo):
        twin = copy.copy(self)
        twin.stream = "arrivals"
        return twin

    def random(self, *, out):
        self.calls.append((self.stream, out.size))
        end = self._position + out.size
        assert end <= self._uniforms.size
        out[:] = self._uniforms[self._position : end]
        self._position = end
        return out


def _unit_sojourns(lam, mu, n_arrivals, rng):
    """Every sojourn time of the blocked kernel, in its unit of ``1/mu``,
    as one array."""
    return np.concatenate([block.copy() for _, block in _sojourn_blocks(lam, mu, n_arrivals, rng)])


def _sojourns(lam, mu, n_arrivals, rng):
    """Every sojourn time of the blocked kernel, in seconds."""
    return _unit_sojourns(lam, mu, n_arrivals, rng) / mu


def _uniform_for(times, rate):
    """Uniform draws that make the exponential sampler produce ``times``."""
    return -np.expm1(-np.asarray(times, dtype=float) * rate)


class TestSimConfig:
    def test_default_warmup_is_one_percent(self):
        assert queuesim._warmup(50_000) == 500

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"n_arrivals": 0},
            {"n_arrivals": 100.0},
            {"n_arrivals": 2.5},
            {"seed": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value", [("n_arrivals", 100.0), ("n_arrivals", 2.5), ("seed", True)]
    )
    def test_non_integer_error_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = SimConfig(seed=np.int64(3), n_arrivals=np.int32(200))
        assert queuesim._warmup(config.n_arrivals) == 2


class TestLindleyRecursion:
    def test_hand_computed_path(self):
        # Interarrival gaps [1, 1, 3] and services [2, 2, 1]:
        #   arrivals [1, 2, 5]; departures [3, 5, 6]; sojourns [2, 3, 1].
        lam, mu = 0.5, 0.25
        rng = _ScriptedRng(
            np.concatenate([_uniform_for([1.0, 1.0, 3.0], lam), _uniform_for([2.0, 2.0, 1.0], mu)])
        )
        sojourn = _sojourns(lam, mu, 3, rng)
        np.testing.assert_allclose(sojourn, [2.0, 3.0, 1.0], rtol=1e-12)

    def test_sojourn_is_at_least_the_service_time(self):
        rng = np.random.default_rng(5)
        services_rng = np.random.default_rng(5)
        _ = services_rng.random(1000)  # skip the interarrival block
        services = -np.log1p(-services_rng.random(1000)) / 7.0
        sojourn = _sojourns(3.0, 7.0, 1000, rng)
        assert np.all(sojourn >= services - 1e-12)

    def test_all_positive(self):
        sojourn = _sojourns(2.0, 9.0, 5000, np.random.default_rng(1))
        assert np.all(sojourn > 0.0)

    def test_each_block_draws_its_arrivals_then_its_services(self):
        n = 3 * _BLOCK + 7
        rng = _ScriptedRng(np.random.default_rng(8).random(2 * n))
        sojourn = _sojourns(0.9, 1.0, n, rng)
        chunks = [_BLOCK, _BLOCK, _BLOCK, 7]
        assert rng.calls == [(stream, k) for k in chunks for stream in ("arrivals", "services")]
        # The first n uniforms are the arrivals and the next n the services,
        # as from a Generator.
        expected = _sojourns(0.9, 1.0, n, np.random.default_rng(8))
        assert sojourn.tobytes() == expected.tobytes()


def _seeded(seed):
    """A fresh generator rooted at ``SeedSequence(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(seed))


class TestMm1SojournTimes:
    def test_matches_the_analytic_mean(self):
        mean, ci = mm1_sojourn_times(4.0, 8.0, 200_000, _seeded(7))
        analytic = 1.0 / (8.0 - 4.0)
        assert abs(mean - analytic) / analytic < 0.02
        assert 0.0 < ci < 0.05 * analytic

    def test_deterministic_for_a_fixed_seed(self):
        first = mm1_sojourn_times(2.5, 6.0, 20_000, _seeded(123))
        second = mm1_sojourn_times(2.5, 6.0, 20_000, _seeded(123))
        assert first == second  # bit-identical, not merely close

    def test_seed_changes_the_stream(self):
        a = mm1_sojourn_times(2.5, 6.0, 10_000, _seeded(1))[0]
        b = mm1_sojourn_times(2.5, 6.0, 10_000, _seeded(2))[0]
        assert a != b

    def test_single_sample_has_infinite_halfwidth(self):
        mean, ci = mm1_sojourn_times(1.0, 5.0, 1, _seeded(0))
        assert mean > 0.0
        assert math.isinf(ci)

    @pytest.mark.parametrize(
        "lam,mu",
        [(5.0, 5.0), (6.0, 5.0), (0.0, 5.0), (-1.0, 5.0)]
        + [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)],
    )
    def test_rejects_unstable_rates(self, lam, mu):
        rng = _seeded(0)
        state = copy.deepcopy(rng.bit_generator.state)
        message = f"need 0 < lam < mu for a stable queue, got lam={lam}, mu={mu}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mm1_sojourn_times(lam, mu, 10_000, rng)
        assert rng.bit_generator.state == state  # checked before any draw

    @pytest.mark.parametrize("n_arrivals", [0, True, 2.5])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, n_arrivals):
        with pytest.raises(ValueError, match="n_arrivals must be"):
            mm1_sojourn_times(0.5, 1.0, n_arrivals, _seeded(0))


class TestSimulateStation:
    def _optimal_setup(self):
        scenario = make_scenario()
        placement = heuristic_solve(scenario).placement
        return scenario, placement

    def test_matches_the_analytic_mixture(self):
        scenario, placement = self._optimal_setup()
        config = SimConfig(seed=3, n_arrivals=150_000)
        report = overall_adt(placement, scenario)
        result = simulate_station(report.h_e, scenario.traffic, 0, config)
        analytic = report.per_station[0]
        assert abs(result.mean_adt - analytic) / analytic < 0.02

    def test_mixture_identities(self):
        scenario, placement = self._optimal_setup()
        h = echr(placement, scenario.library)
        result = simulate_station(h, scenario.traffic, 1, SimConfig(seed=9, n_arrivals=30_000))
        assert result.mean_adt == h * result.mean_sojourn_e + (1.0 - h) * result.mean_sojourn_b

    def test_empty_cache_runs_only_the_backhaul_queue(self):
        scenario = make_scenario()
        result = simulate_station(0.0, scenario.traffic, 0, SimConfig(seed=4, n_arrivals=50_000))
        assert result.mean_sojourn_e is None
        assert result.mean_adt == result.mean_sojourn_b
        # All misses: the station is a plain M/M/1 at the backhaul rate.
        assert abs(result.mean_adt - 0.5) / 0.5 < 0.05

    def test_a_rate_that_underflows_is_no_traffic(self):
        # 0.4 times the least subnormal rounds to 0: the edge queue gets no
        # arrivals, as at h == 0, instead of a zero rate.
        traffic = make_scenario(lam=0.4).traffic
        config = SimConfig(seed=4, n_arrivals=1000)
        assert simulate_station(5e-324, traffic, 0, config) == simulate_station(0.0, traffic, 0, config)

    def test_full_cache_runs_only_the_edge_queue(self):
        # At h == 1 the miss queue receives no traffic and is skipped.
        scenario = make_scenario()
        result = simulate_station(1.0, scenario.traffic, 0, SimConfig(seed=4, n_arrivals=50_000))
        assert result.mean_sojourn_b is None
        assert abs(result.mean_adt - 0.25) / 0.25 < 0.05

    def test_rejects_out_of_range_station(self):
        scenario = make_scenario()
        with pytest.raises(ValueError, match="out of range"):
            simulate_station(0.5, scenario.traffic, 3, SimConfig())

    @pytest.mark.parametrize(
        "station,message",
        [
            (True, "station must be an integer"),
            (1.0, "station must be an integer"),
            (-1, "station must be at least 0"),
        ],
    )
    def test_rejects_a_station_that_is_not_an_index(self, station, message):
        scenario = make_scenario()
        with pytest.raises(ValueError, match=message):
            simulate_station(0.5, scenario.traffic, station, SimConfig(n_arrivals=1000))

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.full((5, 20), 0.2), r"shape \(5, 20\) does not match \(3 nodes, 20 contents\)"),
            (np.full((3, 20), 1 / 3), "node 1: storage use .* exceeds capacity 2"),
        ],
    )
    def test_rejects_a_placement_that_overall_adt_rejects(self, matrix, message):
        # A placement reaches the simulator as the hit ratio of its
        # overall_adt report, which validates it first.
        with pytest.raises(ValueError, match=message):
            overall_adt(Placement(matrix), make_scenario())

    @pytest.mark.parametrize("h", [-1e-12, 1.0 + 2**-52, math.nan, math.inf])
    def test_rejects_a_hit_ratio_outside_the_unit_interval(self, h, monkeypatch):
        traffic = make_scenario().traffic
        config = SimConfig(n_arrivals=1000)
        with pytest.raises(ValueError, match=r"hit ratio must lie in \[0, 1\]"):
            simulate_station(h, traffic, 0, config)
        # With several CPUs a worker's error reaches the caller.
        _force_cpus(monkeypatch, 8)
        with pytest.raises(ValueError, match=r"hit ratio must lie in \[0, 1\]"):
            simulate_cluster(h, traffic, config)


class TestSimulateCluster:
    # With the reference cluster's 3 stations and 8 CPUs every station has its
    # own worker; 8 stations on one or two CPUs make each worker take several
    # from the pool's queue.
    @pytest.mark.parametrize(
        "cpus, capacities",
        [(1, (2.0, 3.0, 5.0)), (2, (2.0, 3.0, 5.0)), (8, (2.0, 3.0, 5.0)),
         (1, (1.25,) * 8), (2, (1.25,) * 8)],
        ids=["1", "2", "8", "8-stations-on-1", "8-stations-on-2"],
    )
    def test_one_result_per_station_matching_single_runs(self, cpus, capacities, monkeypatch):
        _force_cpus(monkeypatch, cpus)
        scenario = make_scenario(capacities=capacities)
        h = echr(heuristic_solve(scenario).placement, scenario.library)
        config = SimConfig(seed=11, n_arrivals=20_000)
        results = simulate_cluster(h, scenario.traffic, config)
        assert len(results) == len(capacities)
        for station, result in enumerate(results):
            assert result == simulate_station(h, scenario.traffic, station, config)

    @pytest.mark.parametrize("interrupt", [False, True], ids=["failure", "interrupt"])
    def test_a_failure_stops_every_worker_and_reaches_the_caller(self, interrupt, monkeypatch):
        workers = 2
        _force_cpus(monkeypatch, workers)
        scenario = make_scenario(capacities=(2.0,) * 8)
        h = echr(heuristic_solve(scenario).placement, scenario.library)
        failure = KeyboardInterrupt() if interrupt else RuntimeError("station 0 failed")
        started = []  # stations in the order they start
        first_started, released = threading.Event(), threading.Event()
        real_station, real_wait = queuesim.simulate_station, queuesim.wait

        def held_station(h, traffic, station, config):
            started.append(station)
            first_started.set()
            if station == 0 and not interrupt:
                raise failure
            # Every other station is held until the caller has cancelled the
            # stations not yet started, so each worker is busy until then.
            assert released.wait(10)
            return real_station(h, traffic, station, config)

        def cancelling_wait(futures, **kwargs):
            # Cancel before releasing the held stations, so that what starts
            # after the failure does not depend on thread timing.
            try:
                if interrupt:
                    assert first_started.wait(10)
                else:
                    real_wait(futures, **kwargs)
                for future in futures:
                    future.cancel()
            finally:
                released.set()
            if interrupt:
                raise failure

        monkeypatch.setattr(queuesim, "simulate_station", held_station)
        monkeypatch.setattr(queuesim, "wait", cancelling_wait)
        threads_before = threading.active_count()
        with pytest.raises(type(failure)) as raised:
            simulate_cluster(h, scenario.traffic, SimConfig(n_arrivals=1000))
        assert raised.value is failure
        assert threading.active_count() == threads_before
        # A worker freed by the failure may start one more station before
        # the rest are cancelled, and none starts after that.
        assert len(started) <= 1 + workers

    def test_stations_use_independent_streams(self):
        # Identical stations must still see different sample paths.
        scenario = make_scenario()
        h = echr(heuristic_solve(scenario).placement, scenario.library)
        results = simulate_cluster(h, scenario.traffic, SimConfig(seed=11, n_arrivals=20_000))
        assert results[0].mean_adt != results[1].mean_adt

    def test_near_empty_backhaul_queue_sojourn_is_its_service_time(self):
        # Ample storage puts h* one ulp below 1, so each backhaul queue sees
        # arrivals at rate 4 * 1.1e-16: every customer finds it empty, and
        # the mean sojourn is the mean service time 1/mu_b.  A recursion
        # over absolute arrival times (about 4.5e20 at the end of this run)
        # loses every digit of the services here.
        scenario = make_scenario(mu_e=100.0, capacities=(10.0, 10.0, 10.0))
        h = echr(heuristic_solve(scenario).placement, scenario.library)
        assert h == 0.9999999999999999
        results = simulate_cluster(h, scenario.traffic, SimConfig(seed=0, n_arrivals=200_000))
        for result in results:
            assert abs(result.mean_sojourn_b - 1 / 6) < 0.02 / 6

    def test_estimates_track_the_analytic_curve(self):
        scenario = make_scenario()
        h = echr(heuristic_solve(scenario).placement, scenario.library)
        analytic = float(adt_curve(h, scenario.traffic))
        results = simulate_cluster(h, scenario.traffic, SimConfig(seed=21, n_arrivals=100_000))
        for result in results:
            assert abs(result.mean_adt - analytic) / analytic < 0.02


# --- oracles: the draws of two whole-array calls, Lindley's recursion as a
# sequential float64 loop over them and in exact arithmetic, and the
# statistics as a whole-array and as a block-by-block computation ---


def _oracle_draws(lam, mu, n_arrivals, rng):
    """Interarrival gaps and services from two whole-array draws."""
    gaps = -np.log1p(-rng.random(n_arrivals)) / lam
    services = -np.log1p(-rng.random(n_arrivals)) / mu
    return gaps, services


def _oracle_lindley(gaps, services):
    """Waits and sojourns from ``W_k = max(W_{k-1} + S_{k-1} - A_k, 0)``,
    one customer at a time in float64."""
    waits = []
    wait = previous = 0.0
    for gap, service in zip(gaps.tolist(), services.tolist()):
        wait = max(wait + previous - gap, 0.0)
        waits.append(wait)
        previous = service
    waits = np.array(waits)
    return waits, waits + services


def _exact_worst_relative_error(gaps, services, sojourn):
    """Largest relative error of ``sojourn`` against Lindley's recursion in
    exact arithmetic on the same draws: every float is scaled by 2**1100 to
    an integer, which represents any double of magnitude above 2**-1074
    exactly."""

    def scaled(x):
        numerator, denominator = x.as_integer_ratio()
        return numerator << (1101 - denominator.bit_length())

    worst, wait, previous = 0.0, 0, 0
    for gap, service, got in zip(gaps.tolist(), services.tolist(), sojourn.tolist()):
        wait = max(wait + previous - scaled(gap), 0)
        previous = scaled(service)
        exact = wait + previous
        worst = max(worst, abs(scaled(got) - exact) / exact)
    return worst


def _rounding_bound(gaps, services, waits, sojourn):
    """Per-customer bound on the kernel's distance from the sequential loop.

    Write ``u = 2**-53`` and ``X_l = S_{l-1} - A_l``, and let ``Y_l`` be the
    partial sums of ``X`` within each ``_BLOCK`` (the kernel's ``cumsum``).
    For customer ``k`` in a busy period that began with customer ``j``
    (the last ``l <= k`` with ``W_l == 0``), the kernel's wait is the
    difference of two partial sums, or one partial sum plus the carried
    wait, so its rounding is at most ``u * sum_{l=j+1..k} (|Y_l| + |X_l|)``
    plus ``u`` of the wait once per block (the subtraction that forms it);
    the loop's is at most ``u * sum_{l=j+1..k} (2 W_l + 2 S_{l-1} + A_l)``;
    each adds ``u`` of the sojourn in the last step.  To first order both
    fit within ``4u * (sojourn_k + sum_{l=j+1..k} (|Y_l| + W_l + S_{l-1} +
    A_l))``.  Every term is local to a block or to a busy period, so the
    bound does not grow with the run length.
    """
    previous = np.concatenate([[0.0], services[:-1]])
    steps = previous - gaps
    partial = np.concatenate(
        [np.cumsum(steps[i : i + _BLOCK]) for i in range(0, steps.size, _BLOCK)]
    )
    terms = np.abs(partial) + waits + previous + gaps
    idle = waits == 0.0
    terms[idle] = 0.0
    total = np.cumsum(terms)
    busy_start = np.maximum.accumulate(np.where(idle, np.arange(waits.size), 0))
    return 2.0**-51 * (sojourn + total - total[busy_start])


def _oracle_mean_ci(samples):
    m = samples.size
    mean = float(samples.mean())
    if m < 2:
        return mean, math.inf
    ci = 1.96 * float(samples.std(ddof=1)) / math.sqrt(m)
    return mean, ci


def _oracle_block_merge(units, warmup, mu):
    """Mean and half-width of ``units[warmup:] / mu`` as the streamed kernel
    forms them: a (count, mean, M2) per block of the whole run, of the
    kernel's current block size, of the sojourns ``units`` in units of
    ``1/mu``, merged in order with Chan, Golub & LeVeque's pairwise update;
    the mean and half-width are then divided by ``mu``."""
    count, mean, m2 = 0, 0.0, 0.0
    size = queuesim._BLOCK
    for start in range(0, units.size, size):
        block = units[max(start, warmup) : start + size]
        if block.size == 0:
            continue
        block_mean = float(np.mean(block))
        block_m2 = float(np.sum((block - block_mean) ** 2))
        total = count + block.size
        delta = block_mean - mean
        mean += delta * (block.size / total)
        m2 += block_m2 + delta * delta * count * (block.size / total)
        count = total
    if count < 2:
        return mean / mu, math.inf
    return mean / mu, 1.96 * math.sqrt(m2 / (count - 1)) / math.sqrt(count) / mu


def _oracle_station(h, traffic, station, config):
    lam = float(traffic.lam[station])
    mu_e = float(traffic.mu_e[station])
    mu_b = float(traffic.mu_b[station])
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)
    warmup = queuesim._warmup(config.n_arrivals)

    def run(rate, mu, seed_seq):
        rng = np.random.default_rng(seed_seq)
        units = _unit_sojourns(rate, mu, config.n_arrivals, rng)
        return _oracle_block_merge(units, warmup, mu)

    if h == 0.0:
        mean_b, ci_b = run(lam, mu_b, children[1])
        return SimResult(None, mean_b, mean_b, ci_b)
    if h == 1.0:
        mean_e, ci_e = run(lam, mu_e, children[0])
        return SimResult(mean_e, None, mean_e, ci_e)
    mean_e, ci_e = run(lam * h, mu_e, children[0])
    mean_b, ci_b = run(lam * (1.0 - h), mu_b, children[1])
    mean = h * mean_e + (1.0 - h) * mean_b
    ci = math.hypot(h * ci_e, (1.0 - h) * ci_b)
    return SimResult(mean_e, mean_b, mean, ci)


_BLOCK_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
#: ``lam`` just below ``mu`` (utilisation 0.999) and ``lam << mu``.
_RATES = ((0.999, 1.0), (1e-3, 10.0), (4.0, 8.0))


def _hit_ratios():
    """``(traffic, h)`` with ``h`` at 0, interior and 1."""
    scenario = make_scenario()
    interior = echr(heuristic_solve(scenario).placement, scenario.library)
    return {
        "empty": (scenario.traffic, 0.0),
        "interior": (scenario.traffic, interior),
        "full": (scenario.traffic, 1.0),
    }


class TestBlockedKernelAccuracy:
    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sojourns_are_within_the_rounding_bound_of_sequential_lindley(
        self, n, lam, mu, seed
    ):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sojourn = _sojourns(lam, mu, n, rng)
        gaps, services = _oracle_draws(lam, mu, n, oracle_rng)
        # Both consumed the same draws: the next one agrees.
        assert rng.random() == oracle_rng.random()
        waits, expected = _oracle_lindley(gaps, services)
        bound = _rounding_bound(gaps, services, waits, expected)
        assert np.all(np.abs(sojourn - expected) <= bound)

    def test_bound_rejects_a_recursion_over_absolute_times(self):
        # Departures as cumS + max(A - (cumS - S)), minus A, over the whole
        # run: at light load the arrival times A grow to 1e8 and the
        # cancellation leaves errors far above the bound.
        n, lam, mu = 3 * _BLOCK + 7, 1e-3, 10.0
        gaps, services = _oracle_draws(lam, mu, n, np.random.default_rng(0))
        arrivals, cum_services = np.cumsum(gaps), np.cumsum(services)
        departures = cum_services + np.maximum.accumulate(arrivals - (cum_services - services))
        waits, expected = _oracle_lindley(gaps, services)
        bound = _rounding_bound(gaps, services, waits, expected)
        assert not np.all(np.abs(departures - arrivals - expected) <= bound)

    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequential_oracle_is_near_exact(self, lam, mu, seed):
        gaps, services = _oracle_draws(lam, mu, 3 * _BLOCK + 7, np.random.default_rng(seed))
        _, sojourn = _oracle_lindley(gaps, services)
        assert _exact_worst_relative_error(gaps, services, sojourn) < 5e-12

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_and_halfwidth_are_the_block_merge_of_its_sojourns(self, n, lam, mu, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean, ci = mm1_sojourn_times(lam, mu, n, rng)
        units = _unit_sojourns(lam, mu, n, oracle_rng)
        assert rng.random() == oracle_rng.random()
        warmup = n // 100
        assert (mean, ci) == _oracle_block_merge(units, warmup, mu)
        # Only the summation order and the division by mu differ from the
        # whole-array statistics of the sojourns in seconds.
        sojourn = units / mu
        whole_mean, whole_ci = _oracle_mean_ci(sojourn[warmup:])
        assert abs(mean - whole_mean) <= 1e-15 * whole_mean
        if math.isinf(whole_ci):
            assert math.isinf(ci)
        else:
            assert abs(ci - whole_ci) <= 1e-15 * whole_ci

    @pytest.mark.parametrize("lam,mu", _RATES)
    def test_blocks_wholly_inside_the_warmup_are_skipped(self, lam, mu, monkeypatch):
        # 2,000 arrivals discard 20: with blocks of 8, the first two lie
        # wholly inside the warm-up and the third partly.
        monkeypatch.setattr(queuesim, "_BLOCK", 8)
        n = 2000
        warmup = queuesim._warmup(n)
        assert warmup >= 2 * queuesim._BLOCK
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        mean, ci = mm1_sojourn_times(lam, mu, n, rng)
        gaps, services = _oracle_draws(lam, mu, n, oracle_rng)
        assert rng.random() == oracle_rng.random()
        _, sojourn = _oracle_lindley(gaps, services)
        whole_mean, whole_ci = _oracle_mean_ci(sojourn[warmup:])
        assert mean == pytest.approx(whole_mean, rel=1e-12, abs=0.0)
        assert ci == pytest.approx(whole_ci, rel=1e-12, abs=0.0)
        kernel = _unit_sojourns(lam, mu, n, np.random.default_rng(5))
        assert (mean, ci) == _oracle_block_merge(kernel, warmup, mu)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("which", ["empty", "interior", "full"])
    def test_station_and_cluster_results_match_the_oracle(self, which, cpus, monkeypatch):
        _force_cpus(monkeypatch, cpus)
        traffic, h = _hit_ratios()[which]
        config = SimConfig(seed=17, n_arrivals=3 * _BLOCK + 7)
        expected = [
            _oracle_station(h, traffic, station, config)
            for station in range(traffic.station_count)
        ]
        assert simulate_station(h, traffic, 1, config) == expected[1]
        assert simulate_cluster(h, traffic, config) == expected


class TestLightLoad:
    def test_a_light_load_finds_every_customer_alone(self):
        # At utilisation 1e-300 the gaps are about 1e300 mean services
        # long, and a block's partial sums of them stay finite.
        lam, mu = 1e-300, 1.0
        mean, ci = mm1_sojourn_times(lam, mu, 100_000, _seeded(0))
        assert math.isfinite(mean) and 0.0 < ci < math.inf
        assert abs(mean - 1.0 / (mu - lam)) <= ci

    @pytest.mark.parametrize("lam,mu", [(1e-303, 1.0), (1e-305, 1.0), (5e-324, 1.0), (1.0, 1e303)])
    def test_a_load_whose_gaps_would_overflow_raises(self, lam, mu):
        # Below a utilisation of about 7e-303 the gaps of a block could sum
        # past the largest double; unguarded, 1e-305 gave a NaN mean.
        rng = _seeded(0)
        state = copy.deepcopy(rng.bit_generator.state)
        message = (
            "load too light to simulate: the interarrival gaps of a block would "
            f"overflow at lam={lam}, mu={mu}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            mm1_sojourn_times(lam, mu, 100_000, rng)
        assert rng.bit_generator.state == state  # checked before any draw

    def test_the_threshold_follows_the_block(self):
        # The guard bounds a block's sum of gaps: the largest unit
        # exponential, 53 ln 2, times the block length, times mu / lam + 1.
        ratio = np.finfo(float).max / (_BLOCK * 53 * math.log(2))
        mean, ci = mm1_sojourn_times(1.0 / (0.5 * ratio), 1.0, 1000, _seeded(0))
        assert math.isfinite(mean) and math.isfinite(ci)
        with pytest.raises(ValueError, match="load too light"):
            mm1_sojourn_times(1.0 / (2.0 * ratio), 1.0, 1000, _seeded(0))


class TestUnitOfTime:
    @pytest.mark.parametrize("k", [-1000, -1, 1, 1000])
    @pytest.mark.parametrize("lam,mu", _RATES)
    def test_scaling_both_rates_by_a_power_of_two_scales_the_results_exactly(self, lam, mu, k):
        # The kernel sees the rates only through mu / lam, and the mean and
        # half-width are divided by mu last.  A kernel working in seconds
        # reads a NaN half-width at k = -1000 and 0.0 at k = 1000: the
        # squared deviations of its sojourns overflow or underflow.
        n, scale = 3 * _BLOCK + 7, 2.0**k
        base = _unit_sojourns(lam, mu, n, _seeded(3))
        scaled = _unit_sojourns(lam * scale, mu * scale, n, _seeded(3))
        assert scaled.tobytes() == base.tobytes()
        mean, ci = mm1_sojourn_times(lam, mu, n, _seeded(3))
        assert mm1_sojourn_times(lam * scale, mu * scale, n, _seeded(3)) == (
            mean / scale,
            ci / scale,
        )


class _AuditedUfunc:
    """A ufunc whose ``accumulate`` calls are logged in ``calls``."""

    def __init__(self, ufunc, calls):
        self._ufunc, self._calls = ufunc, calls

    def accumulate(self, array, *args, out=None, **kwargs):
        shared = out is not None and np.shares_memory(array, out)
        self._calls.append((f"{self._ufunc.__name__}.accumulate", shared))
        return self._ufunc.accumulate(array, *args, out=out, **kwargs)


class _AccumulateAudit:
    """Stands in for ``numpy`` in the kernel's module: forwards every
    attribute, and logs ``(name, out shares memory with the input)`` for
    each ``cumsum`` and ``fmin.accumulate`` call."""

    def __init__(self):
        self.calls = []
        self.fmin = _AuditedUfunc(np.fmin, self.calls)

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, array, *args, out=None, **kwargs):
        self.calls.append(("cumsum", out is not None and np.shares_memory(array, out)))
        return np.cumsum(array, *args, out=out, **kwargs)


class TestKernelReleasesTheGil:
    def test_no_accumulate_writes_over_its_input(self, monkeypatch):
        # numpy holds the GIL for an accumulate whose output overlaps its
        # input, which would make the station threads take turns.
        n = 3 * _BLOCK + 7
        expected = _unit_sojourns(0.9, 1.0, n, _seeded(2))
        audit = _AccumulateAudit()
        monkeypatch.setattr(queuesim, "np", audit)
        units = _unit_sojourns(0.9, 1.0, n, _seeded(2))
        assert units.tobytes() == expected.tobytes()
        assert sorted(set(audit.calls)) == [("cumsum", False), ("fmin.accumulate", False)]
        assert len(audit.calls) == 2 * 4  # one of each per block


def _station_peak_bytes(n_arrivals):
    """``tracemalloc`` peak of one interior ``simulate_station`` call.

    A short untraced call first pays the process's one-time costs (the
    first deep copy of a Generator imports ``numpy.random._pickle``, about
    0.7 MiB), so the peak is the call's own working memory."""
    traffic, h = _hit_ratios()["interior"]
    simulate_station(h, traffic, 0, SimConfig(n_arrivals=1))
    config = SimConfig(seed=0, n_arrivals=n_arrivals)
    tracemalloc.start()
    try:
        simulate_station(h, traffic, 0, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestKernelMemory:
    def test_interior_station_peak_stays_small(self):
        # Two queues of 2e6 arrivals, one at a time, each in three buffers
        # of _BLOCK floats (0.75 MiB).  The kernel that kept an 8-byte
        # entry per arrival peaked at 16.5 MB here.
        assert _station_peak_bytes(2_000_000) < 1.5 * 2**20

    def test_peak_does_not_grow_with_the_run(self):
        short, long = _station_peak_bytes(200_000), _station_peak_bytes(2_000_000)
        assert abs(long - short) < 0.5 * 2**20
