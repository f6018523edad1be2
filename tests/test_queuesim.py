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
from fogcache.queuesim import (
    _BLOCK,
    _MAX_GAP_SCALE,
    _sojourn_blocks,
    mm1_sojourn_times,
    simulate_station,
)

from conftest import make_scenario


def _force_cpus(monkeypatch, count):
    """Make ``simulate_cluster`` see ``count`` usable CPUs, so its threaded
    path runs whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class _ScriptedRng:
    """Stands in for a Generator; feeds a predetermined sequence of uniform
    draws into the ``out`` arrays the kernel passes, and records the size of
    every draw in ``calls``."""

    def __init__(self, uniforms):
        self._uniforms = np.asarray(uniforms, dtype=float)
        self._position = 0
        self.calls = []

    def random(self, *, out):
        self.calls.append(out.size)
        end = self._position + out.size
        assert end <= self._uniforms.size
        out[:] = self._uniforms[self._position : end]
        self._position = end
        return out


def _unit_sojourns(lam, mu, n_arrivals, rng):
    """Every sojourn time of the blocked kernel, in its unit of ``1/mu``,
    as one array in customer order: each block's ``(lanes, m)`` array holds
    customer ``start + lanes * j + r`` at ``[r, j]``."""
    blocks = _sojourn_blocks(lam, mu, n_arrivals, rng)
    return np.concatenate([block.T.flatten() for _, block in blocks])


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
        # The wait is Y minus a running minimum of Y, never negative, and
        # adding it to the service rounds to at least the service.
        _, services = _oracle_draws(3.0, 7.0, 1000, np.random.default_rng(5))
        units = _unit_sojourns(3.0, 7.0, 1000, np.random.default_rng(5))
        assert np.all(units >= services)

    def test_all_positive(self):
        sojourn = _sojourns(2.0, 9.0, 5000, np.random.default_rng(1))
        assert np.all(sojourn > 0.0)

    def test_each_block_draws_its_arrivals_then_its_services(self):
        # One draw of 2k uniforms per block of k: the warm-up of 1,474
        # arrivals is one block, and the rest of the run starts at its end.
        n = 3 * _BLOCK + 7
        rng = _ScriptedRng(np.random.default_rng(8).random(2 * n))
        sojourn = _sojourns(0.9, 1.0, n, rng)
        chunks = [1474, _BLOCK, _BLOCK, n - 1474 - 2 * _BLOCK]
        assert [k for _, k in _oracle_blocks(n)] == chunks
        assert rng.calls == [2 * k for k in chunks]
        # The same uniforms from a Generator give the same sojourns.
        expected = _sojourns(0.9, 1.0, n, np.random.default_rng(8))
        assert sojourn.tobytes() == expected.tobytes()
        # And they are the oracle's draws: the gaps, then the services, of
        # each block in lane order.
        gaps, services = _oracle_draws(0.9, 1.0, n, np.random.default_rng(8))
        _, oracle = _oracle_lindley(gaps, services)
        np.testing.assert_allclose(sojourn, oracle, rtol=1e-9)


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

    @pytest.mark.parametrize(
        "bit_generator",
        [
            np.random.PCG64,
            np.random.PCG64DXSM,
            np.random.SFC64,
            np.random.MT19937,
            np.random.Philox,
        ],
    )
    def test_any_generator_works(self, bit_generator):
        # The kernel draws from the one stream it is given: no bit generator
        # needs to be copied or advanced.
        def run():
            return mm1_sojourn_times(0.5, 1.0, 1000, np.random.Generator(bit_generator(1)))

        mean, ci = run()
        assert math.isfinite(mean) and 0.0 < ci < math.inf
        assert run() == (mean, ci)


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


#: Student-t 97.5% quantile with 29 degrees of freedom.
_T_975_29 = 2.0452


def _relaxation_arrivals(rate, mu):
    """Arrivals in 1,000 relaxation times ``1 / (mu (1 - sqrt(rho))**2)`` of
    an M/M/1 queue at utilisation ``rho = rate / mu`` (Asmussen & Glynn
    2007, ch. IV), so that the warm-up of 1% is 10 of them."""
    return math.ceil(1000 * rate / (mu * (1.0 - math.sqrt(rate / mu)) ** 2))


def _t_interval(means):
    """Center and Student-t 95% half-width of 30 replication means."""
    assert len(means) == 30
    return float(np.mean(means)), _T_975_29 * float(np.std(means, ddof=1)) / math.sqrt(30)


class TestIndependentReplications:
    # Thirty replications, seeds 0-29, each 1,000 relaxation times long.
    # Their Student-t interval does not lean on the kernel's own half-width,
    # which takes correlated sojourns as independent.  It guards the law of
    # the sample path that the mapping of draws to customers builds: draws
    # shared by gaps and services, or a column carry one column off, shift
    # the mean of every replication alike and fail here.  The oracle tests
    # pin the exact mapping.
    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_queue_means_cover_the_analytic_mean(self, rho):
        lam, mu = rho, 1.0
        n = _relaxation_arrivals(lam, mu)
        means = [
            mm1_sojourn_times(lam, mu, n, np.random.Generator(np.random.SFC64(seed)))[0]
            for seed in range(30)
        ]
        center, half = _t_interval(means)
        assert abs(center - 1.0 / (mu - lam)) <= half

    def test_station_means_cover_the_analytic_mixture(self):
        scenario = make_scenario()
        report = overall_adt(heuristic_solve(scenario).placement, scenario)
        h, traffic = report.h_e, scenario.traffic
        assert 0.0 < h < 1.0
        lam, mu_e, mu_b = traffic.lam[0], traffic.mu_e[0], traffic.mu_b[0]
        n = max(_relaxation_arrivals(lam * h, mu_e), _relaxation_arrivals(lam * (1 - h), mu_b))
        means = [
            simulate_station(h, traffic, 0, SimConfig(seed=seed, n_arrivals=n)).mean_adt
            for seed in range(30)
        ]
        center, half = _t_interval(means)
        assert abs(center - report.per_station[0]) <= half


# --- oracles: the kernel's draws, Lindley's recursion as a sequential float64
# loop over them and in exact arithmetic, and the statistics as a whole-array
# and as a block-by-block computation ---


def _oracle_blocks(n_arrivals):
    """``(start, k)`` of each block of a queue of ``n_arrivals``: at most
    ``_BLOCK`` customers each, the warm-up (the first 1%) cut from 0 and
    the rest of the run from its end."""
    warmup, size = n_arrivals // 100, queuesim._BLOCK
    return [
        (start, min(size, end - start))
        for first, end in ((0, warmup), (warmup, n_arrivals))
        for start in range(first, end, size)
    ]


def _lanes(k):
    """Lanes of a block of ``k``: the largest of 8, 4, 2, 1 dividing it."""
    return next(lanes for lanes in (8, 4, 2, 1) if k % lanes == 0)


def _oracle_draws(lam, mu, n_arrivals, rng):
    """Interarrival gaps and services in units of ``1/mu``, in customer
    order.  Each block of ``k`` draws ``2k`` uniforms, the gaps then the
    services, each in lane order: customer ``start + lanes * j + r`` takes
    the draw at ``r * (k / lanes) + j``."""
    ratio = min(mu / lam, _MAX_GAP_SCALE)
    gaps, services = [], []
    for _, k in _oracle_blocks(n_arrivals):
        unit = -np.log(1.0 - rng.random(2 * k))
        gaps.append(unit[:k].reshape(_lanes(k), -1).T.ravel() * ratio)
        services.append(unit[k:].reshape(_lanes(k), -1).T.ravel())
    return np.concatenate(gaps), np.concatenate(services)


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
    """Per-customer bound on the kernel's distance from the sequential loop,
    both in units of ``1/mu``.

    Write ``u = 2**-53`` and ``X_l = S_{l-1} - A_l``.  Within each block let
    ``Y_l`` be the block-local partial sum of ``X`` up to ``l``, and ``P_l``
    the partial sum down ``l``'s column (its ``lanes`` consecutive
    customers) up to ``l``.  The kernel rounds each ``X_l``, each step of
    ``P`` down a column, each column carry ``C`` (the ``Y`` of the column's
    last customer) and each ``Y = P + C`` once, and the minimum is exact.
    For customer ``c`` in a busy period that began with customer ``i`` (the
    last ``l <= c`` with ``W_l == 0``), the kernel's wait is ``Y_c - Y_i``,
    or ``Y_c`` plus the carried wait when ``i`` lies in an earlier block.
    The roundings the two partial sums share cancel, and what remains is at
    most ``u * (|Y_c| + |Y_i| + sum_{l=i+1..c} (|P_l| + |X_l|) + sum_e
    |Y_e|)``, with ``e`` over the columns' last customers in ``[i, c)``,
    plus ``u`` of each wait formed, this one and the carried one.  A
    customer alone (``c == i``) gets the exact wait 0.  The loop's rounding
    is at most ``u * sum_{l=i+1..c} (2 W_l + 2 S_{l-1} + A_l)``, and each
    adds ``u`` of the sojourn in the last step.  As ``|X_l| <= S_{l-1} +
    A_l`` and ``W_c <= sojourn_c``, to first order both fit within ``4u *
    (sojourn_c + [c > i] (|Y_c| + |Y_i|) + sum_{l=i+1..c} (|P_l| + W_l +
    S_{l-1} + A_l + [l - 1 ends a column] |Y_{l-1}|))``.  Every term is
    local to a block or to a busy period, so the bound does not grow with
    the run length.
    """
    previous = np.concatenate([[0.0], services[:-1]])
    steps = previous - gaps
    partial, column, ends = np.empty(steps.size), np.empty(steps.size), np.zeros(steps.size)
    for start, k in _oracle_blocks(steps.size):
        block, lanes = steps[start : start + k], _lanes(k)
        partial[start : start + k] = np.cumsum(block)
        column[start : start + k] = np.cumsum(block.reshape(-1, lanes), axis=1).ravel()
        last = slice(start + lanes - 1, start + k, lanes)
        ends[last] = np.abs(partial[last])
    terms = np.abs(column) + waits + previous + gaps
    terms[1:] += ends[:-1]
    idle = waits == 0.0
    terms[idle] = 0.0
    total = np.cumsum(terms)
    busy_start = np.maximum.accumulate(np.where(idle, np.arange(waits.size), 0))
    ends_of_busy = np.where(idle, 0.0, np.abs(partial) + np.abs(partial[busy_start]))
    return 2.0**-51 * (sojourn + ends_of_busy + total - total[busy_start])


def _oracle_mean_ci(samples):
    m = samples.size
    mean = float(samples.mean())
    if m < 2:
        return mean, math.inf
    ci = 1.96 * float(samples.std(ddof=1)) / math.sqrt(m)
    return mean, ci


def _oracle_block_merge(units, mu):
    """Mean and half-width of the kept sojourns ``units / mu`` as the
    streamed kernel forms them: a (count, mean, M2) per block after the
    warm-up, of the sojourns ``units`` in units of ``1/mu`` and in lane
    order, merged in order with Chan, Golub & LeVeque's pairwise update;
    the mean and half-width are then divided by ``mu``."""
    count, mean, m2 = 0, 0.0, 0.0
    for start, k in _oracle_blocks(units.size):
        if start < units.size // 100:
            continue
        block = units[start : start + k].reshape(-1, _lanes(k)).T.ravel()
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

    def run(rate, mu, seed_seq):
        rng = np.random.default_rng(seed_seq)
        units = _unit_sojourns(rate, mu, config.n_arrivals, rng)
        return _oracle_block_merge(units, mu)

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
        units = _unit_sojourns(lam, mu, n, rng)
        gaps, services = _oracle_draws(lam, mu, n, oracle_rng)
        # Both consumed the same draws: the next one agrees.
        assert rng.random() == oracle_rng.random()
        waits, expected = _oracle_lindley(gaps, services)
        bound = _rounding_bound(gaps, services, waits, expected)
        assert np.all(np.abs(units - expected) <= bound)

    def test_bound_rejects_a_recursion_over_absolute_times(self):
        # Departures as cumS + max(A - (cumS - S)), minus A, over the whole
        # run: at light load the arrival times A grow to 1.5e9 mean services
        # and the cancellation leaves errors far above the bound.
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
        assert (mean, ci) == _oracle_block_merge(units, mu)
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
        # 2,000 arrivals discard 20: with blocks of 8, the warm-up is cut
        # into blocks of 8, 8 and 4, and the kept run starts at 20.
        monkeypatch.setattr(queuesim, "_BLOCK", 8)
        n = 2000
        warmup = queuesim._warmup(n)
        warmup_blocks = [block for block in _oracle_blocks(n) if block[0] < warmup]
        assert warmup_blocks == [(0, 8), (8, 8), (16, 4)]
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        mean, ci = mm1_sojourn_times(lam, mu, n, rng)
        gaps, services = _oracle_draws(lam, mu, n, oracle_rng)
        assert rng.random() == oracle_rng.random()
        _, sojourn = _oracle_lindley(gaps, services)
        whole_mean, whole_ci = _oracle_mean_ci(sojourn[warmup:] / mu)
        assert mean == pytest.approx(whole_mean, rel=1e-12, abs=0.0)
        assert ci == pytest.approx(whole_ci, rel=1e-12, abs=0.0)
        kernel = _unit_sojourns(lam, mu, n, np.random.default_rng(5))
        assert (mean, ci) == _oracle_block_merge(kernel, mu)

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
    def test_every_stable_load_simulates(self, lam, mu):
        # Without the cap on mu / lam, 2**900, a block's gaps could sum past
        # the largest double at these loads: 1e-305 once gave a NaN mean.
        # At 5e-324, a subnormal lam, mu / lam is infinite.
        mean, ci = mm1_sojourn_times(lam, mu, 100_000, _seeded(0))
        assert math.isfinite(mean) and 0.0 < ci < math.inf
        assert abs(mean - 1.0 / (mu - lam)) <= ci

    def test_a_ratio_past_the_cap_gives_the_sojourns_at_the_cap(self):
        # Twice the cap runs as the cap, bit for bit.  Every customer finds
        # the system empty, as without the cap, so each sojourn is its own
        # service: the unit exponential of the second half of its block's
        # draws.
        n = _BLOCK + 7
        at_cap = _unit_sojourns(1.0, _MAX_GAP_SCALE, n, _seeded(5))
        past_cap = _unit_sojourns(1.0, 2.0 * _MAX_GAP_SCALE, n, _seeded(5))
        assert past_cap.tobytes() == at_cap.tobytes()
        _, services = _oracle_draws(1.0, _MAX_GAP_SCALE, n, _seeded(5))
        np.testing.assert_array_equal(at_cap, services)


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


def _same_view(a, b):
    """Whether ``a`` and ``b`` are the very same elements in the same order."""
    return (
        a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        and a.shape == b.shape
        and a.strides == b.strides
    )


class _AuditedUfunc:
    """A ufunc whose calls, reductions and accumulates are checked against
    ``audit``: see :class:`_NumpyAudit`."""

    def __init__(self, ufunc, audit):
        self._ufunc, self._audit = ufunc, audit

    def __getattr__(self, name):
        return getattr(self._ufunc, name)

    def __call__(self, *inputs, out=None, **kwargs):
        self._audit.check(self._ufunc.__name__, inputs, out)
        return self._ufunc(*inputs, out=out, **kwargs)

    def reduce(self, array, *args, out=None, **kwargs):
        self._audit.check(f"{self._ufunc.__name__}.reduce", (array,), out)
        return self._ufunc.reduce(array, *args, out=out, **kwargs)

    def accumulate(self, array, *args, out=None, **kwargs):
        name = f"{self._ufunc.__name__}.accumulate"
        self._audit.log_accumulate(name, array, out)
        return self._ufunc.accumulate(array, *args, out=out, **kwargs)


class _NumpyAudit:
    """Stands in for ``numpy`` in the kernel's module and forwards every
    attribute.  Each ufunc call, reduction and accumulate whose ``out``
    overlaps an input other than as the very same view lands in
    ``shifted``: numpy copies that input first, allocating while it holds
    the GIL.  Each accumulate (``cumsum`` included) logs ``(name, size, out
    shares memory with the input)`` in ``accumulates``."""

    def __init__(self):
        self.shifted, self.accumulates = [], []

    def __getattr__(self, name):
        attribute = getattr(np, name)
        return _AuditedUfunc(attribute, self) if isinstance(attribute, np.ufunc) else attribute

    def check(self, name, inputs, out):
        for array in inputs:
            if (
                isinstance(out, np.ndarray)
                and isinstance(array, np.ndarray)
                and np.shares_memory(array, out)
                and not _same_view(array, out)
            ):
                self.shifted.append(name)

    def log_accumulate(self, name, array, out):
        self.check(name, (array,), out)
        shared = out is not None and np.shares_memory(array, out)
        self.accumulates.append((name, array.size, shared))

    def cumsum(self, array, *args, out=None, **kwargs):
        self.log_accumulate("cumsum", array, out)
        return np.cumsum(array, *args, out=out, **kwargs)


class TestKernelReleasesTheGil:
    def test_no_call_writes_over_a_shifted_input(self, monkeypatch):
        # numpy holds the GIL for an accumulate whose output overlaps its
        # input, and copies any input that its output overlaps at another
        # offset, either of which would make the station threads take turns.
        n = 3 * _BLOCK + 7
        expected = _unit_sojourns(0.9, 1.0, n, _seeded(2))
        audit = _NumpyAudit()
        monkeypatch.setattr(queuesim, "np", audit)
        units = _unit_sojourns(0.9, 1.0, n, _seeded(2))
        assert units.tobytes() == expected.tobytes()
        assert audit.shifted == []
        # Per block of k in L lanes of m: one cumsum of the m column totals
        # and one fmin.accumulate of the first m - 1 column minima, neither
        # over its input.
        per_block = [
            [("cumsum", k // _lanes(k), False), ("fmin.accumulate", k // _lanes(k) - 1, False)]
            for _, k in _oracle_blocks(n)
        ]
        assert audit.accumulates == sum(per_block, [])

    def test_the_audit_sees_a_shifted_output(self):
        # The audit itself flags what it must: an output one entry past its
        # input, and any accumulate over its input, even as the same view.
        audit, x = _NumpyAudit(), np.arange(5.0)
        audit.add(x[:-1], 1.0, out=x[1:])
        audit.add(x, 1.0, out=x)
        audit.fmin.accumulate(x, out=x)
        assert audit.shifted == ["add"]
        assert audit.accumulates == [("fmin.accumulate", 5, True)]


def _station_peak_bytes(n_arrivals):
    """``tracemalloc`` peak of one interior ``simulate_station`` call.

    A short untraced call first pays the process's one-time costs, so the
    peak is the call's own working memory."""
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
        # of _BLOCK floats (1.125 MiB).  The kernel that kept an 8-byte
        # entry per arrival peaked at 16.5 MB here.
        assert _station_peak_bytes(2_000_000) < 1.5 * 2**20

    def test_peak_does_not_grow_with_the_run(self):
        short, long = _station_peak_bytes(200_000), _station_peak_bytes(2_000_000)
        assert abs(long - short) < 0.5 * 2**20
