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
    as one array in customer order: each block's ``(lanes, m)`` arrays hold
    customer ``start + lanes * j + r`` at ``[r, j]``, and its sojourn is
    the wait minus the negated service, ``W - (-S)``."""
    blocks = _sojourn_blocks(lam, mu, n_arrivals, rng)
    return np.concatenate([np.subtract(waits, services).T.flatten() for waits, services in blocks])


def _sojourns(lam, mu, n_arrivals, rng):
    """Every sojourn time of the blocked kernel, in seconds."""
    return _unit_sojourns(lam, mu, n_arrivals, rng) / mu


def _uniform_for(times, rate):
    """Uniform draws that make the exponential sampler produce ``times``."""
    return -np.expm1(-np.asarray(times, dtype=float) * rate)


class TestSimConfig:
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
        assert (config.seed, config.n_arrivals) == (3, 200)


class TestLindleyRecursion:
    @pytest.mark.parametrize(
        "start,expected",
        # Interarrival gaps [1, 1, 3] and services [2, 2, 1], so arrivals at
        # [1, 2, 5].  A start of 0 (the uniform 0) finds the system empty:
        # departures [3, 5, 6], sojourns [2, 3, 1].  The customer before
        # the first leaving at 1.5 delays the first by 0.5: departures
        # [3.5, 5.5, 6.5], sojourns [2.5, 3.5, 1.5].
        [(0.0, [2.0, 3.0, 1.0]), (1.5, [2.5, 3.5, 1.5])],
        ids=["empty", "busy"],
    )
    def test_hand_computed_path(self, start, expected):
        lam, mu = 0.25, 0.5
        rng = _ScriptedRng(
            np.concatenate(
                [
                    _uniform_for([start], mu - lam),
                    _uniform_for([1.0, 1.0, 3.0], lam),
                    _uniform_for([2.0, 2.0, 1.0], mu),
                ]
            )
        )
        sojourn = _sojourns(lam, mu, 3, rng)
        np.testing.assert_allclose(sojourn, expected, rtol=1e-12)

    def test_sojourn_is_at_least_the_service_time(self):
        # The wait is Y minus a running minimum of Y, never negative, and
        # adding it to the service rounds to at least the service.
        _, _, services = _oracle_draws(3.0, 7.0, 1000, np.random.default_rng(5))
        units = _unit_sojourns(3.0, 7.0, 1000, np.random.default_rng(5))
        assert np.all(units >= services)

    def test_all_positive(self):
        sojourn = _sojourns(2.0, 9.0, 5000, np.random.default_rng(1))
        assert np.all(sojourn > 0.0)

    def test_each_block_draws_its_arrivals_then_its_services(self):
        # One uniform for the start, then one draw of 2k uniforms per block
        # of k, the blocks cut from the first arrival.
        n = 3 * _BLOCK + 7
        rng = _ScriptedRng(np.random.default_rng(8).random(1 + 2 * n))
        sojourn = _sojourns(0.9, 1.0, n, rng)
        chunks = [_BLOCK, _BLOCK, _BLOCK, 7]
        assert [k for _, k in _oracle_blocks(n)] == chunks
        assert rng.calls == [1] + [2 * k for k in chunks]
        # The same uniforms from a Generator give the same sojourns.
        expected = _sojourns(0.9, 1.0, n, np.random.default_rng(8))
        assert sojourn.tobytes() == expected.tobytes()
        # And they are the oracle's draws: the start, then the gaps and the
        # services of each block in lane order.
        _, oracle = _oracle_lindley(*_oracle_draws(0.9, 1.0, n, np.random.default_rng(8)))
        np.testing.assert_allclose(sojourn, oracle, rtol=1e-9)


def _seeded(seed):
    """A fresh generator rooted at ``SeedSequence(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def _sfc64(seed):
    """A fresh ``Generator(SFC64(seed))``, the stations' bit generator."""
    return np.random.Generator(np.random.SFC64(seed))


class TestStationaryStart:
    # The queue starts in steady state, so a run of any length is unbiased.
    # A queue started empty gives a grand mean of 4.8 here at rho = 0.9,
    # against the analytic 10, and at rho = 0.99 the mean service 1 against
    # 100.
    @pytest.mark.parametrize("rho,n_arrivals", [(0.9, 64), (0.99, 1)])
    def test_short_runs_are_unbiased(self, rho, n_arrivals):
        means = np.array(
            [mm1_sojourn_times(rho, 1.0, n_arrivals, _sfc64(seed))[0] for seed in range(4000)]
        )
        error = means.mean() - 1.0 / (1.0 - rho)
        assert abs(error) <= 4.0 * means.std(ddof=1) / math.sqrt(means.size)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_the_first_customer_waits_0_with_frequency_1_minus_rho(self, rho):
        # An arrival to a stationary M/M/1 queue finds it empty with
        # probability 1 - rho: over 4,000 runs the count must lie within 4
        # binomial standard deviations of 4,000 (1 - rho).
        runs, idle = 4000, 0
        for seed in range(runs):
            waits, _ = next(_sojourn_blocks(rho, 1.0, 1, _sfc64(seed)))
            idle += waits[0, 0] == 0.0
        assert abs(idle - runs * (1.0 - rho)) <= 4.0 * math.sqrt(runs * rho * (1.0 - rho))


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
        # needs to be copied or advanced.  1e5 arrivals hold two full blocks,
        # the fewest with a finite half-width.
        def run():
            return mm1_sojourn_times(0.5, 1.0, 100_000, np.random.Generator(bit_generator(1)))

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
        real_station = queuesim.simulate_station

        def held_station(h, traffic, station, config):
            started.append(station)
            first_started.set()
            if station == 0 and not interrupt:
                raise failure
            # Every other station is held until the pool shuts down, after
            # the stations not yet started are cancelled, so each worker is
            # busy until then and what starts after the failure does not
            # depend on thread timing.
            assert released.wait(10)
            return real_station(h, traffic, station, config)

        def interrupted_result(timeout=None):
            # Ctrl-C reaching the caller while it waits on station 0.
            assert first_started.wait(10)
            raise failure

        class ReleasingPool(queuesim.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                if interrupt:
                    future.result = interrupted_result
                return future

            def shutdown(self, *args, **kwargs):
                released.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(queuesim, "simulate_station", held_station)
        monkeypatch.setattr(queuesim, "ThreadPoolExecutor", ReleasingPool)
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
    2007, ch. IV): long enough that a replication's mean is nearly normal."""
    return math.ceil(1000 * rate / (mu * (1.0 - math.sqrt(rate / mu)) ** 2))


def _t_interval(means):
    """Center and Student-t 95% half-width of 30 replication means."""
    assert len(means) == 30
    return float(np.mean(means)), _T_975_29 * float(np.std(means, ddof=1)) / math.sqrt(30)


class TestIndependentReplications:
    # Thirty replications, seeds 0-29, each 1,000 relaxation times long.
    # Their Student-t interval does not lean on the kernel's own half-width,
    # whose batch means come from one correlated run and are independent
    # only when a batch is long against the relaxation time.  It guards the
    # law of the sample path that the mapping of draws to customers builds:
    # draws shared by gaps and services, or a column carry one column off,
    # shift the mean of every replication alike and fail here.  The oracle
    # tests pin the exact mapping.
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


def _covered(rho, n_arrivals, runs=100):
    """Of ``runs`` runs of one queue with ``mu = 1`` from
    ``default_rng(seed)``, seeds 0 to ``runs - 1``, how many half-widths
    cover the analytic mean; each must be finite."""
    covered = 0
    for seed in range(runs):
        mean, half = mm1_sojourn_times(rho, 1.0, n_arrivals, np.random.default_rng(seed))
        assert half < math.inf
        covered += abs(mean - 1.0 / (1.0 - rho)) <= half
    return covered


class TestHalfwidthCoverage:
    # A 95% interval covers in 88 to 99 of 100 runs with probability 0.993,
    # and in 367 to 390 of 400, the narrowest band of at least that level.
    def test_halfwidth_covers_the_analytic_mean_95_percent_of_the_time(self):
        # 1e6 arrivals hold 20 full blocks of 49,152 and a shorter one: 20
        # batches of one block.
        assert 88 <= _covered(0.5, 10**6) <= 99

    @pytest.mark.probe
    @pytest.mark.parametrize("rho", [0.9, 0.97])
    def test_halfwidth_covers_at_high_load(self, rho):
        # 2e6 arrivals hold 40 full blocks: 20 batches of two, about 25
        # relaxation times at rho = 0.9 and 7 at 0.97.
        assert 88 <= _covered(rho, 2 * 10**6) <= 99

    @pytest.mark.probe
    @pytest.mark.xfail(
        strict=True,
        reason="at rho = 0.99 a batch of two blocks is only about 2.5 relaxation "
        "times long: the batch means are skewed and correlated, and the "
        "interval covers about 87.5% of the time",
    )
    def test_halfwidth_covers_near_saturation(self):
        assert 367 <= _covered(0.99, 2 * 10**6, runs=400) <= 390


# --- oracles: the kernel's draws, Lindley's recursion as a sequential float64
# loop over them and in exact arithmetic, and the statistics as a whole-array
# and as a block-by-block computation ---


def _oracle_blocks(n_arrivals):
    """``(start, k)`` of each block of a queue of ``n_arrivals``: at most
    ``_BLOCK`` customers each, cut from 0."""
    size = queuesim._BLOCK
    return [(start, min(size, n_arrivals - start)) for start in range(0, n_arrivals, size)]


def _lanes(k):
    """Lanes of a block of ``k``: the largest of 8, 4, 2, 1 dividing it."""
    return next(lanes for lanes in (8, 4, 2, 1) if k % lanes == 0)


def _oracle_draws(lam, mu, n_arrivals, rng):
    """The start ``T_0``, the sojourn of the customer before the first, and
    the interarrival gaps and services in customer order, all in units of
    ``1/mu``.  ``T_0`` takes the first uniform, as the kernel forms it; then
    each block of ``k`` draws ``2k`` uniforms, the gaps then the services,
    each in lane order: customer ``start + lanes * j + r`` takes the draw
    at ``r * (k / lanes) + j``."""
    ratio = min(mu / lam, _MAX_GAP_SCALE)
    t0 = -math.log(1.0 - rng.random()) * (mu / (mu - lam))
    gaps, services = [], []
    for _, k in _oracle_blocks(n_arrivals):
        unit = -np.log(1.0 - rng.random(2 * k))
        gaps.append(unit[:k].reshape(_lanes(k), -1).T.ravel() * ratio)
        services.append(unit[k:].reshape(_lanes(k), -1).T.ravel())
    return t0, np.concatenate(gaps), np.concatenate(services)


def _oracle_lindley(t0, gaps, services):
    """Waits and sojourns from ``W_k = max(W_{k-1} + S_{k-1} - A_k, 0)``,
    one customer at a time in float64, from the virtual customer ``-1``
    with wait ``t0`` and service 0."""
    waits = []
    wait, previous = t0, 0.0
    for gap, service in zip(gaps.tolist(), services.tolist()):
        wait = max(wait + previous - gap, 0.0)
        waits.append(wait)
        previous = service
    waits = np.array(waits)
    return waits, waits + services


def _exact_errors(t0, gaps, services, sojourn):
    """Each customer's distance of ``sojourn`` from Lindley's recursion in
    exact arithmetic on the same start and draws: every float is scaled by
    2**1100 to an integer, which represents any double of magnitude above
    2**-1074 exactly, and each distance is rounded back to a float."""

    def scaled(x):
        numerator, denominator = x.as_integer_ratio()
        return numerator << (1101 - denominator.bit_length())

    errors, wait, previous = [], scaled(t0), 0
    for gap, service, got in zip(gaps.tolist(), services.tolist(), sojourn.tolist()):
        wait = max(wait + previous - scaled(gap), 0)
        previous = scaled(service)
        errors.append(abs(scaled(got) - wait - previous) / 2**1100)
    return np.array(errors)


def _rounding_bound(t0, gaps, services, waits, sojourn):
    """Per-customer bound on the kernel's distance from the sequential loop,
    both in units of ``1/mu`` and from the start ``t0``.

    Write ``u = 2**-53`` and ``X_l = S_{l-1} - A_l``.  Within each block let
    ``Y_l`` be the block-local partial sum of ``X`` up to ``l``, and ``P_l``
    the partial sum down ``l``'s column (its ``lanes`` consecutive
    customers) up to ``l``.  The kernel rounds each ``X_l``, each step of
    ``P`` down a column, each column carry ``C`` (the ``Y`` of the column's
    last customer) and each ``Y = P + C`` once, and the minimum is exact.
    For customer ``c`` in a busy period that began with customer ``i`` (the
    last ``l <= c`` with ``W_l == 0``), the kernel's wait is ``Y_c - Y_i``,
    or ``Y_c`` plus the carried wait when ``i`` lies in an earlier block.
    A busy period under way at the start began with the virtual customer
    ``i = -1``, whose service ``S_{-1}`` is 0 and whose wait is the start
    ``T_0`` of both the kernel and the loop: the kernel carries ``T_0`` into
    the first block as an earlier block's wait, so ``-T_0`` stands in for
    ``Y_i``.
    The roundings the two partial sums share cancel, and what remains is at
    most ``u * (|Y_c| + |Y_i| + sum_{l=i+1..c} (|P_l| + |X_l|) + sum_e
    |Y_e|)``, with ``e`` over the columns' last customers in ``[i, c)``,
    plus ``u`` of each wait formed, this one and the carried one.  A
    customer alone (``c == i``) gets the exact wait 0.  The loop's rounding
    is at most ``u * sum_{l=i+1..c} (2 W_l + 2 S_{l-1} + A_l)``, and each
    adds ``u`` of the sojourn in the last step.  As ``|X_l| <= S_{l-1} +
    A_l`` and ``W_c <= sojourn_c``, to first order both fit within ``4u *
    (sojourn_c + [c > i] (|Y_c| + |Y_i|) + sum_{l=i+1..c} (|P_l| + W_l +
    S_{l-1} + A_l + [l - 1 ends a column] |Y_{l-1}|))``, where ``|Y_{-1}|
    = T_0`` is the carried wait's term.  Every term is local to a block or
    to a busy period, so the bound does not grow with the run length.
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
    # Indexed from customer -1: each busy period's |Y_i| and the running
    # total up to i, T_0 and 0 for the virtual customer.
    heads, before = np.concatenate([[t0], np.abs(partial)]), np.concatenate([[0.0], total])
    busy_start = np.maximum.accumulate(np.where(idle, np.arange(waits.size), -1)) + 1
    ends_of_busy = np.where(idle, 0.0, np.abs(partial) + heads[busy_start])
    return 2.0**-51 * (sojourn + ends_of_busy + total - before[busy_start])


def _oracle_batches(n_arrivals):
    """Each batch's ``(first, end)`` range of blocks, counted from 0: ``b =
    min(B, 20)`` batches of the ``B`` full blocks, batch ``j`` from
    ``floor(j B / b)`` up to ``floor((j + 1) B / b)``, with the short last
    block (index ``B``) in the last batch.  With ``b < 2``, one range of
    every block."""
    full = n_arrivals // queuesim._BLOCK
    b = min(full, 20)
    if b < 2:
        return [(0, full + 1)]
    bounds = [j * full // b for j in range(b + 1)]
    bounds[-1] = full + 1
    return list(zip(bounds[:-1], bounds[1:]))


def _batch_means(sums, counts, mu):
    """Mean and half-width ``t(b - 1) * sqrt(sum_j n_j (m_j - m)**2 / ((b -
    1) N))`` of ``b`` batches with sojourn sums ``sums`` and counts
    ``counts``, in units of ``1/mu``, each then divided by ``mu``."""
    count = sum(counts)
    mean = math.fsum(sums) / count
    b = len(sums)
    if b < 2:
        return mean / mu, math.inf
    spread = math.fsum(n * (total / n - mean) ** 2 for total, n in zip(sums, counts))
    return mean / mu, queuesim._T_975[b - 2] * math.sqrt(spread / ((b - 1) * count)) / mu


def _oracle_batch_sums(lam, mu, n_arrivals, rng):
    """Each batch's sojourn sum, in units of ``1/mu``, and count, as the
    kernel forms them from the blocks of :func:`_sojourn_blocks`: each
    block's sum is the sum of its waits minus that of its negated services,
    and a batch's sum adds its blocks' in order."""
    blocks = [
        (float(np.add.reduce(waits, axis=None)) - float(np.add.reduce(services, axis=None)),
         waits.size)
        for waits, services in _sojourn_blocks(lam, mu, n_arrivals, rng)
    ]
    sums, counts = [], []
    for first, end in _oracle_batches(n_arrivals):
        total = 0.0
        for block_sum, _ in blocks[first:end]:
            total += block_sum
        sums.append(total)
        counts.append(sum(k for _, k in blocks[first:end]))
    return sums, counts


def _oracle_batch_means(lam, mu, n_arrivals, rng):
    """Mean and half-width as the kernel forms them from its blocks."""
    return _batch_means(*_oracle_batch_sums(lam, mu, n_arrivals, rng), mu)


def _whole_batch_means(sojourn, n_arrivals, mu):
    """The batch means of ``sojourn``, every customer's sojourn in units of
    ``1/mu`` and in customer order, from whole-array sums of each batch's
    customers."""
    size = queuesim._BLOCK
    sums, counts = [], []
    for first, end in _oracle_batches(n_arrivals):
        batch = sojourn[first * size : end * size]
        sums.append(float(np.sum(batch)))
        counts.append(batch.size)
    return _batch_means(sums, counts, mu)


def _oracle_station(h, traffic, station, config):
    lam = float(traffic.lam[station])
    mu_e = float(traffic.mu_e[station])
    mu_b = float(traffic.mu_b[station])
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)

    def run(rate, mu, seed_seq):
        rng = np.random.Generator(np.random.SFC64(seed_seq))
        return _oracle_batch_means(rate, mu, config.n_arrivals, rng)

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
        draws = _oracle_draws(lam, mu, n, oracle_rng)
        # Both consumed the same draws: the next one agrees.
        assert rng.random() == oracle_rng.random()
        waits, expected = _oracle_lindley(*draws)
        bound = _rounding_bound(*draws, waits, expected)
        assert np.all(np.abs(units - expected) <= bound)

    def test_bound_rejects_a_recursion_over_absolute_times(self):
        # Departures as cumS + max(T_0, max(A - (cumS - S))), minus A, over
        # the whole run: at light load the arrival times A grow to 1.5e9
        # mean services and the cancellation leaves errors far above the
        # bound.
        n, lam, mu = 3 * _BLOCK + 7, 1e-3, 10.0
        t0, gaps, services = _oracle_draws(lam, mu, n, np.random.default_rng(0))
        arrivals, cum_services = np.cumsum(gaps), np.cumsum(services)
        departures = cum_services + np.maximum(
            np.maximum.accumulate(arrivals - (cum_services - services)), t0
        )
        waits, expected = _oracle_lindley(t0, gaps, services)
        bound = _rounding_bound(t0, gaps, services, waits, expected)
        assert not np.all(np.abs(departures - arrivals - expected) <= bound)

    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequential_oracle_is_near_exact(self, lam, mu, seed):
        # The loop is within the rounding bound of exact arithmetic, so the
        # kernel is measured against a near-exact reference.  A relative
        # tolerance would not fit: at rho = 0.999 the roundings of a busy
        # period of 1e5 customers reach the short sojourns at its end.
        draws = _oracle_draws(lam, mu, 3 * _BLOCK + 7, np.random.default_rng(seed))
        waits, sojourn = _oracle_lindley(*draws)
        bound = _rounding_bound(*draws, waits, sojourn)
        assert np.all(_exact_errors(*draws, sojourn) <= bound)

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_and_halfwidth_are_the_batch_means_of_its_blocks(self, n, lam, mu, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean, ci = mm1_sojourn_times(lam, mu, n, rng)
        assert (mean, ci) == _oracle_batch_means(lam, mu, n, oracle_rng)
        assert rng.random() == oracle_rng.random()
        # Only the summation order differs from whole-array sums of each
        # batch's sojourns.
        whole_mean, whole_ci = _whole_batch_means(
            _unit_sojourns(lam, mu, n, np.random.default_rng(seed)), n, mu
        )
        assert abs(mean - whole_mean) <= 1e-15 * whole_mean
        if math.isinf(whole_ci):
            assert math.isinf(ci)
        else:
            assert abs(ci - whole_ci) <= 1e-12 * whole_ci

    @pytest.mark.parametrize(
        "n,batches",
        # Blocks of 8.  1,980 arrivals are 247 full blocks and a short one
        # of 4: 20 batches of 12 or 13 full blocks, the last with the short
        # block.  169 are 21 and a short one of 1: 19 batches of one block,
        # and a last of two and the short block.  23 are 2 and a short one
        # of 7, in one lane: 2 batches.
        [(1980, [12, 12, 13] * 6 + [12, 14]), (169, [1] * 19 + [3]), (23, [1, 2])],
    )
    def test_batches_split_the_full_blocks_evenly(self, n, batches, monkeypatch):
        monkeypatch.setattr(queuesim, "_BLOCK", 8)
        assert [end - first for first, end in _oracle_batches(n)] == batches
        lam, mu = 0.9, 1.0
        mean, ci = mm1_sojourn_times(lam, mu, n, np.random.default_rng(6))
        assert (mean, ci) == _oracle_batch_means(lam, mu, n, np.random.default_rng(6))
        # Against the batch means of the sequential loop's sojourns.
        _, sojourn = _oracle_lindley(*_oracle_draws(lam, mu, n, np.random.default_rng(6)))
        whole_mean, whole_ci = _whole_batch_means(sojourn, n, mu)
        assert mean == pytest.approx(whole_mean, rel=1e-12, abs=0.0)
        assert ci == pytest.approx(whole_ci, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "block,n,finite",
        [
            # 98,303 arrivals are one full block of 49,152 and a short one.
            # 98,304 are two full blocks, two batches.
            (_BLOCK, 98_303, False),
            (_BLOCK, 98_304, True),
            (8, 15, False),
            (8, 16, True),
        ],
    )
    def test_halfwidth_is_infinite_below_two_full_blocks(self, block, n, finite, monkeypatch):
        monkeypatch.setattr(queuesim, "_BLOCK", block)
        mean, ci = mm1_sojourn_times(0.5, 1.0, n, np.random.default_rng(0))
        assert math.isfinite(mean)
        assert (0.0 < ci < math.inf) if finite else math.isinf(ci)

    def test_t_quantiles_match_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        assert len(queuesim._T_975) == queuesim._BATCHES - 1 == 19
        for dof, quantile in enumerate(queuesim._T_975, start=1):
            assert quantile == round(float(stats.t.ppf(0.975, dof)), 6)

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


def _station_batch_adt(h, traffic, station, config):
    """Per-batch mean download times of one station at hit ratio ``h``, from
    the same SFC64 children as :func:`simulate_station`, so that runs at
    different ``h`` share their random numbers; and each batch's count."""
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)
    lam, batch_adt = float(traffic.lam[station]), 0.0
    for share, mu, child in zip((h, 1.0 - h), (traffic.mu_e, traffic.mu_b), children):
        mu, rng = float(mu[station]), np.random.Generator(np.random.SFC64(child))
        sums, counts = _oracle_batch_sums(lam * share, mu, config.n_arrivals, rng)
        batch_adt = batch_adt + share * np.array(sums) / counts / mu
    return batch_adt, np.array(counts)


class TestSimulatedOptimum:
    # Common random numbers (Law & Kelton, ch. 11): the runs at h* and at
    # h* +- delta draw the same uniforms, so their per-batch differences
    # cancel most of the sampling noise.  The reference scenario is
    # capacity-limited (CPL), with h* interior; at capacities of 1 it is
    # storage-limited (CSL), with h* at the storage bound, so only h* -
    # delta is a placement.
    @pytest.mark.parametrize(
        "capacities,deltas",
        [((2.0, 3.0, 5.0), (-0.03, 0.03)), ((1.0, 1.0, 1.0), (-0.03,))],
        ids=["CPL", "CSL"],
    )
    def test_h_star_has_the_lowest_simulated_download_time(self, capacities, deltas):
        scenario = make_scenario(capacities=capacities)
        result = heuristic_solve(scenario)
        assert result.regime == ("CPL" if len(deltas) == 2 else "CSL")
        traffic, h_star = scenario.traffic, result.h_star
        config = SimConfig(seed=2026, n_arrivals=10**6)

        def batch_adt(h):
            per_station = [
                _station_batch_adt(h, traffic, station, config)
                for station in range(traffic.station_count)
            ]
            adt = sum(w * station_adt for w, (station_adt, _) in zip(traffic.weights, per_station))
            return adt, per_station[0][1]

        def overall(h):
            results = simulate_cluster(h, traffic, config)
            return sum(w * result.mean_adt for w, result in zip(traffic.weights, results))

        at_star, counts = batch_adt(h_star)
        assert counts.size == 20
        for delta in deltas:
            h = h_star + delta
            differences = batch_adt(h)[0] - at_star
            mean = float(counts @ differences) / counts.sum()
            half = queuesim._T_975[-1] * math.sqrt(
                float(counts @ (differences - mean) ** 2) / (19 * counts.sum())
            )
            # The batches' mean is the difference of simulate_cluster's means.
            assert mean == pytest.approx(overall(h) - overall(h_star), rel=1e-9)
            # h* is lower by more than the paired 95% half-width.
            assert mean - half > 0.0


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
        _, _, services = _oracle_draws(1.0, _MAX_GAP_SCALE, n, _seeded(5))
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
        expected_stats = mm1_sojourn_times(0.9, 1.0, n, _seeded(2))
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
        # The block sums read the buffers without writing over them.
        assert mm1_sojourn_times(0.9, 1.0, n, _seeded(2)) == expected_stats
        assert audit.shifted == []

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
