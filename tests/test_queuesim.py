"""Tests for the discrete-event queue simulator."""

import copy
import math
import sys
import threading
import time
import tracemalloc
import types

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
    simulate_mm1,
)

from fogcache import queuesim
from fogcache.queuesim import _BLOCK, _sojourn_blocks, mm1_sojourn_times, simulate_station

from conftest import bounded, make_scenario


class _ScriptedRng:
    """Stands in for a Generator; feeds a predetermined sequence of uniform
    draws into the ``out`` arrays the kernel passes.  Copies read the
    sequence independently, and ``bit_generator.advance(n)`` skips ``n``
    draws."""

    def __init__(self, uniforms):
        self._uniforms = np.asarray(uniforms, dtype=float)
        self._position = 0

    @property
    def bit_generator(self):
        return self

    def advance(self, delta):
        self._position += delta

    def random(self, *, out):
        end = self._position + out.size
        assert end <= self._uniforms.size
        out[:] = self._uniforms[self._position : end]
        self._position = end
        return out


def _sojourns(lam, mu, n_arrivals, rng):
    """Every sojourn time of the blocked kernel, as one array."""
    return np.concatenate([block.copy() for _, block in _sojourn_blocks(lam, mu, n_arrivals, rng)])


def _uniform_for(times, rate):
    """Uniform draws that make the exponential sampler produce ``times``."""
    return -np.expm1(-np.asarray(times, dtype=float) * rate)


class TestSimConfig:
    def test_default_warmup_is_one_percent(self):
        assert SimConfig(n_arrivals=50_000).effective_warmup == 500

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
        assert config.effective_warmup == 2


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


class TestSimulateMm1:
    def test_matches_the_analytic_mean(self):
        mean, ci = simulate_mm1(4.0, 8.0, SimConfig(seed=7, n_arrivals=200_000))
        analytic = 1.0 / (8.0 - 4.0)
        assert abs(mean - analytic) / analytic < 0.02
        assert 0.0 < ci < 0.05 * analytic

    def test_deterministic_for_a_fixed_seed(self):
        config = SimConfig(seed=123, n_arrivals=20_000)
        first = simulate_mm1(2.5, 6.0, config)
        second = simulate_mm1(2.5, 6.0, config)
        assert first == second  # bit-identical, not merely close

    def test_seed_changes_the_stream(self):
        a = simulate_mm1(2.5, 6.0, SimConfig(seed=1, n_arrivals=10_000))[0]
        b = simulate_mm1(2.5, 6.0, SimConfig(seed=2, n_arrivals=10_000))[0]
        assert a != b

    def test_single_sample_has_infinite_halfwidth(self):
        mean, ci = simulate_mm1(1.0, 5.0, SimConfig(seed=0, n_arrivals=1))
        assert mean > 0.0
        assert math.isinf(ci)

    @pytest.mark.parametrize("lam,mu", [(5.0, 5.0), (6.0, 5.0), (0.0, 5.0), (-1.0, 5.0)])
    def test_rejects_unstable_rates(self, lam, mu):
        with pytest.raises(ValueError, match="stable queue"):
            simulate_mm1(lam, mu, SimConfig())


class TestSimulateStation:
    def _optimal_setup(self):
        scenario = make_scenario()
        placement = heuristic_solve(scenario).placement
        return scenario, placement

    def test_matches_the_analytic_mixture(self):
        scenario, placement = self._optimal_setup()
        config = SimConfig(seed=3, n_arrivals=150_000)
        result = simulate_station(placement, scenario, 0, config)
        analytic = overall_adt(placement, scenario).per_station[0]
        assert abs(result.mean_adt - analytic) / analytic < 0.02
        assert result.samples == 2 * (150_000 - 1500)

    def test_mixture_identities(self):
        scenario, placement = self._optimal_setup()
        result = simulate_station(placement, scenario, 1, SimConfig(seed=9, n_arrivals=30_000))
        h = echr(placement, scenario.library)
        assert result.mean_adt == h * result.mean_sojourn_e + (1.0 - h) * result.mean_sojourn_b

    def test_empty_cache_runs_only_the_backhaul_queue(self):
        scenario = make_scenario()
        placement = Placement(np.zeros((3, 20)))
        result = simulate_station(placement, scenario, 0, SimConfig(seed=4, n_arrivals=50_000))
        assert result.mean_sojourn_e is None
        assert result.mean_adt == result.mean_sojourn_b
        assert result.samples == 50_000 - 500
        # All misses: the station is a plain M/M/1 at the backhaul rate.
        assert abs(result.mean_adt - 0.5) / 0.5 < 0.05

    def test_full_cache_runs_only_the_edge_queue(self):
        # One content makes the popularity total exactly 1.0, so a full
        # cache reaches h == 1 bit-exactly and the miss queue is skipped.
        scenario = make_scenario(count=1, capacities=(3.0, 3.0, 3.0))
        placement = Placement(np.array([[1.0], [0.0], [0.0]]))
        result = simulate_station(placement, scenario, 0, SimConfig(seed=4, n_arrivals=50_000))
        assert result.mean_sojourn_b is None
        assert abs(result.mean_adt - 0.25) / 0.25 < 0.05

    def test_rejects_out_of_range_station(self):
        scenario, placement = self._optimal_setup()
        with pytest.raises(ValueError, match="out of range"):
            simulate_station(placement, scenario, 3, SimConfig())


class TestSimulateCluster:
    def test_one_result_per_station_matching_single_runs(self):
        scenario = make_scenario()
        placement = heuristic_solve(scenario).placement
        config = SimConfig(seed=11, n_arrivals=20_000)
        results = simulate_cluster(placement, scenario, config)
        assert len(results) == 3
        for station, result in enumerate(results):
            assert result == simulate_station(placement, scenario, station, config)

    def test_stations_use_independent_streams(self):
        # Identical stations must still see different sample paths.
        scenario = make_scenario()
        placement = heuristic_solve(scenario).placement
        results = simulate_cluster(placement, scenario, SimConfig(seed=11, n_arrivals=20_000))
        assert results[0].mean_adt != results[1].mean_adt

    def test_estimates_track_the_analytic_curve(self):
        scenario = make_scenario()
        placement = heuristic_solve(scenario).placement
        h = echr(placement, scenario.library)
        analytic = float(adt_curve(h, scenario.traffic))
        results = simulate_cluster(placement, scenario, SimConfig(seed=21, n_arrivals=100_000))
        for result in results:
            assert abs(result.mean_adt - analytic) / analytic < 0.02


# --- whole-array oracle: the Lindley kernel and confidence interval as they
# were before the blocked kernel, kept verbatim to pin its bits ---


def _oracle_exponential(rng, rate, size):
    return -np.log1p(-rng.random(size)) / rate


def _oracle_sojourn_times(lam, mu, n_arrivals, rng):
    gaps = _oracle_exponential(rng, lam, n_arrivals)
    services = _oracle_exponential(rng, mu, n_arrivals)
    arrivals = np.cumsum(gaps)
    cum_services = np.cumsum(services)
    departures = cum_services + np.maximum.accumulate(arrivals - (cum_services - services))
    return departures - arrivals


def _oracle_mean_ci(samples):
    m = samples.size
    mean = float(samples.mean())
    if m < 2:
        return mean, math.inf
    ci = 1.96 * float(samples.std(ddof=1)) / math.sqrt(m)
    return mean, ci


def _oracle_block_merge(sojourn, warmup):
    """Mean and half-width of ``sojourn[warmup:]`` as the streamed kernel
    forms them: a (count, mean, M2) per block of the whole run, of the
    kernel's current block size, merged in order with Chan, Golub &
    LeVeque's pairwise update."""
    count, mean, m2 = 0, 0.0, 0.0
    size = queuesim._BLOCK
    for start in range(0, sojourn.size, size):
        block = sojourn[max(start, warmup) : start + size]
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
        return mean, math.inf
    return mean, 1.96 * math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _oracle_station(placement, scenario, station, config):
    traffic = scenario.traffic
    h = min(max(echr(placement, scenario.library), 0.0), 1.0)
    lam = float(traffic.lam[station])
    mu_e = float(traffic.mu_e[station])
    mu_b = float(traffic.mu_b[station])
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)
    warmup = config.effective_warmup
    kept = config.n_arrivals - warmup

    def run(rate, mu, seed_seq):
        rng = np.random.default_rng(seed_seq)
        sojourn = _oracle_sojourn_times(rate, mu, config.n_arrivals, rng)
        return _oracle_block_merge(sojourn, warmup)

    if h == 0.0:
        mean_b, ci_b = run(lam, mu_b, children[1])
        return SimResult(None, mean_b, mean_b, ci_b, kept)
    if h == 1.0:
        mean_e, ci_e = run(lam, mu_e, children[0])
        return SimResult(mean_e, None, mean_e, ci_e, kept)
    mean_e, ci_e = run(lam * h, mu_e, children[0])
    mean_b, ci_b = run(lam * (1.0 - h), mu_b, children[1])
    mean = h * mean_e + (1.0 - h) * mean_b
    ci = math.hypot(h * ci_e, (1.0 - h) * ci_b)
    return SimResult(mean_e, mean_b, mean, ci, 2 * kept)


_BLOCK_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
#: ``lam`` just below ``mu`` (utilisation 0.999) and ``lam << mu``.
_RATES = ((0.999, 1.0), (1e-3, 10.0), (4.0, 8.0))


def _placements():
    """``(scenario, placement)`` with ``h`` at 0, interior and 1."""
    scenario = make_scenario()
    full = make_scenario(count=1, capacities=(3.0, 3.0, 3.0))
    return {
        "empty": (scenario, Placement(np.zeros((3, 20)))),
        "interior": (scenario, heuristic_solve(scenario).placement),
        "full": (full, Placement(np.array([[1.0], [0.0], [0.0]]))),
    }


class TestBlockedKernelExactness:
    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sojourns_match_the_oracle_bit_for_bit(self, n, lam, mu, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sojourn = _sojourns(lam, mu, n, rng)
        expected = _oracle_sojourn_times(lam, mu, n, oracle_rng)
        assert sojourn.tobytes() == expected.tobytes()
        # Both consumed the same draws: the next one agrees.
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("n", _BLOCK_SIZES)
    @pytest.mark.parametrize("lam,mu", _RATES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_and_halfwidth_are_the_block_merge_of_the_oracle(self, n, lam, mu, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mean, ci = mm1_sojourn_times(lam, mu, n, rng)
        expected = _oracle_sojourn_times(lam, mu, n, oracle_rng)
        assert rng.random() == oracle_rng.random()
        warmup = n // 100
        assert (mean, ci) == _oracle_block_merge(expected, warmup)
        # Only the summation order differs from the whole-array statistics.
        whole_mean, whole_ci = _oracle_mean_ci(expected[warmup:])
        assert abs(mean - whole_mean) <= 1e-15 * whole_mean
        if math.isinf(whole_ci):
            assert math.isinf(ci)
        else:
            assert abs(ci - whole_ci) <= 1e-15 * whole_ci

    @pytest.mark.parametrize("which", ["empty", "interior", "full"])
    def test_station_and_cluster_results_match_the_oracle(self, which):
        scenario, placement = _placements()[which]
        config = SimConfig(seed=17, n_arrivals=3 * _BLOCK + 7)
        expected = [
            _oracle_station(placement, scenario, station, config)
            for station in range(scenario.traffic.station_count)
        ]
        assert simulate_station(placement, scenario, 1, config) == expected[1]
        assert simulate_cluster(placement, scenario, config) == expected


_default_rng = np.random.default_rng


class _RecordingRng:
    """A ``default_rng`` that records the stream, size and thread of each
    draw and raises ``error`` on draw number ``fail_on`` (1-based), if
    given.  The kernel draws services from this generator and arrivals from
    a deep copy of it; the copy records into the same list and counts
    towards the same ``fail_on``."""

    def __init__(self, seed, fail_on=None):
        self._rng = _default_rng(seed)
        self.stream = "services"
        self.calls = []
        self.fail_on = fail_on
        self.error = RuntimeError("draw failed")

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def __deepcopy__(self, memo):
        twin = copy.copy(self)
        twin._rng = copy.deepcopy(self._rng, memo)
        twin.stream = "arrivals"
        return twin

    def random(self, *, out):
        self.calls.append((self.stream, out.size, threading.get_ident()))
        if len(self.calls) == self.fail_on:
            raise self.error
        return self._rng.random(out=out)


class TestProducerThread:
    def test_draw_order_thread_and_output(self):
        n = 3 * _BLOCK + 7
        rng = _RecordingRng(8)
        sojourn = _sojourns(0.9, 1.0, n, rng)
        chunks = [_BLOCK, _BLOCK, _BLOCK, 7]
        # Each block draws its arrivals, then its services.
        expected_calls = [(stream, k) for k in chunks for stream in ("arrivals", "services")]
        assert [(stream, size) for stream, size, _ in rng.calls] == expected_calls
        threads = {thread for _, _, thread in rng.calls}
        assert len(threads) == 1
        assert threads != {threading.main_thread().ident}
        expected = _oracle_sojourn_times(0.9, 1.0, n, np.random.default_rng(8))
        assert sojourn.tobytes() == expected.tobytes()

    def test_ring_reuse_under_contention(self, monkeypatch):
        # Tiny blocks make every call cycle the three ring slots many times;
        # eight concurrent calls on a short switch interval stress the
        # hand-offs.  A slot overwritten before the recursion and the
        # statistics used it would change the output bits.
        monkeypatch.setattr(queuesim, "_BLOCK", 16)
        n, seeds = 16 * 200 + 5, range(8)
        results = {}

        def run(seed):
            results[seed] = (
                _sojourns(0.9, 1.0, n, np.random.default_rng(seed)),
                mm1_sojourn_times(0.9, 1.0, n, np.random.default_rng(seed)),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            expected = _oracle_sojourn_times(0.9, 1.0, n, np.random.default_rng(seed))
            sojourn, stats = results[seed]
            assert sojourn.tobytes() == expected.tobytes()
            assert stats == _oracle_block_merge(expected, n // 100)

    def test_no_thread_outlives_a_normal_return(self):
        before = threading.active_count()
        mm1_sojourn_times(0.9, 1.0, 3 * _BLOCK + 7, np.random.default_rng(2))
        assert threading.active_count() == before
        assert "queuesim-draws" not in [thread.name for thread in threading.enumerate()]

    # Draw 1 is the first block's arrivals, draw 4 the second block's
    # services and draw 8 the last block's services.
    @pytest.mark.parametrize("fail_on", [1, 4, 8])
    def test_producer_error_surfaces_from_the_kernel(self, fail_on):
        rng = _RecordingRng(0, fail_on=fail_on)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            bounded(mm1_sojourn_times, 0.9, 1.0, 3 * _BLOCK + 7, rng)
        assert info.value is rng.error
        assert threading.active_count() == before
        assert len(rng.calls) == fail_on

    def test_producer_error_surfaces_from_simulate_mm1(self, monkeypatch):
        rngs = []

        def failing_rng(seed):
            rngs.append(_RecordingRng(seed, fail_on=3))
            return rngs[-1]

        # _RecordingRng builds its generator through the real default_rng.
        monkeypatch.setattr(queuesim.np.random, "default_rng", failing_rng)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            bounded(simulate_mm1, 0.9, 1.0, SimConfig(n_arrivals=3 * _BLOCK + 7))
        assert info.value is rngs[0].error
        assert threading.active_count() == before

    # With 8 blocks, ``cumsum`` call 2b + 1 turns block b's arrivals into
    # arrival times and call 2b + 2 sums its services; ``square`` call b + 1
    # folds block b into the statistics, outside the recursion.  Call 7 and
    # square call 4 are block 3's: the pause before raising lets the
    # producer fill the ring and wait for a free slot.
    @pytest.mark.parametrize(
        "name,fail_at", [("cumsum", 1), ("cumsum", 2), ("cumsum", 7), ("square", 4)]
    )
    def test_consumer_error_stops_the_producer(self, monkeypatch, name, fail_at):
        error = RuntimeError("recursion failed")
        calls = []
        original = getattr(np, name)

        def failing(*args, **kwargs):
            calls.append(threading.get_ident())
            if len(calls) == fail_at:
                time.sleep(0.05)
                raise error
            return original(*args, **kwargs)

        numpy_view = types.ModuleType("numpy")
        numpy_view.__dict__.update(vars(np))
        setattr(numpy_view, name, failing)
        monkeypatch.setattr(queuesim, "np", numpy_view)
        rng = _RecordingRng(0)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            bounded(mm1_sojourn_times, 0.9, 1.0, 8 * _BLOCK, rng)
        assert info.value is error
        # The recursion runs on the calling thread only, never the producer.
        recursion_threads = set(calls)
        assert len(recursion_threads) == 1
        assert not recursion_threads & {thread for _, _, thread in rng.calls}
        assert threading.active_count() == before
        assert len(rng.calls) < 16


def _station_peak_bytes(n_arrivals):
    """``tracemalloc`` peak of one interior ``simulate_station`` call."""
    scenario, placement = _placements()["interior"]
    config = SimConfig(seed=0, n_arrivals=n_arrivals)
    tracemalloc.start()
    try:
        simulate_station(placement, scenario, 0, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestKernelMemory:
    def test_interior_station_peak_stays_small(self):
        # Two queues of 2e6 arrivals, one at a time, each in seven buffers
        # of _BLOCK floats (1.75 MiB).  The kernel that kept an 8-byte
        # entry per arrival peaked at 16.5 MB here.
        assert _station_peak_bytes(2_000_000) < 4 * 2**20

    def test_peak_does_not_grow_with_the_run(self):
        short, long = _station_peak_bytes(200_000), _station_peak_bytes(2_000_000)
        assert abs(long - short) < 0.5 * 2**20
