"""Discrete-event M/M/1 validation of the analytic download-time model.

Each base station is modelled as two independent M/M/1 queues: an edge queue
receiving the cache-hit share of requests and a backhaul queue receiving the
misses.  The simulator replays Lindley's recursion over exponential
interarrival and service draws, so its mean sojourn times can be compared
against the closed-form predictions.

Reproducibility contract: all randomness flows from ``numpy``'s
``SeedSequence``.  A station's two queues draw from two children of
``SeedSequence(entropy=seed, spawn_key=(station,))``, which makes every
station's sample path a pure function of ``(seed, station)`` — independent
of how many stations are simulated or in what order.  Exponential variates
are generated as ``-log1p(-U)/rate`` from ``Generator.random``, a fixed
choice so that results stay bit-identical across runs.

Each queue is one call of :func:`mm1_sojourn_times`, which starts one
producer thread that makes every ``Generator.random`` call (the draws
release the GIL) while the calling thread runs Lindley's recursion on the
blocks already drawn.  Only the producer touches the generator, in the
order of two whole-array draws, so sojourn times, means, confidence
intervals and the generator state afterwards are bit-identical to earlier,
single-threaded versions.  Queues are simulated one at a time; the one in
flight needs 8 bytes per arrival plus about 1.3 MB of buffers.  On a shared
2-vCPU Xeon VM (load average 0.4-1.1 from other work), a 2e6-arrival queue
took a median of 39-43 ms with both cores and 54-69 ms pinned to one core,
over four runs of 21 queues each.  The gain needs a second core that other
work leaves free; on a busier host the times move towards the pinned ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .model import _check_count
from .objective import _clamped_echr

__all__ = [
    "SimConfig",
    "SimResult",
    "mm1_sojourn_times",
    "simulate_mm1",
    "simulate_station",
    "simulate_cluster",
]

_CI_FACTOR = 1.96  # normal 95% two-sided
#: Arrivals per block of the Lindley kernel: its five float64 buffers of this
#: length (three ring slots and two work buffers) stay in L2.  Blocks from
#: 2**14 to 2**16 ran equally fast.
_BLOCK = 1 << 15
#: Ring slots for service blocks drawn ahead of the recursion.
_SLOTS = 3


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters: two fields, ``seed`` and ``n_arrivals``.

    Both must be integers (``bool`` is rejected).  The first 1% of every
    queue's sample path (:attr:`effective_warmup` arrivals) is discarded to
    wash out the empty-system start.
    """

    seed: int = 0
    n_arrivals: int = 100_000

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("n_arrivals", self.n_arrivals, 1)

    @property
    def effective_warmup(self):
        """Arrivals discarded from the front of each queue: 1% of the run."""
        return self.n_arrivals // 100


@dataclass(frozen=True)
class SimResult:
    """Measured sojourn times for one base station.

    ``mean_sojourn_e`` / ``mean_sojourn_b`` are the edge and backhaul queue
    means (``None`` for a side that received no traffic), ``mean_adt`` is the
    hit-ratio-weighted mixture, ``ci_halfwidth`` its 95% normal half-width,
    and ``samples`` the number of retained sojourn samples.
    """

    mean_sojourn_e: float | None
    mean_sojourn_b: float | None
    mean_adt: float
    ci_halfwidth: float
    samples: int


def _exponential_from_uniform(u, rate):
    # log1p(-U) / -rate, in place: -log1p(-U) maps U in [0, 1) to (0, inf)
    # without ever taking log(0), and x / -r equals -(x / r) exactly.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -rate, out=u)


def mm1_sojourn_times(lam, mu, n_arrivals, rng):
    """Sojourn times of the first ``n_arrivals`` customers of an M/M/1 queue.

    Lindley's recursion in vectorized form: with arrival times ``A``,
    services ``S`` and cumulative services ``cumS``, customer ``k`` departs
    at ``cumS_k + max_{j<=k}(A_j - (cumS_j - S_j))``.

    One producer thread makes every ``rng`` call while this (the calling)
    thread runs the recursion, so drawing overlaps with arithmetic.  The
    producer draws all interarrival uniforms ``_BLOCK`` at a time into the
    returned array, then the service uniforms ``_BLOCK`` at a time, which
    it turns into exponentials in a ring of ``_SLOTS`` buffers: the draw
    order of two whole-array draws.  The calling thread turns each arrival
    chunk into arrival times as it lands, then runs the service ``cumsum``
    and the running maximum block by block, freeing a ring slot per block.
    Three scalars carry across blocks: the last arrival time and last
    cumulative service are added into the block's first element before an
    in-place (sequential) ``cumsum``, so each partial sum is the add a
    whole-array ``cumsum`` makes, and the running maximum enters as
    ``max(x_0, carry)``, which is exact.  All other steps are elementwise,
    so the output and the ``rng`` state afterwards are bit-identical to the
    whole-array recursion, and to earlier versions of this function.

    An exception in the producer is re-raised here; the producer is
    stopped and joined before this function returns or raises.
    """
    sojourn = np.empty(n_arrivals)
    size = min(n_arrivals, _BLOCK)
    ring = [np.empty(size) for _ in range(_SLOTS)]
    starts = range(0, n_arrivals, _BLOCK)
    # ``drawn`` counts blocks ready for the recursion, ``free`` ring slots
    # ready for the producer; ``failure`` holds the producer's exception.
    drawn, free = threading.Semaphore(0), threading.Semaphore(_SLOTS)
    stopped = threading.Event()
    failure = []

    def draw():
        try:
            for start in starts:
                rng.random(out=sojourn[start : start + _BLOCK])
                drawn.release()
                if stopped.is_set():
                    return
            for index, start in enumerate(starts):
                free.acquire()
                if stopped.is_set():
                    return
                s = ring[index % _SLOTS][: min(_BLOCK, n_arrivals - start)]
                rng.random(out=s)
                _exponential_from_uniform(s, mu)
                drawn.release()
        except BaseException as exc:  # re-raised by the calling thread
            failure.append(exc)
            drawn.release()

    def wait_drawn():
        drawn.acquire()
        if failure:
            raise failure[0]

    producer = threading.Thread(target=draw, name="queuesim-draws", daemon=True)
    producer.start()
    try:
        last_arrival = 0.0
        for start in starts:
            wait_drawn()
            arrivals = sojourn[start : start + _BLOCK]
            _exponential_from_uniform(arrivals, lam)
            arrivals[0] += last_arrival
            np.cumsum(arrivals, out=arrivals)
            last_arrival = arrivals[-1]

        cum_services = np.empty(size)
        work = np.empty(size)
        last_cum_service = 0.0
        running_max = -math.inf
        for index, start in enumerate(starts):
            wait_drawn()
            k = min(_BLOCK, n_arrivals - start)
            arrivals = sojourn[start : start + k]
            s, cum_s, w = ring[index % _SLOTS][:k], cum_services[:k], work[:k]

            first = s[0]  # the carry enters cumS only, not S
            s[0] += last_cum_service
            np.cumsum(s, out=cum_s)
            s[0] = first
            last_cum_service = cum_s[-1]

            # Departures: cumS + running max of (A - (cumS - S)); sojourn = D - A.
            np.subtract(cum_s, s, out=w)
            free.release()  # ``s`` is not read again: the producer may refill it
            np.subtract(arrivals, w, out=w)
            w[0] = max(w[0], running_max)
            # fmax equals maximum on NaN-free input and skips maximum's NaN
            # propagation, which makes its accumulate the faster one.
            np.fmax.accumulate(w, out=w)
            running_max = w[-1]
            np.add(cum_s, w, out=w)
            np.subtract(w, arrivals, out=arrivals)
    finally:
        stopped.set()
        free.release()  # wakes a producer waiting for a slot
        producer.join()
    return sojourn


def _mean_ci(samples):
    """Mean and 95% half-width of ``samples``, which it overwrites.

    The variance is computed in place with the steps of
    ``np.std(ddof=1)`` (subtract the mean, square, pairwise sum, divide by
    ``m - 1``, square root), so the result is bit-identical to it.
    """
    m = samples.size
    mean = float(samples.mean())
    if m < 2:
        return mean, math.inf
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    std = math.sqrt(float(np.add.reduce(samples)) / (m - 1))
    return mean, _CI_FACTOR * std / math.sqrt(m)


def _simulate_queue(lam, mu, config, seed_seq):
    """``(mean, ci_halfwidth)`` of one queue run from ``seed_seq``."""
    rng = np.random.default_rng(seed_seq)
    sojourn = mm1_sojourn_times(lam, mu, config.n_arrivals, rng)
    return _mean_ci(sojourn[config.effective_warmup :])


def simulate_mm1(lam, mu, config):
    """Estimate the stationary mean sojourn time of an M/M/1 queue.

    Returns ``(mean, ci_halfwidth)`` after discarding the warmup prefix.  The
    analytic value is ``1 / (mu - lam)``; the estimate converges to it as the
    run length grows.
    """
    lam = float(lam)
    mu = float(mu)
    if not 0 < lam < mu:
        raise ValueError(f"need 0 < lam < mu for a stable queue, got lam={lam}, mu={mu}")
    return _simulate_queue(lam, mu, config, np.random.SeedSequence(config.seed))


def simulate_station(placement, scenario, station, config):
    """Simulate one base station's edge/backhaul pair under ``placement``.

    The cache hit ratio ``h`` splits the station's arrivals into an edge
    stream of rate ``lam*h`` and a backhaul stream of rate ``lam*(1-h)``;
    each stream feeds its own M/M/1 queue.  The reported mean download time
    is ``h * mean_e + (1-h) * mean_b`` with the half-widths combined in
    quadrature.  A side with zero traffic is skipped and reported as ``None``.
    """
    traffic = scenario.traffic
    if not 0 <= station < traffic.station_count:
        raise ValueError(f"station index {station} out of range")
    h = _clamped_echr(placement, scenario.library)
    lam = float(traffic.lam[station])
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)
    side_means, mean, halfwidths = [], 0.0, []
    for share, mu, child in zip((h, 1.0 - h), (traffic.mu_e, traffic.mu_b), children):
        if share == 0.0:
            side_means.append(None)
            continue
        side_mean, side_ci = _simulate_queue(lam * share, float(mu[station]), config, child)
        side_means.append(side_mean)
        mean += share * side_mean
        halfwidths.append(share * side_ci)
    kept = config.n_arrivals - config.effective_warmup
    return SimResult(*side_means, mean, math.hypot(*halfwidths), kept * len(halfwidths))


def simulate_cluster(placement, scenario, config):
    """Run :func:`simulate_station` for every base station, in station order."""
    return [
        simulate_station(placement, scenario, station, config)
        for station in range(scenario.traffic.station_count)
    ]
