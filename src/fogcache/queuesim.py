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

Each queue is one call of :func:`mm1_sojourn_times`, which streams the
queue through blocks of ``_BLOCK`` arrivals.  One producer thread makes
every generator call (the draws release the GIL): the interarrival
uniforms come from a copy of the queue's generator and the service
uniforms from the generator advanced past them, so the two streams are
exactly the draws of two whole-array calls.  The calling thread runs
Lindley's recursion on each block already drawn and folds the block's
retained sojourn times into a running count, mean and sum of squared
deviations (the pairwise merge of Chan, Golub & LeVeque, 1983).  Every
sojourn time, and the generator state afterwards, is bit-identical to
earlier versions, on any core count; the mean and the half-width are
merged block by block, so they can differ from earlier versions, which
summed one whole-run array, in the last printed digit.  The per-block
statistics are what batch means over the run will read.  Queues are
simulated one at a time, and the one in flight needs seven float64 buffers
of ``_BLOCK`` entries, 1.75 MiB, whatever the run length.  On a shared
2-vCPU Xeon VM (load average 1.0-1.3 from other work), a 2e6-arrival queue
took a median of 39-44 ms with both cores in three of four runs (60 ms in
the fourth) and 62-64 ms pinned to one core, over four runs of 21 queues
each.  The gain needs a second core that other work leaves free; on a
busier host the times move towards the pinned ones.
"""

from __future__ import annotations

import contextlib
import copy
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
#: Arrivals per block of the Lindley kernel: its seven float64 buffers of this
#: length (three ring slots of two and one work buffer) stay in L2.  Blocks
#: from 2**15 to 2**16 ran equally fast; 2**14 and 2**17 were slower.
_BLOCK = 1 << 15
#: Ring slots for blocks drawn ahead of the recursion.
_SLOTS = 3


def _warmup(n_arrivals):
    """Arrivals discarded from the front of a queue of ``n_arrivals``."""
    return n_arrivals // 100


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
        return _warmup(self.n_arrivals)


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


def _sojourn_blocks(lam, mu, n_arrivals, rng):
    """Yield ``(start, sojourn)`` for each block of the first ``n_arrivals``
    customers of an M/M/1 queue, ``_BLOCK`` customers at a time.

    Lindley's recursion in vectorized form: with arrival times ``A``,
    services ``S`` and cumulative services ``cumS``, customer ``k`` departs
    at ``cumS_k + max_{j<=k}(A_j - (cumS_j - S_j))``.

    One producer thread makes every ``rng`` call while this (the consuming)
    thread runs the recursion, so drawing overlaps with arithmetic.  The
    producer draws the interarrival uniforms from a copy of ``rng`` and the
    service uniforms from ``rng`` advanced by ``n_arrivals``, so the two
    streams are exactly the first and second ``n_arrivals`` draws of
    ``rng``, and ``rng`` ends where two whole-array draws leave it.  Each
    block's pair of draws goes into one of ``_SLOTS`` ring slots, already
    turned into exponential gaps and services.  The consumer runs the two
    ``cumsum``s and the running maximum in the slot and one work buffer,
    and leaves the sojourn times in the slot.  Three scalars carry across
    blocks: the last arrival time and last cumulative service are added
    into the block's first element before an in-place (sequential)
    ``cumsum``, so each partial sum is the add a whole-array ``cumsum``
    makes, and the running maximum enters as ``max(x_0, carry)``, which is
    exact.  All other steps are elementwise, so every sojourn time is
    bit-identical to the whole-array recursion, and to earlier versions of
    the simulator.

    ``sojourn`` is a view of a ring slot: the caller may overwrite it, and
    it is reused once the caller asks for the next block.  An exception in
    the producer is re-raised here; the producer is stopped and joined
    before the generator finishes or is closed.
    """
    size = min(n_arrivals, _BLOCK)
    ring = [(np.empty(size), np.empty(size)) for _ in range(_SLOTS)]
    starts = range(0, n_arrivals, _BLOCK)
    # ``drawn`` counts blocks ready for the recursion, ``free`` ring slots
    # ready for the producer; ``failure`` holds the producer's exception.
    drawn, free = threading.Semaphore(0), threading.Semaphore(_SLOTS)
    stopped = threading.Event()
    failure = []

    def draw():
        try:
            arrival_rng = copy.deepcopy(rng)
            rng.bit_generator.advance(n_arrivals)
            for index, start in enumerate(starts):
                free.acquire()
                if stopped.is_set():
                    return
                k = min(_BLOCK, n_arrivals - start)
                a, s = (buffer[:k] for buffer in ring[index % _SLOTS])
                arrival_rng.random(out=a)
                rng.random(out=s)
                _exponential_from_uniform(a, lam)
                _exponential_from_uniform(s, mu)
                drawn.release()
        except BaseException as exc:  # re-raised by the consuming thread
            failure.append(exc)
            drawn.release()

    producer = threading.Thread(target=draw, name="queuesim-draws", daemon=True)
    producer.start()
    try:
        cum_services = np.empty(size)
        last_arrival = last_cum_service = 0.0
        running_max = -math.inf
        for index, start in enumerate(starts):
            drawn.acquire()
            if failure:
                raise failure[0]
            k = min(_BLOCK, n_arrivals - start)
            a, s = (buffer[:k] for buffer in ring[index % _SLOTS])
            cum_s = cum_services[:k]

            a[0] += last_arrival
            np.cumsum(a, out=a)
            last_arrival = a[-1]

            first = s[0]  # the carry enters cumS only, not S
            s[0] += last_cum_service
            np.cumsum(s, out=cum_s)
            s[0] = first
            last_cum_service = cum_s[-1]

            # Departures: cumS + running max of (A - (cumS - S)); sojourn = D - A.
            np.subtract(cum_s, s, out=s)
            np.subtract(a, s, out=s)
            s[0] = max(s[0], running_max)
            # fmax equals maximum on NaN-free input and skips maximum's NaN
            # propagation, which makes its accumulate the faster one.
            np.fmax.accumulate(s, out=s)
            running_max = s[-1]
            np.add(cum_s, s, out=s)
            np.subtract(s, a, out=s)
            yield start, s
            free.release()  # the slot is not read again: the producer may refill it
    finally:
        stopped.set()
        free.release()  # wakes a producer waiting for a slot
        producer.join()


def mm1_sojourn_times(lam, mu, n_arrivals, rng):
    """Mean and 95% half-width of the sojourn times of the first
    ``n_arrivals`` customers of an M/M/1 queue, after the warm-up.

    The first 1% of the customers (``n_arrivals // 100``) are discarded to
    wash out the empty-system start.  The sojourn times come block by block
    from the recursion of :func:`_sojourn_blocks`, which draws from
    ``rng`` exactly as two whole-array draws of ``n_arrivals`` would.  Each
    block's retained sojourns give a count, a mean and then the sum of
    squared deviations from it, all while the block is in cache, and blocks
    are merged into the running totals pairwise (Chan, Golub & LeVeque
    1983).  The half-width is ``1.96 * s / sqrt(m)`` with ``s`` the sample
    standard deviation (``ddof=1``) of the ``m`` retained sojourns; it is
    infinite when ``m < 2``.  Memory is seven float64 buffers of ``_BLOCK``
    entries (1.75 MiB), however long the run.

    Every sojourn time is bit-identical to earlier versions.  The mean and
    half-width are merged block by block rather than summed over one array,
    so they can differ from earlier versions in the last bits.
    """
    warmup = _warmup(n_arrivals)
    count, mean, m2 = 0, 0.0, 0.0
    with contextlib.closing(_sojourn_blocks(lam, mu, n_arrivals, rng)) as blocks:
        for start, sojourn in blocks:
            kept = sojourn[max(warmup - start, 0) :]
            if kept.size == 0:
                continue
            block_mean = float(kept.mean())
            np.subtract(kept, block_mean, out=kept)
            np.square(kept, out=kept)
            block_m2 = float(np.add.reduce(kept))
            total = count + kept.size
            # ``weight`` is exactly 1 for the first block, which therefore
            # sets the totals to its own statistics without rounding.
            weight = kept.size / total
            delta = block_mean - mean
            mean += delta * weight
            m2 += block_m2 + delta * delta * count * weight
            count = total
    if count < 2:
        return mean, math.inf
    return mean, _CI_FACTOR * math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _simulate_queue(lam, mu, config, seed_seq):
    """``(mean, ci_halfwidth)`` of one queue run from ``seed_seq``."""
    return mm1_sojourn_times(lam, mu, config.n_arrivals, np.random.default_rng(seed_seq))


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
