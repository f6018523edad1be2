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
queue through blocks of ``_BLOCK`` arrivals on the calling thread.  The
interarrival uniforms come from a copy of the queue's generator and the
service uniforms from the generator advanced past them, so the queue
consumes exactly the draws of two whole-array calls.  Each block runs
Lindley's waiting-time recursion in vectorized form, and the block's
retained sojourn times are folded into a running count, mean and sum of
squared deviations (the pairwise merge of Chan, Golub & LeVeque, 1983).
No array of one entry per arrival is kept: the queue in flight needs three
float64 buffers of ``_BLOCK`` entries, whatever the run length.

The tests check three things about the kernel: it consumes the same draws
as two whole-array calls; every sojourn time is within a stated rounding
bound of a sequential float64 Lindley loop on those draws; and that bound
is a sum over the sojourn's own busy period of block-local terms, so the
error does not grow with the run length.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import _check_count, validate_placement
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
#: Arrivals per block of the Lindley kernel: its three float64 buffers of
#: this length stay in L2.  Blocks of 2**15 and 2**16 ran equally fast;
#: 2**14 and 2**17 were slower.
_BLOCK = 1 << 15


def _warmup(n_arrivals):
    """Arrivals discarded from the front of a queue of ``n_arrivals``."""
    return n_arrivals // 100


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters: two fields, ``seed`` and ``n_arrivals``.

    Both must be integers (``bool`` is rejected).  The first 1% of every
    queue's sample path (``n_arrivals // 100`` arrivals) is discarded to
    wash out the empty-system start.
    """

    seed: int = 0
    n_arrivals: int = 100_000

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("n_arrivals", self.n_arrivals, 1)


@dataclass(frozen=True)
class SimResult:
    """Measured sojourn times for one base station.

    ``mean_sojourn_e`` / ``mean_sojourn_b`` are the edge and backhaul queue
    means (``None`` for a side that received no traffic), ``mean_adt`` is the
    hit-ratio-weighted mixture and ``ci_halfwidth`` its 95% normal
    half-width.
    """

    mean_sojourn_e: float | None
    mean_sojourn_b: float | None
    mean_adt: float
    ci_halfwidth: float


def _exponential_from_uniform(u, rate):
    # log1p(-U) / -rate, in place: -log1p(-U) maps U in [0, 1) to (0, inf)
    # without ever taking log(0), and x / -r equals -(x / r) exactly.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, -rate, out=u)


def _sojourn_blocks(lam, mu, n_arrivals, rng):
    """Yield ``(start, sojourn)`` for each block of the first ``n_arrivals``
    customers of an M/M/1 queue, ``_BLOCK`` customers at a time.

    Lindley's recursion for the waiting time, ``W_k = max(W_{k-1} + S_{k-1}
    - A_k, 0)`` with interarrival gaps ``A`` and services ``S`` (Lindley
    1952; Asmussen & Glynn 2007, ch. IV), in vectorized form: with the
    block-local partial sums ``Y_k = sum_{j<=k} (S_{j-1} - A_j)``, the wait
    is ``W_k = Y_k - min(-w, Y_0, ..., Y_k)``, where ``w`` is the wait of the
    previous block's last customer, and the sojourn is ``W_k + S_k``.  Two
    scalars carry across blocks: ``w`` and the last service, the
    ``S_{k-1}`` of the block's first term.  The first customer finds the
    system empty.

    The interarrival gaps are drawn from a copy of ``rng`` and the services
    from ``rng`` advanced by ``n_arrivals``, so the two streams are exactly
    the first and second ``n_arrivals`` draws of ``rng``, and ``rng`` ends
    where two whole-array draws leave it.  Each partial sum is block-local,
    so its rounding is bounded by the block's own times, not by the absolute
    arrival times of a long run.

    ``sojourn`` is a view of a work buffer: the caller may overwrite it, and
    it is reused once the caller asks for the next block.
    """
    size = min(n_arrivals, _BLOCK)
    gaps, services, work = np.empty(size), np.empty(size), np.empty(size)
    arrival_rng = copy.deepcopy(rng)
    rng.bit_generator.advance(n_arrivals)
    wait = last_service = 0.0
    for start in range(0, n_arrivals, _BLOCK):
        k = min(_BLOCK, n_arrivals - start)
        a, s, y = gaps[:k], services[:k], work[:k]
        arrival_rng.random(out=a)
        rng.random(out=s)
        _exponential_from_uniform(a, lam)
        _exponential_from_uniform(s, mu)

        y[0] = last_service - a[0]
        np.subtract(s[:-1], a[1:], out=y[1:])
        np.cumsum(y, out=y)

        # The running minimum of Y, with -w entering the first element (the
        # min is exact), goes into the gaps, which are no longer needed.
        first = y[0]
        y[0] = min(first, -wait)
        # fmin equals minimum on NaN-free input and skips minimum's NaN
        # propagation, which makes its accumulate the faster one.
        np.fmin.accumulate(y, out=a)
        y[0] = first
        np.subtract(y, a, out=y)
        wait, last_service = y[-1], s[-1]
        np.add(y, s, out=y)
        yield start, y


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
    infinite when ``m < 2``.  Memory is three float64 buffers of ``_BLOCK``
    entries, however long the run.
    """
    warmup = _warmup(n_arrivals)
    count, mean, m2 = 0, 0.0, 0.0
    for start, sojourn in _sojourn_blocks(lam, mu, n_arrivals, rng):
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
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    return mm1_sojourn_times(lam, mu, config.n_arrivals, rng)


def simulate_station(placement, scenario, station, config):
    """Simulate one base station's edge/backhaul pair under ``placement``.

    The cache hit ratio ``h`` splits the station's arrivals into an edge
    stream of rate ``lam*h`` and a backhaul stream of rate ``lam*(1-h)``;
    each stream feeds its own M/M/1 queue.  The reported mean download time
    is ``h * mean_e + (1-h) * mean_b`` with the half-widths combined in
    quadrature.  A side with zero traffic is skipped and reported as ``None``.
    Raises ``ValueError`` on a placement that :func:`validate_placement`
    rejects, or a ``station`` that is not an index of the scenario's stations.
    """
    validate_placement(placement, scenario.library, scenario.cluster)
    traffic = scenario.traffic
    _check_count("station", station, 0)
    if station >= traffic.station_count:
        raise ValueError(f"station index {station} out of range")
    h = _clamped_echr(placement, scenario.library)
    lam = float(traffic.lam[station])
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)
    side_means, mean, halfwidths = [], 0.0, []
    for share, mu, child in zip((h, 1.0 - h), (traffic.mu_e, traffic.mu_b), children):
        if share == 0.0:
            side_means.append(None)
            continue
        side_mean, side_ci = mm1_sojourn_times(
            lam * share, float(mu[station]), config.n_arrivals, np.random.default_rng(child)
        )
        side_means.append(side_mean)
        mean += share * side_mean
        halfwidths.append(share * side_ci)
    return SimResult(*side_means, mean, math.hypot(*halfwidths))


def simulate_cluster(placement, scenario, config):
    """Run :func:`simulate_station` for every base station, in station order."""
    return [
        simulate_station(placement, scenario, station, config)
        for station in range(scenario.traffic.station_count)
    ]
