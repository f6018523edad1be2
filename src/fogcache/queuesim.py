"""Discrete-event M/M/1 validation of the analytic download-time model.

Each base station is modelled as two independent M/M/1 queues: an edge queue
receiving the cache-hit share of requests and a backhaul queue receiving the
misses.  The simulator replays Lindley's recursion over exponential
interarrival and service draws, so its mean sojourn times can be compared
against the closed-form predictions.  Like the model, it sees a placement
only through the hit ratio ``h``, so its station entry points,
:func:`simulate_station` and :func:`simulate_cluster`, take ``h`` and a
traffic profile: a solver result's ``echr``, or the ``h_e`` of
:func:`~fogcache.objective.overall_adt`, which validates the placement.
:func:`mm1_sojourn_times`, the kernel, simulates a single M/M/1 queue from
a ``Generator`` that the caller seeds.

Reproducibility contract for the stations: a station's two queues draw from
two children of ``SeedSequence(entropy=seed, spawn_key=(station,))``, which
makes every station's sample path a pure function of ``(seed, station)`` —
independent of how many stations are simulated or in what order.
A queue runs in units of its mean service time ``1/mu``: its services are
the unit exponentials ``-log1p(-U)`` and its interarrival gaps
``-log1p(-U) * (mu / lam)``, from ``Generator.random``, a fixed choice so
that results stay bit-identical across runs.  Only the final mean and
half-width are divided by ``mu``, so the simulator is free of the unit of
time: scaling both rates by a power of two leaves every sojourn in those
units bit-identical and scales the results exactly.

:func:`simulate_cluster` runs the stations on a ``ThreadPoolExecutor`` of
up to one worker per usable CPU (every numpy call of the kernel releases
the GIL: no accumulate writes over its own input) and returns the results
in station order, so the output is byte-identical for any CPU count.
Each queue is one call of :func:`mm1_sojourn_times`, which streams it
through blocks of ``_BLOCK`` arrivals of Lindley's recursion and keeps no
array of one entry per arrival.

The tests check three things about the kernel: it consumes the same draws
as two whole-array calls; every sojourn time is within a stated rounding
bound of a sequential float64 Lindley loop on those draws; and that bound
is a sum over the sojourn's own busy period of block-local terms, so the
error does not grow with the run length.
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .model import _check_count

__all__ = [
    "SimConfig",
    "SimResult",
    "mm1_sojourn_times",
    "simulate_station",
    "simulate_cluster",
]

_CI_FACTOR = 1.96  # normal 95% two-sided
#: Arrivals per block of the Lindley kernel: its three float64 buffers of
#: this length stay in L2.  Blocks of 2**15 and 2**16 ran equally fast, but
#: 2**16 raised ``simulate``'s peak RSS from 37.6 to 39.3 MB; 2**14 and
#: 2**17 were slower.
_BLOCK = 1 << 15
#: The largest unit exponential ``-log1p(-U)`` gives, at ``U = 1 - 2**-53``.
_MAX_UNIT_EXPONENTIAL = 53 * math.log(2)


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


def _sojourn_blocks(lam, mu, n_arrivals, rng):
    """Yield ``(start, sojourn)`` for each block of the first ``n_arrivals``
    customers of an M/M/1 queue, ``_BLOCK`` customers at a time, with every
    time in units of the mean service time ``1/mu``.

    Lindley's recursion for the waiting time, ``W_k = max(W_{k-1} + S_{k-1}
    - A_k, 0)`` with interarrival gaps ``A`` and services ``S`` (Lindley
    1952; Asmussen & Glynn 2007, ch. IV), in vectorized form: with the
    block-local partial sums ``Y_k = sum_{j<=k} (S_{j-1} - A_j)``, the wait
    is ``W_k = Y_k - min(-w, Y_0, ..., Y_k)``, where ``w`` is the wait of the
    previous block's last customer, and the sojourn is ``W_k + S_k``.  Two
    scalars carry across blocks: ``w`` and the last service, the
    ``S_{k-1}`` of the block's first term.  The first customer finds the
    system empty.

    In units of ``1/mu`` a service is the unit exponential ``-log1p(-U)``
    and a gap is ``-log1p(-U) * (mu / lam)``, so the recursion sees the
    rates only through their ratio: scaling both by a power of two leaves
    every yielded sojourn bit-identical.

    The interarrival gaps are drawn from a copy of ``rng`` and the services
    from ``rng`` advanced by ``n_arrivals``, so the two streams are exactly
    the first and second ``n_arrivals`` draws of ``rng``, and ``rng`` ends
    where two whole-array draws leave it.  Each partial sum is block-local,
    so its rounding is bounded by the block's own times, not by the absolute
    arrival times of a long run.

    ``sojourn`` is a view of a work buffer: the caller may overwrite it, and
    it is reused once the caller asks for the next block.
    """
    ratio = mu / lam
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
        # log1p(-U) maps U in [0, 1) to (-inf, 0] without ever taking
        # log(0).  The buffers keep the times negated, a = -A and s = -S,
        # and each sum below folds the sign in, which rounds exactly as the
        # same sum of the positive times.
        np.negative(a, out=a)
        np.log1p(a, out=a)
        np.multiply(a, ratio, out=a)
        np.negative(s, out=s)
        np.log1p(s, out=s)

        # X_k = S_{k-1} - A_k, as (-A_k) - (-S_{k-1}).
        y[0] = last_service + a[0]
        np.subtract(a[1:], s[:-1], out=y[1:])
        # The partial sums go into the gaps, which are no longer needed:
        # numpy holds the GIL for an accumulate whose output overlaps its
        # input, and the station threads would take turns.
        np.cumsum(y, out=a)

        # The running minimum of Y, with -w entering the first element (the
        # min is exact), goes into the work buffer.
        first = a[0]
        a[0] = min(first, -wait)
        # fmin equals minimum on NaN-free input and skips minimum's NaN
        # propagation, which makes its accumulate the faster one.
        np.fmin.accumulate(a, out=y)
        a[0] = first
        np.subtract(a, y, out=y)
        wait, last_service = y[-1], -s[-1]
        np.subtract(y, s, out=y)
        yield start, y


def mm1_sojourn_times(lam, mu, n_arrivals, rng):
    """Mean and 95% half-width of the sojourn times of the first
    ``n_arrivals`` customers of an M/M/1 queue, after the warm-up.

    The first 1% of the customers (``n_arrivals // 100``) are discarded to
    wash out the empty-system start.  The sojourn times come block by block
    from the recursion of :func:`_sojourn_blocks`, in units of ``1/mu``,
    which draws from ``rng`` exactly as two whole-array draws of
    ``n_arrivals`` would.  Each block's retained sojourns give a count, a
    mean and then the sum of squared deviations from it, all while the block
    is in cache, and blocks are merged into the running totals pairwise
    (Chan, Golub & LeVeque 1983).  The half-width is ``1.96 * s / sqrt(m)``
    with ``s`` the sample standard deviation (``ddof=1``) of the ``m``
    retained sojourns; it is infinite when ``m < 2``.  The mean and
    half-width are divided by ``mu`` last, so scaling both rates by a power
    of two scales them exactly, whatever the unit of time.  Memory is three
    float64 buffers of ``_BLOCK`` entries, however long the run.  The mean
    converges to the analytic ``1 / (mu - lam)`` as the run grows.

    Raises ``ValueError`` unless ``lam`` and ``mu`` are finite with
    ``0 < lam < mu`` (a stable queue) and ``n_arrivals`` is an integer (not
    a ``bool``) of at least 1; and when the load is so light (``lam / mu``
    below about 7e-303) that a block's gaps could sum past the largest
    double: ``_BLOCK * 53 ln 2 * (mu / lam + 1)`` must be finite, ``53 ln
    2`` being the largest unit exponential ``-log1p(-U)`` gives.
    """
    lam, mu = float(lam), float(mu)
    if not (0 < lam < mu and math.isfinite(mu)):
        raise ValueError(f"need 0 < lam < mu for a stable queue, got lam={lam}, mu={mu}")
    if not math.isfinite(_BLOCK * _MAX_UNIT_EXPONENTIAL * (mu / lam + 1.0)):
        raise ValueError(
            f"load too light to simulate: the interarrival gaps of a block would "
            f"overflow at lam={lam}, mu={mu}"
        )
    _check_count("n_arrivals", n_arrivals, 1)
    warmup = _warmup(n_arrivals)
    count, mean, m2 = 0, 0.0, 0.0
    for start, sojourn in _sojourn_blocks(lam, mu, n_arrivals, rng):
        kept = sojourn[max(warmup - start, 0) :]
        if kept.size == 0:
            continue
        # kept.mean() bit for bit, without its Python wrapper.
        block_mean = float(np.add.reduce(kept)) / kept.size
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
        return mean / mu, math.inf
    return mean / mu, _CI_FACTOR * math.sqrt(m2 / (count - 1)) / math.sqrt(count) / mu


def simulate_station(h, traffic, station, config):
    """Simulate one base station's edge/backhaul pair at hit ratio ``h``.

    ``h`` splits the station's arrivals into an edge stream of rate
    ``lam*h`` and a backhaul stream of rate ``lam*(1-h)``; each stream feeds
    its own M/M/1 queue.  The reported mean download time is ``h * mean_e +
    (1-h) * mean_b`` with the half-widths combined in quadrature.  A side
    with zero traffic is skipped and reported as ``None``, as is one whose
    rate underflows to 0 (a subnormal share).  Raises
    ``ValueError`` unless ``h`` lies in [0, 1] and ``station`` is an index of
    ``traffic``'s stations.
    """
    h = float(h)
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"hit ratio must lie in [0, 1], got {h}")
    _check_count("station", station, 0)
    if station >= traffic.station_count:
        raise ValueError(f"station index {station} out of range")
    lam = float(traffic.lam[station])
    children = np.random.SeedSequence(entropy=config.seed, spawn_key=(station,)).spawn(2)
    side_means, mean, halfwidths = [], 0.0, []
    for share, mu, child in zip((h, 1.0 - h), (traffic.mu_e, traffic.mu_b), children):
        if lam * share == 0.0:
            side_means.append(None)
            continue
        side_mean, side_ci = mm1_sojourn_times(
            lam * share, float(mu[station]), config.n_arrivals, np.random.default_rng(child)
        )
        side_means.append(side_mean)
        mean += share * side_mean
        halfwidths.append(share * side_ci)
    return SimResult(*side_means, mean, math.hypot(*halfwidths))


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_cluster(h, traffic, config):
    """Run :func:`simulate_station` at hit ratio ``h`` for every base
    station; the results come in station order.

    Stations run on ``min(station_count, usable CPUs)`` worker threads
    while the calling thread waits.  A station's draws depend only on
    ``(config.seed, station)``, so the output is byte-identical for any CPU
    count.  Once a station raises (such as the ``ValueError`` of an invalid
    ``h``) or the caller is interrupted, the stations not yet started are
    cancelled, though a worker may start one more before that.  Running
    stations are not stopped: the call raises the exception of the
    lowest-numbered failed station once they have finished.
    """
    stations = range(traffic.station_count)
    pool = ThreadPoolExecutor(min(len(stations), _usable_cpus()))
    try:
        futures = [
            pool.submit(simulate_station, h, traffic, station, config) for station in stations
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # Cancels the stations still queued, which follow every started one
        # in station order, and joins the workers.
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]
