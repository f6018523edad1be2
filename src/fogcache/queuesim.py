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
``default_rng(child)`` for two children of
``SeedSequence(entropy=seed, spawn_key=(station,))``, one generator per
queue, which makes every station's sample path a pure function of
``(seed, station)`` — independent of how many stations are simulated or in
what order.  A queue runs in units of its mean service time ``1/mu``: its
services are the unit exponentials ``-log(1 - U)`` and its interarrival
gaps ``-log(1 - U) * (mu / lam)``, from one ``Generator.random`` call of
``2k`` uniforms per block of ``k`` arrivals (the gaps, then the services,
each in the block's lane order), a fixed choice so that results stay
bit-identical across runs; capping ``mu / lam`` at ``2**900`` lets every
stable load run, however light, and changes no sojourn.  Only the final
mean and half-width are divided by ``mu``, so the simulator is free of the
unit of time: scaling both rates by a power of two leaves every sojourn in
those units bit-identical and scales the results exactly.

:func:`simulate_cluster` maps the stations over a ``ThreadPoolExecutor``
of up to one worker per usable CPU (every numpy call of the kernel releases
the GIL: no accumulate writes over its own input, and no call writes over
an input at another offset) and returns the results in station order, so
the output is byte-identical for any CPU count.  Each queue is one call of
:func:`mm1_sojourn_times`, which streams it through blocks of at most
``_BLOCK`` arrivals of Lindley's recursion, none straddling the end of the
warm-up, and keeps no array of one entry per arrival: each worker holds
three float64 buffers of ``_BLOCK`` entries, the draws (two) and the
running minimum.  A block's customers lie in lane order, ``_LANES`` rows
with consecutive customers in consecutive rows (see
:func:`_sojourn_blocks`), so both scans of the recursion run as row
operations plus one short scan of column carries.

The tests check three things about the kernel: it draws each block's
uniforms in the stated order; every sojourn time is within a stated
rounding bound of a sequential float64 Lindley loop on those draws; and
that bound is a sum over the sojourn's own busy period of block-local
terms, so the error does not grow with the run length.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

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
#: Lanes of the Lindley kernel: a block's scans run as row operations over
#: this many rows, which numpy vectorizes.
_LANES = 8
#: Arrivals per block, 6,144 per lane; a worker's three float64 buffers of
#: this length take 1.125 MiB.  On one thread, blocks of 2**15 to 2**16
#: arrivals ran equally fast (about 11 ns per arrival on a 2-vCPU host) and
#: 2**14 a quarter slower; the larger block gives each numpy call more work
#: between releases of the GIL, so the station threads queue on it less.
_BLOCK = 6144 * _LANES
#: Cap on the gap scale ``mu / lam``: a block's gaps sum below ``2**922``,
#: and a positive gap at the cap, at least ``2**847`` services, outlasts any wait.
_MAX_GAP_SCALE = 2.0**900


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
    customers of an M/M/1 queue, with every time in units of the mean
    service time ``1/mu``.

    Lindley's recursion for the waiting time, ``W_c = max(W_{c-1} + S_{c-1}
    - A_c, 0)`` with interarrival gaps ``A`` and services ``S`` (Lindley
    1952; Asmussen & Glynn 2007, ch. IV), in vectorized form: with the
    block-local partial sums ``Y_c = sum_{l<=c} X_l`` of ``X_l = S_{l-1} -
    A_l``, the wait is ``W_c = Y_c - min(-w, Y_0, ..., Y_c)``, where ``w``
    is the wait of the previous block's last customer, and the sojourn is
    ``W_c + S_c``.  Two scalars carry across blocks: ``w`` and the last
    service, the ``S_{-1}`` of the block's first term.  The first customer
    finds the system empty.

    Blocks hold at most ``_BLOCK`` customers, and none straddles the
    warm-up boundary ``_warmup(n_arrivals)``: the warm-up is cut into blocks
    from 0, and the rest of the run from the boundary.  A block of ``k``
    customers runs in ``L = gcd(k, _LANES)`` lanes of ``m = k / L``:
    customer ``start + L * j + r`` sits at row ``r``, column ``j`` of an
    ``(L, m)`` array, so each column holds ``L`` consecutive customers and
    each row is contiguous.  Both scans of the recursion then split into a
    scan down each column, as ``L - 1`` row operations over ``m`` entries,
    and one scan of ``m`` column carries (Blelloch 1990):

    * the sums: ``P``, the partial sums of ``X`` down each column; the
      carries ``C``, the ``cumsum`` of the column totals; ``Y = P + C`` of
      the previous column, which for the last row is ``C`` itself;
    * the minimum: ``H``, the running minimum of ``-w`` and every ``Y`` of
      the previous columns, an ``fmin.accumulate`` of the column minima;
      then down each column from ``H``.  The minimum is exact, so ``W = Y -
      min`` is the difference of two block-local partial sums, or one plus
      the carried wait, and is formed before ``S`` is added.

    Each block makes one ``rng.random`` call of ``2k`` uniforms, the gaps
    then the services, each in lane order (row by row).  In units of
    ``1/mu`` a service is the unit exponential ``-log(1 - U)`` and a gap is
    ``-log(1 - U) * (mu / lam)``, so the recursion sees the rates only
    through their ratio: scaling both by a power of two leaves every yielded
    sojourn bit-identical.  Capped at :data:`_MAX_GAP_SCALE`, the ratio
    keeps every sum finite; a load that light, capped or not, finds every
    customer alone.

    ``sojourn`` is the block's ``(L, m)`` view of a work buffer, in lane
    order: the caller may overwrite it, and it is reused once the caller
    asks for the next block.
    """
    ratio = min(mu / lam, _MAX_GAP_SCALE)
    size = min(n_arrivals, _BLOCK)
    draws, lows = np.empty(2 * size), np.empty(size)
    warmup = _warmup(n_arrivals)
    wait = last_service = 0.0
    for start in chain(range(0, warmup, _BLOCK), range(warmup, n_arrivals, _BLOCK)):
        k = min(_BLOCK, (warmup if start < warmup else n_arrivals) - start)
        lanes = math.gcd(k, _LANES)
        d = draws[: 2 * k]
        rng.random(out=d)
        # 1 - U is exact on the uniforms' 2**-53 grid and never 0.  The
        # buffers keep the times negated, a = -A and s = -S, and each sum
        # below folds the sign in, which rounds exactly as the same sum of
        # the positive times.
        np.subtract(1.0, d, out=d)
        np.log(d, out=d)
        a, s = d[:k].reshape(lanes, -1), d[k:].reshape(lanes, -1)
        y = lows[:k].reshape(lanes, -1)
        np.multiply(a, ratio, out=a)

        # X = S_{c-1} - A_c, as (-A_c) - (-S_{c-1}), in place of the gaps:
        # a customer's predecessor is one row up, or for row 0 the last row
        # of the previous column.
        np.subtract(a[1:], s[:-1], out=a[1:])
        np.subtract(a[0, 1:], s[-1, :-1], out=a[0, 1:])
        a[0, 0] += last_service
        # The sums down each column, the carries, and Y = P + C.
        for r in range(1, lanes):
            np.add(a[r - 1], a[r], out=a[r])
        np.cumsum(a[-1], out=y[0])
        np.add(a[:, 1:], y[0, :-1], out=a[:, 1:])

        # The running minimum, with -w entering the first element (the min
        # is exact), goes into the work buffer: the column minima into its
        # last row (with one lane, the row itself), H into its first, then
        # down each column.  fmin equals minimum on NaN-free input and skips
        # minimum's NaN propagation.  No accumulate writes over its own
        # input, and no call over an input at another offset: numpy holds
        # the GIL for the one and copies the input for the other, and the
        # station threads would take turns.
        first = a[0, 0]
        a[0, 0] = min(first, -wait)
        columns = a[0]
        for row in a[1:]:
            columns = np.fmin(columns, row, out=y[-1])
        y[0, 0] = -wait
        np.fmin.accumulate(columns[:-1], out=y[0, 1:])
        np.fmin(a[0], y[0], out=y[0])
        for r in range(1, lanes):
            np.fmin(y[r - 1], a[r], out=y[r])
        a[0, 0] = first

        np.subtract(a, y, out=y)
        wait, last_service = y[-1, -1], -s[-1, -1]
        np.subtract(y, s, out=y)
        yield start, y


def mm1_sojourn_times(lam, mu, n_arrivals, rng):
    """Mean and 95% half-width of the sojourn times of the first
    ``n_arrivals`` customers of an M/M/1 queue, after the warm-up.

    The first 1% of the customers (``n_arrivals // 100``) are discarded to
    wash out the empty-system start.  The sojourn times come block by block
    from the recursion of :func:`_sojourn_blocks`, in units of ``1/mu``,
    which makes one ``rng.random`` call of ``2k`` uniforms per block of
    ``k``; ``rng`` is any numpy ``Generator``.  No block straddles the end
    of the warm-up, so each is skipped or kept whole.  Each kept block gives
    a count, a mean and then the sum of squared deviations from it, all
    while the block is in cache, and blocks are merged into the running
    totals pairwise (Chan, Golub & LeVeque 1983).  The half-width is
    ``1.96 * s / sqrt(m)`` with ``s`` the sample standard deviation
    (``ddof=1``) of the ``m`` retained sojourns; it is infinite when ``m <
    2``.  The mean and half-width are divided by ``mu`` last, so scaling both
    rates by a power of two scales them exactly, whatever the unit of time.
    Memory is three float64 buffers of ``_BLOCK`` entries, the draws (two)
    and the running minimum, however long the run.  The mean converges to
    the analytic ``1 / (mu - lam)`` as the run grows.

    Raises ``ValueError`` unless ``lam`` and ``mu`` are finite with
    ``0 < lam < mu`` (a stable queue, however light) and ``n_arrivals`` is an
    integer (not a ``bool``) of at least 1.
    """
    lam, mu = float(lam), float(mu)
    if not (0 < lam < mu and math.isfinite(mu)):
        raise ValueError(f"need 0 < lam < mu for a stable queue, got lam={lam}, mu={mu}")
    _check_count("n_arrivals", n_arrivals, 1)
    warmup = _warmup(n_arrivals)
    count, mean, m2 = 0, 0.0, 0.0
    for start, sojourn in _sojourn_blocks(lam, mu, n_arrivals, rng):
        if start < warmup:
            continue
        # sojourn.mean() bit for bit, without its Python wrapper.
        block_mean = float(np.add.reduce(sojourn, axis=None)) / sojourn.size
        np.subtract(sojourn, block_mean, out=sojourn)
        np.square(sojourn, out=sojourn)
        block_m2 = float(np.add.reduce(sojourn, axis=None))
        total = count + sojourn.size
        # ``weight`` is exactly 1 for the first block, which therefore
        # sets the totals to its own statistics without rounding.
        weight = sojourn.size / total
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
    with zero traffic, or a rate that underflows to 0, is skipped and
    reported as ``None``; any positive rate is simulated.  Raises
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
            lam * share,
            float(mu[station]),
            config.n_arrivals,
            np.random.default_rng(child),
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

    ``Executor.map`` runs the stations on ``min(station_count, usable
    CPUs)`` worker threads while the calling thread waits.  A station's
    draws depend only on ``(config.seed, station)``, so the output is
    byte-identical for any CPU count.  When the result waited on raises
    (an invalid ``h`` fails every station as it starts, so station 0's
    first) or the caller is interrupted, the stations not yet started are
    cancelled, though a worker may start one more before that.  Running
    stations are not stopped: the call raises the lowest-numbered failed
    station's exception once they have finished.  A station failing while
    a lower-numbered one still ran would cancel the rest only after that
    one; no input reaches that case today.
    """
    stations = range(traffic.station_count)
    with ThreadPoolExecutor(min(len(stations), _usable_cpus())) as pool:
        return list(
            pool.map(simulate_station, repeat(h), repeat(traffic), stations, repeat(config))
        )
