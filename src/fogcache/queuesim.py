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
``Generator(SFC64(child))`` for two children of
``SeedSequence(entropy=seed, spawn_key=(station,))``, one generator per
queue, which makes every station's sample path a pure function of
``(seed, station)`` — independent of how many stations are simulated or in
what order.  A queue starts in steady state and runs in units of its mean
service time ``1/mu``: one uniform, drawn first, gives the sojourn of the
customer before the first, ``-log(1 - U) * (mu / (mu - lam))``; its
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
``_BLOCK`` arrivals of Lindley's recursion, cut from the first arrival,
and keeps no array of one entry per arrival: each worker holds
three float64 buffers of ``_BLOCK`` entries, the draws (two) and the
running minimum.  A block's customers lie in lane order, ``_LANES`` rows
with consecutive customers in consecutive rows (see
:func:`_sojourn_blocks`), so both scans of the recursion run as row
operations plus one short scan of column carries.  A block hands back only
its sojourn sum, and the 95% half-width is that of batch means over
whole blocks, with a Student-t quantile: successive sojourns are
correlated, so a half-width that took them as independent samples would be
far too narrow.

The tests check five things about the kernel: it draws the start's and
each block's uniforms in the stated order; every sojourn time is within a
stated rounding bound of a sequential float64 Lindley loop on those draws;
that bound is a sum over the sojourn's own busy period of block-local
terms, so the error does not grow with the run length; the mean and
half-width are exactly the batch means of its own blocks; and short runs
are unbiased.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import _check_count

__all__ = [
    "SimConfig",
    "SimResult",
    "mm1_sojourn_times",
    "simulate_station",
    "simulate_cluster",
]

#: Most batches of the batch-means half-width (see :func:`mm1_sojourn_times`).
_BATCHES = 20
#: Student-t 97.5% quantiles ``t(dof)`` for ``dof = 1 .. _BATCHES - 1``.
_T_975 = (
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624,
    2.306004, 2.262157, 2.228139, 2.200985, 2.178813, 2.160369, 2.144787,
    2.131450, 2.119905, 2.109816, 2.100922, 2.093024,
)
#: Lanes of the Lindley kernel: a block's scans run as row operations over
#: this many rows, which numpy vectorizes.
_LANES = 8
#: Arrivals per block, 6,144 per lane; a worker's three float64 buffers of
#: this length take 1.125 MiB.  On one thread, blocks of 2**15 to 2**16
#: arrivals ran equally fast (about 11 ns per arrival on a 2-vCPU host) and
#: 2**14 a quarter slower; the larger block gives each numpy call more work
#: between releases of the GIL, so the station threads queue on it less.
#: It is a cache choice only: a batch of the half-width is a whole number of
#: blocks, and two full blocks are the fewest with a finite half-width.
_BLOCK = 6144 * _LANES
#: Cap on the gap scale ``mu / lam``: a block's gaps sum below ``2**922``,
#: and a positive gap at the cap, at least ``2**847`` services, outlasts any wait.
_MAX_GAP_SCALE = 2.0**900


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters: two fields, ``seed`` and ``n_arrivals``.

    Both must be integers (``bool`` is rejected).  The defaults are
    ``fogcache simulate``'s: a million arrivals per queue, 20 batches.
    """

    seed: int = 0
    n_arrivals: int = 1_000_000

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("n_arrivals", self.n_arrivals, 1)


@dataclass(frozen=True)
class SimResult:
    """Measured sojourn times for one base station.

    ``mean_sojourn_e`` / ``mean_sojourn_b`` are the edge and backhaul queue
    means (``None`` for a side that received no traffic), ``mean_adt`` is the
    hit-ratio-weighted mixture and ``ci_halfwidth`` its 95% batch-means
    Student-t half-width (see :func:`mm1_sojourn_times`), infinite for a run
    too short for two batches.
    """

    mean_sojourn_e: float | None
    mean_sojourn_b: float | None
    mean_adt: float
    ci_halfwidth: float


def _sojourn_blocks(lam, mu, n_arrivals, rng):
    """Yield ``(waits, services)`` for each block of the first
    ``n_arrivals`` customers of an M/M/1 queue started in steady state, with
    every time in units of the mean service time ``1/mu`` and the services
    negated.

    Lindley's recursion for the waiting time, ``W_c = max(W_{c-1} + S_{c-1}
    - A_c, 0)`` with interarrival gaps ``A`` and services ``S`` (Lindley
    1952; Asmussen & Glynn 2007, ch. IV), in vectorized form: with the
    block-local partial sums ``Y_c = sum_{l<=c} X_l`` of ``X_l = S_{l-1} -
    A_l``, the wait is ``W_c = Y_c - min(-w, Y_0, ..., Y_c)``, where ``w``
    is the wait of the previous block's last customer, and the sojourn is
    ``W_c + S_c``.  Two scalars carry across blocks: ``w`` and the last
    service, the ``S_{-1}`` of the block's first term.  Before the first
    block they hold a virtual customer ``-1`` whose service is 0 and whose
    wait is its whole sojourn ``T_0``: in steady state an M/M/1 FCFS
    sojourn is exponential with rate ``mu - lam`` (Kleinrock 1975, vol. 1),
    so ``T_0 = -log(1 - U) * (mu / (mu - lam))`` from one uniform drawn
    before the first block, and the first customer's wait ``max(T_0 - A_0,
    0)``, like every later one's, has the stationary law.

    Blocks hold at most ``_BLOCK`` customers and are cut from the first.  A
    block of ``k`` customers starting at customer ``start`` runs in ``L =
    gcd(k, _LANES)`` lanes of ``m = k / L``:
    customer ``start + L * j + r`` sits at row ``r``, column ``j`` of an
    ``(L, m)`` array, so each column holds ``L`` consecutive customers and
    each row is contiguous.  Both scans of the recursion then split into a
    scan down each column, as ``L - 1`` row operations over ``m`` entries,
    and one scan of ``m`` column carries (Blelloch 1990):

    * the sums: ``P``, the partial sums of ``X`` down each column; the
      carries ``C``, the ``cumsum`` of the column totals; ``Y = P + C`` of
      the previous column, which for the last row is ``C`` itself;
    * the minimum: ``H``, the running minimum of ``-w`` and every ``Y`` of
      the previous columns, an ``fmin.accumulate`` of the column minima
      (one ``fmin.reduce`` down the rows); then down each column from
      ``H``.  The minimum is exact, so ``W = Y - min`` is the difference of
      two block-local partial sums, or one plus the carried wait.  The
      sojourn ``W + S`` is left to the caller, as ``W - (-S)``.

    Each block makes one ``rng.random`` call of ``2k`` uniforms, the gaps
    then the services, each in lane order (row by row).  In units of
    ``1/mu`` a service is the unit exponential ``-log(1 - U)`` and a gap is
    ``-log(1 - U) * (mu / lam)``, so the recursion sees the rates only
    through ``mu / lam`` and ``mu / (mu - lam)``: scaling both rates by a
    power of two leaves every yielded sojourn bit-identical.  Capped at
    :data:`_MAX_GAP_SCALE`, the ratio ``mu / lam`` keeps every sum finite;
    a load that light, capped or not, finds every customer alone.

    ``waits`` and ``services`` (holding ``-S``) are the block's ``(L, m)``
    views of the work buffers, in lane order: the caller may overwrite
    them, and they are reused once the caller asks for the next block.
    """
    ratio = min(mu / lam, _MAX_GAP_SCALE)
    size = min(n_arrivals, _BLOCK)
    draws, lows = np.empty(2 * size), np.empty(size)
    rng.random(out=draws[:1])
    wait, last_service = -math.log(1.0 - draws[0]) * (mu / (mu - lam)), 0.0
    for start in range(0, n_arrivals, _BLOCK):
        k = min(_BLOCK, n_arrivals - start)
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
        columns = a[0] if lanes == 1 else np.fmin.reduce(a, axis=0, out=y[-1])
        y[0, 0] = -wait
        np.fmin.accumulate(columns[:-1], out=y[0, 1:])
        np.fmin(a[0], y[0], out=y[0])
        for r in range(1, lanes):
            np.fmin(y[r - 1], a[r], out=y[r])
        a[0, 0] = first

        np.subtract(a, y, out=y)
        wait, last_service = y[-1, -1], -s[-1, -1]
        yield y, s


def mm1_sojourn_times(lam, mu, n_arrivals, rng):
    """Mean and 95% batch-means half-width of the sojourn times of the first
    ``n_arrivals`` customers of an M/M/1 queue started in steady state.

    The waits and services come block by block from the recursion of
    :func:`_sojourn_blocks`, in units of ``1/mu``, which draws one uniform
    for the stationary start and then makes one ``rng.random`` call of
    ``2k`` uniforms per block of ``k``; ``rng`` is any numpy ``Generator``.
    Every customer counts, so the mean is unbiased for a run of any length,
    and a block gives only its sojourn sum: the sum of its waits minus the
    sum of its negated services.

    The run is ``B`` full blocks of ``_BLOCK`` and a shorter last one.
    They form ``b = min(B, _BATCHES)`` batches (Law & Kelton, *Simulation
    Modeling and Analysis*, ch. 9): batch ``j`` holds full blocks
    ``floor(j B / b)`` to ``floor((j + 1) B / b) - 1``, and the short last
    block joins the last batch.  With ``n_j`` sojourns and mean ``m_j`` in
    batch ``j``, ``N`` in all and the overall mean ``m``, the half-width is
    ``t(b - 1) * sqrt(sum_j n_j (m_j - m)**2 / ((b - 1) N))``, with the
    Student-t quantile from :data:`_T_975`.  It is infinite when ``b < 2``,
    that is when the run holds fewer than two full blocks (below 98,304
    arrivals).  The mean and half-width are divided by ``mu`` last,
    so scaling both rates by a power of two scales them exactly, whatever
    the unit of time.  Memory is three float64 buffers of ``_BLOCK``
    entries, the draws (two) and the running minimum, and ``b`` batch sums,
    however long the run.  The mean's expectation is the analytic ``1 / (mu
    - lam)``.

    Raises ``ValueError`` unless ``lam`` and ``mu`` are finite with
    ``0 < lam < mu`` (a stable queue, however light) and ``n_arrivals`` is an
    integer (not a ``bool``) of at least 1.
    """
    lam, mu = float(lam), float(mu)
    if not (0 < lam < mu and math.isfinite(mu)):
        raise ValueError(f"need 0 < lam < mu for a stable queue, got lam={lam}, mu={mu}")
    _check_count("n_arrivals", n_arrivals, 1)
    full = n_arrivals // _BLOCK
    batches = min(full, _BATCHES)
    sums, counts = [0.0] * max(batches, 1), [0] * max(batches, 1)
    for i, (waits, services) in enumerate(_sojourn_blocks(lam, mu, n_arrivals, rng)):
        # Full block i lies in batch ceil((i + 1) b / B) - 1, the short last
        # block in the last.
        batch = min(((i + 1) * batches - 1) // full, batches - 1) if batches else 0
        sums[batch] += float(np.add.reduce(waits, axis=None)) - float(
            np.add.reduce(services, axis=None)
        )
        counts[batch] += waits.size
    count = sum(counts)
    mean = math.fsum(sums) / count
    if batches < 2:
        return mean / mu, math.inf
    spread = math.fsum(n * (total / n - mean) ** 2 for total, n in zip(sums, counts))
    return mean / mu, _T_975[batches - 2] * math.sqrt(spread / ((batches - 1) * count)) / mu


def simulate_station(h, traffic, station, config):
    """Simulate one base station's edge/backhaul pair at hit ratio ``h``.

    ``h`` splits the station's arrivals into an edge stream of rate
    ``lam*h`` and a backhaul stream of rate ``lam*(1-h)``; each stream feeds
    its own M/M/1 queue, drawing from ``Generator(SFC64(child))`` for its
    child of ``SeedSequence(entropy=config.seed, spawn_key=(station,))``.
    The reported mean download time is ``h * mean_e + (1-h) * mean_b`` with
    the half-widths combined in quadrature: both queues run the same number
    of batches, so their Student-t quantile is shared.  A side
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
            np.random.Generator(np.random.SFC64(child)),
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
