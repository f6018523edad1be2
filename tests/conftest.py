"""Shared fixtures: the reference scenario, frozen oracle values, seeded
random-instance generators, and one session-wide cache of solver runs.

The frozen constants below were derived independently of the library code,
from closed forms and an exhaustive fine-grid scan of the objective.  They
are float64 results, not correctly rounded values: ``H_CSL``, ``ADT_OPT``
and ``LAMBDA_STAR`` lie 1, 1 and 6 ulps from the values a 50-digit
evaluation gives, 0.69380437775287119731, 0.19641016151377545871 and
3.1501186422551193007 (the last computed from the float ``H_CSL``).  Tests
treat them as ground truth.
"""

import functools
import threading
import time

import numpy as np
import pytest

from fogcache import ContentLibrary, FogCluster, Placement, Scenario, TrafficProfile

# --- reference scenario: 20 Zipf(0.6) contents of unit size, three nodes
# with capacities 2/3/5, homogeneous traffic lam=4, mu_e=8, mu_b=6 ---

#: Capacity-limited hit ratio: popularity mass of the ten most popular
#: contents (total capacity 10 at unit size).
H_CSL = 0.6938043777528711
#: Interior stationary point of the download-time curve.
H_CPL = 0.6602540378443865
#: Arrival rate where the two regimes meet.
LAMBDA_STAR = 3.150118642255122
#: Optimal average download time, attained at H_CPL.
ADT_OPT = 0.19641016151377544
#: Download time of the hit-ratio-maximizing placement (strictly worse).
ADT_AT_CSL = 0.19691287155196438
#: Popularity mass of the nine most popular contents, and the fractional
#: share of the tenth that realizes exactly H_CPL.
TOP9_MASS = 0.6546535443053937
TENTH_FRACTION = 0.1430491523636692
#: Most popular content's probability (Zipf exponent 0.6 over 20 ranks).
TOP_POPULARITY = 0.1558622752858646

# Exhaustive grid scan at resolution 1e-5 over the reachable hit ratios.
GRID_H_BEST = 0.66025
GRID_ADT_BEST = 0.19641016152107993

# Heterogeneous two-station variant: lam=[4,2], mu_e=8, mu_b=6, ample
# storage (capacities [5,5]).  The optimum is the interior stationary point.
HETERO_H_OPT = 0.6761496494625081
HETERO_ADT_OPT = 0.18508830731867457


def bounded(fn, *args, seconds=60):
    """``fn(*args)`` on a helper thread, returning its value or re-raising its
    exception; fails the test instead of hanging if the call has not returned
    within ``seconds``."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:
            outcome["error"] = exc

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=seconds)
    assert not caller.is_alive(), f"call still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def make_scenario(lam=4.0, mu_e=8.0, mu_b=6.0, count=20, alpha=0.6, capacities=(2.0, 3.0, 5.0)):
    """Reference-family scenario; traffic is homogeneous across stations."""
    capacities = np.asarray(capacities, dtype=float)
    n = capacities.size
    return Scenario(
        library=ContentLibrary.zipf(count, alpha),
        cluster=FogCluster(capacities),
        traffic=TrafficProfile(
            np.full(n, float(lam)), np.full(n, float(mu_e)), np.full(n, float(mu_b))
        ),
    )


@pytest.fixture
def reference_scenario():
    return make_scenario()


@pytest.fixture
def hetero_scenario():
    return Scenario(
        library=ContentLibrary.zipf(20, 0.6),
        cluster=FogCluster([5.0, 5.0]),
        traffic=TrafficProfile([4.0, 2.0], [8.0, 8.0], [6.0, 6.0]),
    )


#: The reference scenario as one object, the key of its shared runs.
REFERENCE = make_scenario()

#: Each shared run's result and wall seconds, by ``(run, scenario, *args)``.
_RUNS = {}


def timed_run(run, scenario, *args):
    """``(run(scenario, *args), wall seconds)``, run on the first call with
    these arguments and reused by every later call in the session.

    The key holds ``run`` and ``scenario`` by identity (``Scenario`` is
    ``eq=False``) and the other arguments by value, so two equal
    ``SolverConfig`` objects share a run; pass the config even where it is
    the default.  Callers must not modify the result, and a test that patches
    solver internals must call the solver itself.
    """
    key = (run, scenario, *args)
    if key not in _RUNS:
        start = time.perf_counter()
        result = run(scenario, *args)
        _RUNS[key] = result, time.perf_counter() - start
    return _RUNS[key]


def solved(run, scenario, *args):
    """The result of :func:`timed_run`, without its wall time."""
    return timed_run(run, scenario, *args)[0]


def random_scenario(rng, max_nodes=3, max_contents=30):
    """Random valid scenario with equal (unit) content sizes.

    Traffic is identical across stations half the time and per-station
    otherwise; the stability chain holds with margin either way.
    """
    n = int(rng.integers(1, max_nodes + 1))
    f = int(rng.integers(2, max_contents + 1))
    library = ContentLibrary.zipf(f, float(rng.uniform(0.4, 1.2)))
    total = float(rng.uniform(0.15, 1.1)) * f
    cluster = FogCluster(total * rng.dirichlet(np.ones(n)))
    if rng.random() < 0.5:
        mu_b = np.full(n, rng.uniform(1.5, 8.0))
        mu_e = mu_b * rng.uniform(1.25, 3.0)
        lam = mu_b * rng.uniform(0.15, 0.9)
    else:
        mu_b = rng.uniform(1.5, 8.0, size=n)
        mu_e = mu_b * rng.uniform(1.25, 3.0, size=n)
        lam = mu_b * rng.uniform(0.15, 0.9, size=n)
    return Scenario(library, cluster, TrafficProfile(lam, mu_e, mu_b))


#: Zipf exponents of :func:`probe_scenario`, from uniform to very skewed.
PROBE_EXPONENTS = (0.0, 0.3, 0.8, 1.2, 2.5)


def probe_scenario(rng):
    """A random valid scenario on wide axes, with per-station traffic.

    1-7 stations and 2-39 contents; sizes U(0.2, 3) half the time, unit
    otherwise; Zipf popularity with an exponent from ``PROBE_EXPONENTS``,
    listed in a random order; capacities split by a Dirichlet, totalling
    0.05-1.2 times the total size; ``mu_b`` U(1, 10), ``mu_e / mu_b``
    U(1.01, 4), and ``lam = mu_b (1 - 10**-u)`` with ``u`` U(0.05, 4), so
    from light load to 1e-4 below saturation.
    """
    n = int(rng.integers(1, 8))
    f = int(rng.integers(2, 40))
    sizes = rng.uniform(0.2, 3.0, size=f) if rng.random() < 0.5 else np.ones(f)
    exponent = PROBE_EXPONENTS[int(rng.integers(len(PROBE_EXPONENTS)))]
    popularity = ContentLibrary.zipf(f, exponent).popularity[rng.permutation(f)]
    capacities = rng.uniform(0.05, 1.2) * sizes.sum() * rng.dirichlet(np.ones(n))
    mu_b = rng.uniform(1.0, 10.0, size=n)
    mu_e = mu_b * rng.uniform(1.01, 4.0, size=n)
    lam = mu_b * (1.0 - 10.0 ** -rng.uniform(0.05, 4.0, size=n))
    return Scenario(
        ContentLibrary(popularity, sizes), FogCluster(capacities), TrafficProfile(lam, mu_e, mu_b)
    )


@functools.cache
def probe_cases(seed=7, count=50):
    """The seeded :func:`probe_scenario` cases that the certificate and
    order-invariance tests share: the same objects on every call, so their
    runs through :func:`solved` are shared too.  A larger ``count`` extends
    the same sequence of cases."""
    rng = np.random.default_rng(seed)
    return tuple(probe_scenario(rng) for _ in range(count))


@pytest.fixture(scope="session")
def probe_scenarios():
    """The probe cases that the certificate and order-invariance tests run
    on; ``tests/test_probe.py`` overrides it with a larger probe."""
    return probe_cases()


def mixed_size_scenarios(seed, count=8):
    """Small seeded scenarios, every other one with unequal content sizes;
    ``random_scenario`` mixes identical and per-station traffic."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        scenario = random_scenario(rng, max_nodes=3, max_contents=12)
        if k % 2:
            library = scenario.library
            sizes = rng.uniform(0.5, 2.0, size=library.count)
            scenario = Scenario(
                ContentLibrary(library.popularity, sizes),
                FogCluster(scenario.cluster.capacities * sizes.mean()),
                scenario.traffic,
            )
        yield rng, scenario


def random_feasible_placement(rng, library, cluster, margin=0.95):
    """Random placement strictly inside the feasible set."""
    matrix = rng.uniform(0.0, 1.0, size=(cluster.node_count, library.count))
    totals = matrix.sum(axis=0)
    matrix *= margin * rng.uniform(0.2, 1.0) / np.maximum(totals, 1.0)
    loads = matrix @ library.sizes
    over = loads > margin * cluster.capacities
    scale = np.where(over, margin * cluster.capacities / np.maximum(loads, 1e-300), 1.0)
    matrix *= scale[:, np.newaxis]
    return Placement(matrix)


#: Shapes for random projection instances (at most 8 variables, so the
#: exhaustive projection oracle stays usable).  Weighted toward small
#: instances; the larger ones exercise richer active-set combinations.
PROJECTION_SHAPES = (
    (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (2, 3), (3, 2),
    (1, 4), (4, 1), (2, 2), (3, 1), (1, 3), (2, 3), (3, 2), (5, 1),
    (1, 5), (6, 1), (1, 6), (4, 2), (2, 4), (7, 1), (1, 7), (8, 1), (1, 8),
)


def random_projection_instance(rng):
    """A random constraint system plus an (often infeasible) query point."""
    n, f = PROJECTION_SHAPES[int(rng.integers(len(PROJECTION_SHAPES)))]
    sizes = rng.uniform(0.5, 2.0, size=f) if rng.random() < 0.5 else np.ones(f)
    popularity = np.sort(rng.dirichlet(np.ones(f)))[::-1]
    library = ContentLibrary(popularity, sizes)
    cluster = FogCluster(float(rng.uniform(0.1, 1.1)) * sizes.sum() * rng.dirichlet(np.ones(n)))
    x = rng.uniform(-0.6, 1.6, size=(n, f))
    return x, library, cluster
