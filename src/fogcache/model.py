"""Domain types for the cache placement problem.

A scenario bundles three ingredients: a content library (request popularity
and sizes), a fog cluster (per-node cache capacities), and a traffic profile
(per base station: request arrival rate and the service rates of the two
provision paths — serving from the local edge cache versus fetching through
the backhaul from the cloud).  A placement assigns to every (node, content)
pair the portion of that content cached at that node.

All types are immutable after construction and validate their invariants up
front, so downstream numerical code can assume well-formed inputs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Absolute slack allowed by the feasibility checkers.  Placements come out of
#: numerical solvers, so exact constraint satisfaction is not attainable
#: in floating point; violations beyond this tolerance are rejected.
FEASIBILITY_TOL = 1e-8


def _as_vector(values, name):
    try:
        array = np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError):
        message = f"{name} must be a number or a list of numbers, got {values!r:.60}"
        raise ValueError(message) from None
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if array.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")
    return array


def zipf_popularity(count, exponent):
    """Zipf request popularity over ranks ``1..count``.

    The probability of the content at rank ``f`` is proportional to
    ``f ** -exponent``; the returned vector is sorted non-increasing and sums
    to 1.

    Parameters
    ----------
    count : int
        Number of contents (at least 1).
    exponent : float
        Skew of the distribution; 0 gives a uniform popularity.
    """
    if count < 1:
        raise ValueError("content count must be at least 1")
    if exponent < 0:
        raise ValueError("Zipf exponent must be nonnegative")
    ranks = np.arange(1, int(count) + 1, dtype=float)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


def _validate_library(library):
    popularity = library.popularity
    sizes = library.sizes
    if sizes.shape != popularity.shape:
        raise ValueError("popularity and sizes must have equal length")
    if np.any(popularity <= 0.0) or np.any(popularity > 1.0):
        raise ValueError("popularity entries must lie in (0, 1]")
    if abs(popularity.sum() - 1.0) > 1e-12:
        raise ValueError("popularity must sum to 1 (within 1e-12)")
    if np.any(np.diff(popularity) > 0.0):
        raise ValueError("not popularity-descending: popularity must be sorted non-increasing")
    if np.any(sizes <= 0.0):
        raise ValueError("content sizes must be strictly positive")


@dataclass(frozen=True, eq=False)
class ContentLibrary:
    """Content catalogue: request popularity and per-content sizes.

    ``popularity`` is sorted non-increasing (rank order) and sums to 1;
    ``sizes`` uses the same arbitrary storage unit as cluster capacities and
    defaults to one unit per content.  Sizes only weight the node-capacity
    rows: a request's service time does not depend on its content's size.
    """

    popularity: np.ndarray
    sizes: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "popularity", _as_vector(self.popularity, "popularity"))
        sizes = np.ones_like(self.popularity) if self.sizes is None else self.sizes
        object.__setattr__(self, "sizes", _as_vector(sizes, "sizes"))
        _validate_library(self)

    @property
    def count(self):
        """Number of contents ``F``."""
        return self.popularity.size

    @classmethod
    def zipf(cls, count, exponent):
        """Library with Zipf popularity and unit content sizes."""
        return cls(zipf_popularity(count, exponent))


def _validate_cluster(cluster):
    if np.any(cluster.capacities < 0.0):
        raise ValueError("cache capacities must be nonnegative")


@dataclass(frozen=True, eq=False)
class FogCluster:
    """A cluster of cache-equipped fog nodes with storage capacities."""

    capacities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "capacities", _as_vector(self.capacities, "capacities"))
        _validate_cluster(self)

    @property
    def node_count(self):
        """Number of fog nodes ``N``."""
        return self.capacities.size

    @property
    def total_capacity(self):
        return float(self.capacities.sum())


def _validate_traffic(traffic):
    lam, mu_e, mu_b = traffic.lam, traffic.mu_e, traffic.mu_b
    if not (lam.shape == mu_e.shape == mu_b.shape):
        raise ValueError("lam, mu_e and mu_b must have equal length")
    for i in range(lam.size):
        if not lam[i] > 0.0:
            raise ValueError(f"BS {i + 1}: lam={lam[i]:g} must be strictly positive")
        if not lam[i] < mu_b[i]:
            raise ValueError(
                f"BS {i + 1}: lam={lam[i]:g} >= mu_b={mu_b[i]:g} violates the "
                "stability chain lam < mu_b < mu_e"
            )
        if not mu_b[i] < mu_e[i]:
            raise ValueError(
                f"BS {i + 1}: mu_b={mu_b[i]:g} >= mu_e={mu_e[i]:g} violates the "
                "stability chain lam < mu_b < mu_e"
            )


@dataclass(frozen=True, eq=False)
class TrafficProfile:
    """Per-station traffic: arrival rates and the two service rates.

    ``lam[i]`` is the request arrival rate at base station ``i``; ``mu_e[i]``
    and ``mu_b[i]`` are the service rates of the cache-hit path and the
    cloud (miss) path.  Every station must satisfy the strict stability chain
    ``0 < lam < mu_b < mu_e`` so that both queues stay stable for any cache
    hit ratio in [0, 1].
    """

    lam: np.ndarray
    mu_e: np.ndarray
    mu_b: np.ndarray
    #: Traffic share of each station, ``lam / sum(lam)``; derived, not settable.
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_vector(self.lam, "lam"))
        object.__setattr__(self, "mu_e", _as_vector(self.mu_e, "mu_e"))
        object.__setattr__(self, "mu_b", _as_vector(self.mu_b, "mu_b"))
        _validate_traffic(self)
        object.__setattr__(self, "weights", self.lam / self.lam.sum())

    @property
    def station_count(self):
        return self.lam.size

    @property
    def total_arrival_rate(self):
        return float(self.lam.sum())

    @property
    def homogeneous(self):
        """True when every station has identical (lam, mu_e, mu_b)."""
        return bool(
            np.all(self.lam == self.lam[0])
            and np.all(self.mu_e == self.mu_e[0])
            and np.all(self.mu_b == self.mu_b[0])
        )


def _validate_scenario_shape(scenario):
    if scenario.traffic.station_count != scenario.cluster.node_count:
        raise ValueError(
            f"traffic describes {scenario.traffic.station_count} stations but the "
            f"cluster has {scenario.cluster.node_count} nodes"
        )


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete problem instance: library, cluster, and traffic."""

    library: ContentLibrary
    cluster: FogCluster
    traffic: TrafficProfile

    def __post_init__(self):
        _validate_scenario_shape(self)

    @classmethod
    def from_dict(cls, data):
        """Build a scenario from the documented JSON structure.

        Expected shape::

            {"library": {"F": 20, "alpha": 0.6, "sizes": [...]}   # Zipf form
             -- or --   {"popularity": [...], "sizes": [...]},
             "cluster": {"capacities": [...]},
             "traffic": {"lambda": [...], "mu_e": [...], "mu_b": [...]}}

        ``sizes`` defaults to all ones.  Traffic entries may be scalars, which
        broadcast to every station.  A section that is not an object, or a
        field of the wrong type, raises ``ValueError`` naming it.
        """
        if not isinstance(data, dict):
            raise ValueError("scenario document must be a JSON object")
        for key in ("library", "cluster", "traffic"):
            if not isinstance(data.get(key), dict):
                raise ValueError(f"scenario needs a '{key}' section that is a JSON object")
        lib_spec, cluster_spec, traffic_spec = data["library"], data["cluster"], data["traffic"]

        if "popularity" in lib_spec:
            if "alpha" in lib_spec:
                raise ValueError("library takes either 'popularity' or ('F', 'alpha'), not both")
            popularity = lib_spec["popularity"]
        elif "F" in lib_spec and "alpha" in lib_spec:
            count, exponent = lib_spec["F"], lib_spec["alpha"]
            if isinstance(count, float) and count.is_integer():
                count = int(count)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"library 'F' must be an integer, got {count!r}")
            if isinstance(exponent, bool) or not isinstance(exponent, numbers.Real):
                raise ValueError(f"library 'alpha' must be a number, got {exponent!r}")
            popularity = zipf_popularity(count, exponent)
        else:
            raise ValueError("library needs either 'popularity' or both 'F' and 'alpha'")
        library = ContentLibrary(popularity, lib_spec.get("sizes"))

        if "capacities" not in cluster_spec:
            raise ValueError("cluster section is missing 'capacities'")
        cluster = FogCluster(cluster_spec["capacities"])

        def traffic_vector(key):
            if key not in traffic_spec:
                raise ValueError(f"traffic section is missing '{key}'")
            value = traffic_spec[key]
            array = _as_vector(value, f"traffic '{key}'")
            return np.full(cluster.node_count, array[0]) if np.ndim(value) == 0 else array

        traffic = TrafficProfile(
            traffic_vector("lambda"), traffic_vector("mu_e"), traffic_vector("mu_b")
        )
        return cls(library, cluster, traffic)

    @classmethod
    def load(cls, path):
        with open(Path(path), "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def validate_scenario(scenario):
    """Re-check every invariant of an assembled scenario and return it.

    The dataclasses already validate on construction; this is the explicit
    entry point for data arriving from files.  The first violated invariant
    is reported with its station index.
    """
    _validate_library(scenario.library)
    _validate_cluster(scenario.cluster)
    _validate_traffic(scenario.traffic)
    _validate_scenario_shape(scenario)
    return scenario


@dataclass(frozen=True, eq=False)
class Placement:
    """Fractional cache placement: one row per node, one column per content.

    Entry ``(i, f)`` is the portion of content ``f`` stored at node ``i``.
    Construction enforces the node-free constraints — entries in [0, 1] and
    per-content totals at most 1 — within :data:`FEASIBILITY_TOL`; capacity
    feasibility additionally needs sizes/capacities, see
    :func:`validate_placement`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("placement matrix must be two-dimensional (nodes x contents)")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("placement entries must be finite")
        if matrix.min(initial=0.0) < -FEASIBILITY_TOL or matrix.max(initial=0.0) > 1.0 + FEASIBILITY_TOL:
            raise ValueError("placement entries must lie in [0, 1]")
        if np.any(matrix.sum(axis=0) > 1.0 + FEASIBILITY_TOL):
            raise ValueError("total cached portion of a content must not exceed 1")
        object.__setattr__(self, "matrix", matrix)

    @property
    def node_count(self):
        return self.matrix.shape[0]

    @property
    def content_count(self):
        return self.matrix.shape[1]

    @property
    def cached_fractions(self):
        """Per-content totals ``sum_i P(i, f)`` (length F)."""
        return self.matrix.sum(axis=0)

    def node_loads(self, sizes):
        """Per-node storage use ``sum_f P(i, f) * S_f`` (length N)."""
        return self.matrix @ np.asarray(sizes, dtype=float)


def validate_placement(placement, library, cluster):
    """Check a placement against every feasibility constraint.

    Raises ``ValueError`` on dimension mismatch, out-of-range entries,
    per-content totals above 1, or node loads above capacity (all with slack
    :data:`FEASIBILITY_TOL`); returns the placement unchanged otherwise.
    """
    matrix = placement.matrix if isinstance(placement, Placement) else np.asarray(placement, dtype=float)
    if matrix.shape != (cluster.node_count, library.count):
        raise ValueError(
            f"placement shape {matrix.shape} does not match "
            f"({cluster.node_count} nodes, {library.count} contents)"
        )
    if matrix.min(initial=0.0) < -FEASIBILITY_TOL or matrix.max(initial=0.0) > 1.0 + FEASIBILITY_TOL:
        raise ValueError("placement entries must lie in [0, 1]")
    totals = matrix.sum(axis=0)
    if np.any(totals > 1.0 + FEASIBILITY_TOL):
        worst = int(np.argmax(totals))
        raise ValueError(f"content {worst + 1}: total cached portion {totals[worst]:g} exceeds 1")
    loads = matrix @ library.sizes
    excess = loads - cluster.capacities
    if np.any(excess > FEASIBILITY_TOL):
        worst = int(np.argmax(excess))
        raise ValueError(
            f"node {worst + 1}: storage use {loads[worst]:g} exceeds capacity "
            f"{cluster.capacities[worst]:g}"
        )
    return placement
