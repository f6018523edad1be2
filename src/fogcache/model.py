"""Domain types for the cache placement problem.

A scenario bundles three ingredients: a content library (request popularity
and sizes), a fog cluster (per-node cache capacities), and a traffic profile
(per base station: request arrival rate and the service rates of the two
provision paths — serving from the local edge cache versus fetching through
the backhaul from the cloud).  A placement assigns to every (node, content)
pair the portion of that content cached at that node.  The caches are
pooled, so no station is paired with a node.

All types are immutable after construction and validate their invariants up
front, so downstream numerical code can assume well-formed inputs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

#: Absolute slack allowed by the feasibility checkers.  Placements come out of
#: numerical solvers, so exact constraint satisfaction is not attainable
#: in floating point; violations beyond this tolerance are rejected.
FEASIBILITY_TOL = 1e-8


def _first_non_number(values):
    """``(index path, entry)`` of the first entry of ``values`` that is not a
    number, or ``None`` when ``values`` is a number, a numeric array, or a
    list nesting only those; a bool or a string is not a number.

    A list whose entries are all exactly ``int`` or ``float`` passes on one
    look at their types; only a list that fails that look is walked entry by
    entry, so a valid matrix read from JSON costs one call per row.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iuf":
            return None
        values = values.tolist()
    if isinstance(values, (list, tuple)):
        if set(map(type, values)) <= {int, float}:
            return None
        for index, value in enumerate(values):
            found = _first_non_number(value)
            if found is not None:
                return (index, *found[0]), found[1]
        return None
    if isinstance(values, numbers.Real) and not isinstance(values, bool):
        return None
    return (), values


def _as_array(values, name, ndim):
    """``values`` as a nonempty, finite float array with ``ndim`` axes.

    The one check for numbers read from input files: every entry is an int
    or a float, never a bool or a string, and an int too large for a float
    is rejected.  A scalar counts as a vector of one when ``ndim`` is 1.  A
    float array is returned without a copy.  Raises ``ValueError`` naming
    ``name``, and the index path of the first entry that is not a number,
    which :func:`_first_non_number` finds.
    """
    found = _first_non_number(values)
    if found is not None:
        path, entry = found
        if not path:
            raise ValueError(f"{name} must hold only numbers, got {entry!r:.60}")
        index = "".join(f"[{i}]" for i in path)
        raise ValueError(f"{name} entry {index} must be a number, got {entry!r:.60}")
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None
    except ValueError:
        raise ValueError(f"{name} must be a rectangular list of numbers") from None
    if ndim == 1:
        array = np.atleast_1d(array)
    if array.ndim != ndim:
        shape = ("a single number", "one-dimensional", "two-dimensional")[ndim]
        raise ValueError(f"{name} must be {shape}")
    if array.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")
    return array


def _check_count(name, value, least):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (a bool is not one) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_positive(name, value):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is positive and
    finite (not NaN)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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
    _check_count("count", count, 1)
    if exponent < 0:
        raise ValueError("Zipf exponent must be nonnegative")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class ContentLibrary:
    """Content catalogue: request popularity and per-content sizes.

    ``popularity`` sums to 1 and may list the contents in any order;
    ``sizes`` uses the same arbitrary storage unit as cluster capacities and
    defaults to one unit per content.  Sizes only weight the node-capacity
    rows: a request's service time does not depend on its content's size.
    """

    popularity: np.ndarray
    sizes: np.ndarray = None

    def __post_init__(self):
        popularity = _as_array(self.popularity, "popularity", 1)
        sizes = np.ones_like(popularity) if self.sizes is None else _as_array(self.sizes, "sizes", 1)
        object.__setattr__(self, "popularity", popularity)
        object.__setattr__(self, "sizes", sizes)
        if sizes.shape != popularity.shape:
            raise ValueError("popularity and sizes must have equal length")
        if np.any(popularity <= 0.0) or np.any(popularity > 1.0):
            raise ValueError("popularity entries must lie in (0, 1]")
        if abs(popularity.sum() - 1.0) > 1e-12:
            raise ValueError("popularity must sum to 1 (within 1e-12)")
        if np.any(sizes <= 0.0):
            raise ValueError("content sizes must be strictly positive")

    @property
    def count(self):
        """Number of contents ``F``."""
        return self.popularity.size

    @classmethod
    def zipf(cls, count, exponent):
        """Library with Zipf popularity and unit content sizes."""
        return cls(zipf_popularity(count, exponent))


@dataclass(frozen=True, eq=False)
class FogCluster:
    """A cluster of cache-equipped fog nodes with storage capacities."""

    capacities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "capacities", _as_array(self.capacities, "capacities", 1))
        if np.any(self.capacities < 0.0):
            raise ValueError("cache capacities must be nonnegative")

    @property
    def node_count(self):
        """Number of fog nodes ``N``."""
        return self.capacities.size

    @property
    def total_capacity(self):
        return float(self.capacities.sum())


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
        object.__setattr__(self, "lam", _as_array(self.lam, "lam", 1))
        object.__setattr__(self, "mu_e", _as_array(self.mu_e, "mu_e", 1))
        object.__setattr__(self, "mu_b", _as_array(self.mu_b, "mu_b", 1))
        lam, mu_e, mu_b = self.lam, self.mu_e, self.mu_b
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
        object.__setattr__(self, "weights", lam / lam.sum())

    @property
    def station_count(self):
        return self.lam.size


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete problem instance: library, cluster, and traffic, whose
    station count is free of the node count, as the caches are pooled."""

    library: ContentLibrary
    cluster: FogCluster
    traffic: TrafficProfile

    @classmethod
    def from_dict(cls, data):
        """Build a scenario from the documented JSON structure.

        Expected shape::

            {"library": {"F": 20, "alpha": 0.6, "sizes": [...]}   # Zipf form
             -- or --   {"popularity": [...], "sizes": [...]},
             "cluster": {"capacities": [...]},
             "traffic": {"lambda": [...], "mu_e": [...], "mu_b": [...]}}

        ``sizes`` defaults to all ones.  A traffic rate given as a list sets
        the station count, and a scalar broadcasts to every station, one per
        node when all three are scalars.  A section that is not an object,
        or a field of the wrong type, raises ``ValueError`` naming it.
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
            count = float(_as_array(lib_spec["F"], "library 'F'", 0))
            if not count.is_integer():
                raise ValueError(f"library 'F' must be an integer, got {count:g}")
            exponent = float(_as_array(lib_spec["alpha"], "library 'alpha'", 0))
            popularity = zipf_popularity(int(count), exponent)
        else:
            raise ValueError("library needs either 'popularity' or both 'F' and 'alpha'")
        library = ContentLibrary(popularity, lib_spec.get("sizes"))

        if "capacities" not in cluster_spec:
            raise ValueError("cluster section is missing 'capacities'")
        cluster = FogCluster(cluster_spec["capacities"])

        rates = []
        for key in ("lambda", "mu_e", "mu_b"):
            if key not in traffic_spec:
                raise ValueError(f"traffic section is missing '{key}'")
            value = traffic_spec[key]
            rates.append((np.ndim(value) == 0, _as_array(value, f"traffic '{key}'", 1)))
        stations = next((rate.size for scalar, rate in rates if not scalar), cluster.node_count)
        traffic = TrafficProfile(
            *(np.full(stations, rate[0]) if scalar else rate for scalar, rate in rates)
        )
        return cls(library, cluster, traffic)

    @classmethod
    def load(cls, path):
        with open(Path(path), "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def validate_scenario(scenario):
    """Re-check every invariant of an assembled scenario and return it.

    Rebuilds the library, cluster, traffic and scenario, so their
    construction checks run again on the arrays as they are now; the first
    violated invariant is reported, with its station index for traffic.
    """
    replace(
        scenario,
        library=replace(scenario.library),
        cluster=replace(scenario.cluster),
        traffic=replace(scenario.traffic),
    )
    return scenario


@dataclass(frozen=True, eq=False)
class Placement:
    """Fractional cache placement: one row per node, one column per content.

    Entry ``(i, f)`` is the portion of content ``f`` stored at node ``i``.
    Construction reads the matrix by the rule for numbers from files (finite
    ints or floats) and enforces the node-free constraints — entries in
    [0, 1] and per-content totals at most 1 — within
    :data:`FEASIBILITY_TOL`; capacity feasibility additionally needs
    sizes/capacities, see :func:`validate_placement`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _as_array(self.matrix, "placement matrix", 2)
        if matrix.min() < -FEASIBILITY_TOL or matrix.max() > 1.0 + FEASIBILITY_TOL:
            raise ValueError("placement entries must lie in [0, 1]")
        totals = matrix.sum(axis=0)
        if np.any(totals > 1.0 + FEASIBILITY_TOL):
            worst = int(np.argmax(totals))
            raise ValueError(f"content {worst + 1}: total cached portion {totals[worst]:g} exceeds 1")
        object.__setattr__(self, "matrix", matrix)


def validate_placement(placement, library, cluster):
    """Check a placement (a :class:`Placement` or a bare matrix) against every
    feasibility constraint.

    Raises ``ValueError`` on a dimension mismatch, on a bare matrix that
    :class:`Placement` rejects, or on node loads above capacity (with slack
    :data:`FEASIBILITY_TOL`); returns the placement unchanged otherwise.
    """
    matrix = placement.matrix if isinstance(placement, Placement) else placement
    if np.shape(matrix) != (cluster.node_count, library.count):
        raise ValueError(
            f"placement shape {np.shape(matrix)} does not match "
            f"({cluster.node_count} nodes, {library.count} contents)"
        )
    if not isinstance(placement, Placement):
        matrix = Placement(matrix).matrix
    loads = matrix @ library.sizes
    excess = loads - cluster.capacities
    if np.any(excess > FEASIBILITY_TOL):
        worst = int(np.argmax(excess))
        raise ValueError(
            f"node {worst + 1}: storage use {loads[worst]:g} exceeds capacity "
            f"{cluster.capacities[worst]:g}"
        )
    return placement
