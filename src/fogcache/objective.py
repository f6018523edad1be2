"""The analytic performance model.

Every request stream in the cluster sees the same edge-cache-hit ratio
(ECHR) ``h``: the popularity-weighted total of cached portions.  Each base
station then behaves as a pair of independent M/M/1 queues — hit traffic of
rate ``lam * h`` served at ``mu_e``, miss traffic of rate ``lam * (1 - h)``
served at ``mu_b`` — with mean sojourn times ``t_e = 1 / (mu_e - lam * h)``
and ``t_b = 1 / (mu_b - lam * (1 - h))``.  The per-station average download
time (ADT) and its derivatives are

    d(h)   = h * t_e + (1 - h) * t_b
    d'(h)  = mu_e * t_e**2 - mu_b * t_b**2
    d''(h) = 2 * lam * (mu_e * t_e**3 + mu_b * t_b**3)

and the overall objective ``D(h)`` and its derivatives are their
arrival-rate-weighted means over the stations.  The model's one kernel,
``_station_times``, is the only code that writes ``t_e`` and ``t_b``, and
``_derivatives`` reads both ``D'`` and ``D''`` from one call of it.  ``D``
depends on a placement only through the scalar ``h``, which is what gives
the solver its closed-form update: its partial derivative in entry
``(i, f)`` is ``D'(h) * popularity[f]`` (:func:`adt_slope`), the same on
every node.

``D`` is defined (and strictly convex) on the open interval of hit ratios
where every station keeps both queues stable; that interval always contains
[0, 1] thanks to the stability chain ``lam < mu_b < mu_e``.

The service rates are per request: a request's service time does not depend
on the size of the content it asks for.  Content sizes enter only the
node-capacity rows of the feasible set, where they decide which hit ratios a
placement can reach, so the model holds for any positive sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Placement, validate_placement

__all__ = [
    "AdtReport",
    "echr",
    "overall_adt",
    "adt_curve",
    "adt_slope",
    "adt_curvature",
    "stable_echr_interval",
]


def echr(placement, library):
    """Expected cache hit ratio of a placement.

    The popularity-weighted total cached portion
    ``sum_f P_r(f) * sum_i P(i, f)``; equivalently the inner product ``c . p``
    with ``c`` the popularity vector replicated once per node.  Linear in the
    placement.
    """
    if isinstance(placement, Placement):
        matrix = placement.matrix
    else:
        matrix = np.asarray(placement, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != library.count:
        raise ValueError(
            f"placement with {matrix.shape[-1] if matrix.ndim else 0} contents does "
            f"not match a library of {library.count}"
        )
    return float(library.popularity @ matrix.sum(axis=0))


def _clamp_to_unit(h):
    """A hit ratio clamped to [0, 1], the hit ratios the queues accept.

    A feasible placement, or a feasible vector of content totals, may
    overshoot the unit hit share by rounding; the clamp absorbs that.
    """
    return min(max(float(h), 0.0), 1.0)


def _clamped_echr(placement, library):
    """:func:`echr` under :func:`_clamp_to_unit`."""
    return _clamp_to_unit(echr(placement, library))


def stable_echr_interval(traffic):
    """Open interval of hit ratios keeping every station's queues stable.

    Returns ``(lo, hi)`` with ``lo = max_i (1 - mu_b_i / lam_i)`` and
    ``hi = min_i (mu_e_i / lam_i)``; always a strict superset of [0, 1] for a
    valid traffic profile.
    """
    lo = float(np.max(1.0 - traffic.mu_b / traffic.lam))
    hi = float(np.min(traffic.mu_e / traffic.lam))
    return lo, hi


def _station_times(h, traffic, load=1.0):
    """Per-station ``(t_e, t_b, d)`` at hit ratio ``h``, with no stability check.

    At arrival rates ``lam = traffic.lam * load`` (exact at the default), the
    hit queue takes ``lambda_e = lam * h`` and the miss queue the exact
    complement ``lam - lambda_e``; ``t_e`` and ``t_b`` are their M/M/1 mean
    sojourn times and ``d = h * t_e + (1 - h) * t_b`` the station's download
    time.  ``h`` is a scalar or carries a trailing station axis.
    """
    lam = traffic.lam * load
    lambda_e = lam * h
    t_e = 1.0 / (traffic.mu_e - lambda_e)
    t_b = 1.0 / (traffic.mu_b - (lam - lambda_e))
    return t_e, t_b, h * t_e + (1.0 - h) * t_b


def _adt_at(h, traffic):
    """``D(h)`` with no stability check; see :func:`_derivatives`."""
    return _station_times(h, traffic)[2] @ traffic.weights


def _derivatives(h, traffic):
    """``(D'(h), D''(h))`` from one kernel call, with no stability check.

    For hot loops that keep ``h`` inside :func:`stable_echr_interval`
    themselves; ``h`` is a scalar or carries a trailing station axis.
    """
    t_e, t_b, _ = _station_times(h, traffic)
    lam, mu_e, mu_b, weights = traffic.lam, traffic.mu_e, traffic.mu_b, traffic.weights
    return (
        (mu_e * t_e**2 - mu_b * t_b**2) @ weights,
        (2 * lam * (mu_e * t_e**3 + mu_b * t_b**3)) @ weights,
    )


def _checked(kernel, h, traffic):
    """``kernel`` at ``h`` (a scalar or an array) after the stability check.

    Raises ``ValueError`` when any value of ``h`` leaves the stable range;
    returns a float for a scalar ``h`` and an array of its shape otherwise.
    """
    lo, hi = stable_echr_interval(traffic)
    scalar = np.ndim(h) == 0
    h = np.asarray(h, dtype=float)
    if np.any(h <= lo) or np.any(h >= hi):
        raise ValueError(
            f"hit ratio outside the stable range ({lo:g}, {hi:g}); "
            "some station queue would be overloaded"
        )
    values = kernel(h[..., np.newaxis], traffic)
    return float(values) if scalar else values


def adt_curve(h, traffic):
    """Overall ADT ``D(h)`` at hit ratio ``h`` (vectorized over ``h``).

    Defined on the whole stable interval, which extends beyond [0, 1]; the
    root finders rely on that headroom.  Raises ``ValueError`` when any value
    leaves the stable range.
    """
    return _checked(_adt_at, h, traffic)


def adt_slope(h, traffic):
    """First derivative ``dD/dh`` (vectorized over ``h``)."""
    return _checked(lambda h, traffic: _derivatives(h, traffic)[0], h, traffic)


def adt_curvature(h, traffic):
    """Second derivative ``d2D/dh2``; strictly positive on the stable range."""
    return _checked(lambda h, traffic: _derivatives(h, traffic)[1], h, traffic)


def _relative_fw_gap(h, slope, adt, h_csl):
    """Relative Frank–Wolfe gap of a feasible placement, both solvers' stop.

    ``h``, ``slope = D'(h)`` and ``adt = D(h)`` describe the placement and
    ``h_csl`` is the storage bound.  The linear minimisation over the
    feasible set reaches ``h_csl`` where ``D'(h) < 0`` and 0 otherwise, so
    by convexity the result bounds ``(adt - D*) / adt`` (Jaggi 2013).
    """
    return slope * (h - (h_csl if slope < 0.0 else 0.0)) / adt


@dataclass(frozen=True, eq=False)
class AdtReport:
    """Full download-time breakdown of a placement.

    ``h_e``/``h_b`` are the hit and miss shares (they sum to 1); ``t_e`` and
    ``t_b`` the per-station mean sojourn times of the two queues;
    ``per_station`` the station ADTs and ``overall`` their traffic-weighted
    mean — the optimization objective.
    """

    h_e: float
    h_b: float
    t_e: np.ndarray
    t_b: np.ndarray
    per_station: np.ndarray
    overall: float


def overall_adt(placement, scenario):
    """Evaluate the full download-time report of a feasible placement."""
    validate_placement(placement, scenario.library, scenario.cluster)
    traffic = scenario.traffic
    h = _clamped_echr(placement, scenario.library)
    t_e, t_b, per_station = _station_times(h, traffic)
    overall = float(per_station @ traffic.weights)
    return AdtReport(h_e=h, h_b=1.0 - h, t_e=t_e, t_b=t_b, per_station=per_station, overall=overall)

