"""Safeguarded scalar root finding for strictly increasing functions."""

import numpy as np

from .errors import NumericalError

TOL = 1e-12  # absolute tolerance on the final bracket width
MAX_ITER = 200  # safeguarded Newton steps before plain bisection takes over


def _march(func, lo, hi, side):
    """Find a point of the requested sign by marching toward one boundary.

    ``side=-1`` searches for a negative value on candidates approaching ``lo``
    from inside; ``side=+1`` for a positive value approaching ``hi``.  The
    candidates start a quarter of the way in (the caller has already
    evaluated the midpoint).  The function is assumed to diverge to
    -inf/+inf at the respective boundary, so a NaN (overflowed arithmetic
    hard against the boundary) is treated as having the boundary's limiting
    sign.
    """
    width = hi - lo
    for k in range(2, 64):
        x = lo + width * 0.5**k if side < 0 else hi - width * 0.5**k
        if not lo < x < hi:
            break
        value = func(x)
        if np.isnan(value) or side * value > 0:
            return x
    raise NumericalError(
        "failed to bracket a root on (%g, %g): no %s value found"
        % (lo, hi, "negative" if side < 0 else "positive")
    )


def increasing_root(func, deriv, lo, hi):
    """Root of a strictly increasing ``func`` on the open interval ``(lo, hi)``.

    ``func`` must be negative near ``lo`` and positive near ``hi`` (it may
    diverge at the boundaries).  Newton steps from ``deriv`` are used whenever
    they stay inside the current sign bracket; otherwise the step falls back
    to bisection, so convergence to absolute tolerance :data:`TOL` on the
    bracket width is guaranteed.  Once a Newton step is shorter than
    ``TOL / 2`` it is doubled (to at least a few ulps), so the next point
    lands just past the root and the bracket closes around the Newton
    estimate at once instead of by bisection.
    """
    if not hi > lo:
        raise ValueError("empty interval (%g, %g)" % (lo, hi))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        middle = 0.5 * (lo + hi)
        if func(middle) < 0.0:
            a, b = middle, _march(func, lo, hi, +1)
        else:
            a, b = _march(func, lo, hi, -1), middle
        x = 0.5 * (a + b)
        for _ in range(MAX_ITER):
            fx = func(x)
            if fx == 0.0:
                return x
            if fx > 0.0:
                b = x
            else:
                a = x
            if b - a <= TOL:
                return 0.5 * (a + b)
            slope = deriv(x)
            if np.isfinite(fx) and np.isfinite(slope) and slope > 0.0:
                step = -fx / slope
                if abs(step) < 0.5 * TOL:
                    # Newton has converged from one side: probe past its
                    # estimate so the far end closes the bracket around it.
                    step = np.copysign(max(2.0 * abs(step), 4.0 * abs(np.spacing(x))), step)
                candidate = x + step
                if a < candidate < b:
                    x = candidate
                    continue
            x = 0.5 * (a + b)
        # Newton made no further progress; finish with plain bisection.
        while b - a > TOL:
            x = 0.5 * (a + b)
            fx = func(x)
            if fx == 0.0:
                return x
            if fx > 0.0:
                b = x
            else:
                a = x
    return 0.5 * (a + b)
