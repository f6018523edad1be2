"""Safeguarded scalar root finding for functions that cross zero once upward."""

import itertools

import numpy as np

from .errors import NumericalError

TOL = 1e-12  # absolute tolerance on the final bracket width
MAX_ITER = 200  # safeguarded Newton steps before plain bisection takes over


def increasing_root(func, lo, hi):
    """Root of a function on the open interval ``(lo, hi)``.

    ``func(x)`` returns the function's value and slope at ``x``.  The value
    must change sign once there: negative near ``lo``, positive near
    ``hi``.  It need not be monotone, and it may diverge at either end, so
    neither end is ever evaluated: the sign bracket starts as ``(lo, hi)``
    itself.  One loop shrinks it (Numerical Recipes, section 9.4,
    ``rtsafe``, whose one ``funcd`` callback also returns both): each step
    takes the Newton step when the slope is positive and the step lands
    inside the bracket, and bisects otherwise; after :data:`MAX_ITER` steps
    it only bisects.  A Newton step shorter than half the tolerance is
    doubled (to at least a few ulps), so the next point lands just past the
    root and closes the bracket around it.  The loop stops once the bracket
    is narrower than ``max(TOL, 4 * spacing(x))`` at the last point ``x``:
    :data:`TOL` for every root below about 1,000, a few ulps above.  If the
    bracket closes on ``lo`` or ``hi``, no value of the needed sign exists
    and :class:`NumericalError` is raised.
    """
    if not hi > lo:
        raise ValueError("empty interval (%g, %g)" % (lo, hi))
    a, b, x = lo, hi, 0.5 * (lo + hi)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in itertools.count():
            fx, slope = func(x)
            if fx == 0.0:
                return x
            if fx > 0.0:
                b = x
            else:
                a = x
            ulps = 4.0 * abs(np.spacing(x))
            tol = max(TOL, ulps)
            if b - a <= tol:
                break
            if k < MAX_ITER and np.isfinite(fx) and np.isfinite(slope) and slope > 0.0:
                step = -fx / slope
                if abs(step) < 0.5 * tol:
                    step = np.copysign(max(2.0 * abs(step), ulps), step)
                if a < x + step < b:
                    x += step
                    continue
            x = 0.5 * (a + b)
    if a == lo or b == hi:
        raise NumericalError(
            "failed to bracket a root on (%g, %g): no %s value found"
            % (lo, hi, "negative" if a == lo else "positive")
        )
    return 0.5 * (a + b)
