"""Tests for the safeguarded scalar root finder."""

import pytest

from fogcache._roots import increasing_root
from fogcache.errors import NumericalError


def test_closes_the_bracket_once_newton_converges():
    # A residual shaped like the one in the splitting solver's p-update.  Its
    # Newton iterates reach the root from one side, and the last Newton step
    # falls below one ulp, so the far end of the bracket must be closed by a
    # probe just past the root rather than by dozens of bisections.
    def residual(h):
        points.append(h)
        return h - 0.073 + 1.694 * (1.0 / (2.0 - h) ** 2 - 1.0 / (1.5 + h) ** 2)

    def slope(h):
        return 1.0 + 1.694 * (2.0 / (2.0 - h) ** 3 + 2.0 / (1.5 + h) ** 3)

    points = []
    root = increasing_root(residual, slope, -1.5, 2.0)
    assert len(points) <= 12
    assert residual(root - 1e-12) < 0.0 < residual(root + 1e-12)
    assert abs(residual(root)) <= 1e-15


def test_raises_when_no_sign_change_exists():
    with pytest.raises(NumericalError, match="no negative value"):
        increasing_root(lambda x: x + 10.0, lambda x: 1.0, -1.0, 1.0)
