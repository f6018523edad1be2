"""Calibration probe: a fixed amount of work, independent of fogcache.

The benchmark runs this as its own process before every operation and
divides the operations' times by the probe's, so a change in the host's speed
during or between runs (other tenants on a shared machine) cancels out.  The
work mixes what the operations do: interpreter start and ``import numpy``,
a loop of small-array numpy calls, a JSON dump of a float list, and passes
over large arrays.
"""

import json

import numpy as np

matrix = np.linspace(-1.0, 2.0, 60).reshape(3, 20)
for step in range(3000):
    clipped = np.clip(matrix + 1e-4 * step, 0.0, 1.0)
    matrix = matrix - 0.5 * (clipped.sum(axis=0) - 1.0) / 3.0
json.dumps(np.linspace(0.0, 1.0, 100_000).tolist())
draws = np.random.default_rng(0).random(1_000_000)
np.maximum.accumulate(np.cumsum(draws) - draws)
