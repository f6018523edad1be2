"""The larger probe: the certificate and order-invariance tests on 400 cases.

Tier-1 runs ``tests/test_certificates.py`` and
``tests/test_order_invariance.py`` on the 50 seeded cases of
:func:`conftest.probe_cases`.  This module collects the same test functions
again, with the same assertions, on the first 400 cases of the same seeded
sequence, which start with those 50.  The certificate tests run on the 400
cases of seed 8 as well, a sequence that no solver setting was chosen on.
Every test here carries the ``probe`` marker, which the pytest
configuration deselects by default; run them with

    PYTHONPATH=src python -m pytest -m probe

A case that fails here is not dropped by a new seed or count: it becomes a
strict xfail that names it.
"""

import pytest

from conftest import probe_cases
from test_certificates import (  # noqa: F401  (collected here again)
    test_converged_certifies_the_relative_gap,
    test_h_star_meets_its_optimality_conditions,
    test_heuristic_placement_is_feasible_and_realizes_h_star,
    test_no_run_beats_the_optimum,
    test_projected_gradient_gap_bounds_the_true_gap,
    test_projected_gradient_objective_never_rises,
    test_threshold_is_the_lowest_crossing,
    with_optimum,
)
from test_order_invariance import (  # noqa: F401  (collected here again)
    test_heuristic_ignores_content_order,
    test_optimal_adt_ignores_content_order,
    test_optimal_adt_ignores_node_order,
)

pytestmark = pytest.mark.probe

COUNT = 400


@pytest.fixture(scope="module")
def probe_scenarios():
    return probe_cases(count=COUNT)


@pytest.fixture(scope="module", params=(7, 8), ids=lambda seed: f"seed{seed}")
def cases(request):
    return with_optimum(probe_cases(seed=request.param, count=COUNT))
