"""Release acceptance gate: one test per criterion, one summary line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each reads ``[criterion N] PASS/FAIL — detail``.  Every test prints
its line before asserting, so a failing gate still reports all measurements.
"""

import math
import time

import numpy as np

from fogcache import (
    SimConfig,
    SolverConfig,
    adt_curve,
    adt_slope,
    echr,
    grid_bruteforce,
    heuristic_solve,
    overall_adt,
    placement_from_echr,
    projected_gradient_solve,
    simulate_cluster,
    solve,
)
from fogcache.admm import ConstraintSystem, project_feasible
from fogcache.objective import adt_curvature
from fogcache.queuesim import mm1_sojourn_times

from oracle import fixed_step_projected_gradient, project_placement, qp_projection_oracle

from conftest import (
    ADT_AT_CSL,
    ADT_OPT,
    H_CPL,
    H_CSL,
    LAMBDA_STAR,
    REFERENCE,
    make_scenario,
    random_feasible_placement,
    random_projection_instance,
    random_scenario,
    solved,
    timed_run,
)

def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_three_solvers_agree_on_the_optimum():
    # The shared cross-check run is charged the wall time it took when made.
    pgd, pgd_wall = timed_run(projected_gradient_solve, REFERENCE, SolverConfig())
    start = time.perf_counter()
    admm = solve(make_scenario())
    grid_h, grid_adt = grid_bruteforce(make_scenario(), 1e-5)
    elapsed = time.perf_counter() - start + pgd_wall

    values = {"admm": admm.adt, "pgd": pgd.adt, "grid": grid_adt}
    ratios = {"admm": admm.echr, "pgd": pgd.echr, "grid": grid_h}
    worst_pair = max(abs(a - b) for a in values.values() for b in values.values())
    near_optimum = max(abs(v - ADT_OPT) for v in values.values())
    near_ratio = max(abs(r - H_CPL) for r in ratios.values())
    ok = worst_pair <= 1e-5 and near_optimum <= 1e-5 and near_ratio <= 5e-4 and elapsed < 5.0
    _report(
        1,
        ok,
        f"admm/pgd/grid optima within {worst_pair:.2e} of each other and "
        f"{near_optimum:.2e} of D*={ADT_OPT:.5f} (ECHR within {near_ratio:.1e} "
        f"of {H_CPL:.5f}); {elapsed:.1f}s",
    )


def test_criterion_2_splitting_converges_faster_than_gradient():
    # The claim is against the fixed-step projected gradient, charged the
    # wall time its shared run took when made; the spectral cross-check's
    # counts are printed beside it, not compared.
    pgd, pgd_wall = timed_run(fixed_step_projected_gradient, REFERENCE)
    spg = solved(projected_gradient_solve, REFERENCE, SolverConfig())
    start = time.perf_counter()
    admm = solve(make_scenario())
    elapsed = time.perf_counter() - start + pgd_wall

    rel_gap_at_5 = (admm.trace[4].objective - admm.adt) / admm.adt
    thresholds = (1e-2, 1e-3, 1e-4, 1e-5)

    def first_below(trace, tau):
        return next((rec.k for rec in trace if rec.objective - ADT_OPT <= tau), None)

    ks_admm = [first_below(admm.trace, tau) for tau in thresholds]
    ks_pgd = [first_below(pgd.trace, tau) for tau in thresholds]
    ks_spg = [first_below(spg.trace, tau) for tau in thresholds]
    ladder_ok = all(
        ka is not None and kp is not None and ka < kp for ka, kp in zip(ks_admm, ks_pgd)
    )
    ok = admm.converged and rel_gap_at_5 <= 0.01 and ladder_ok and elapsed < 5.0
    _report(
        2,
        ok,
        f"objective within {rel_gap_at_5:.1e} of optimum by iteration 5; "
        f"iterations to gap {thresholds}: admm {ks_admm} vs fixed-step pgd {ks_pgd} "
        f"(spectral pgd {ks_spg}); {elapsed:.1f}s",
    )


def test_criterion_3_heuristic_switches_regime_at_the_threshold():
    lam_values = (2.5, 3.0, 3.166, 3.5, 4.0)
    results = {lam: heuristic_solve(make_scenario(lam=lam)) for lam in lam_values}
    lambda_star = results[4.0].lambda_star
    regimes = {lam: results[lam].regime for lam in lam_values}
    expected = {lam: "CSL" if lam < lambda_star else "CPL" for lam in lam_values}

    at_threshold = heuristic_solve(make_scenario(lam=lambda_star))
    boundary_gap = abs(at_threshold.h_cpl - at_threshold.h_csl)

    ok = (
        abs(lambda_star - LAMBDA_STAR) <= 1e-12
        and regimes == expected
        and regimes[2.5] == "CSL"
        and regimes[4.0] == "CPL"
        and boundary_gap <= 1e-6
    )
    _report(
        3,
        ok,
        f"lambda* = {lambda_star:.6f}; regimes over lam {lam_values} are "
        f"{[regimes[lam] for lam in lam_values]}; |h_cpl - h_csl| at lambda* "
        f"= {boundary_gap:.1e}",
    )


def test_criterion_4_heuristic_is_near_optimal_on_random_scenarios():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst_vs_grid = 0.0
    for _ in range(100):
        scenario = random_scenario(rng)
        heuristic_adt = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        worst_vs_grid = max(worst_vs_grid, heuristic_adt / grid_bruteforce(scenario, 1e-5)[1])

    rng = np.random.default_rng(20260823)
    worst_vs_admm = 0.0
    for _ in range(10):
        scenario = random_scenario(rng)
        heuristic_adt = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        worst_vs_admm = max(worst_vs_admm, heuristic_adt / solve(scenario).adt)
    elapsed = time.perf_counter() - start

    ok = worst_vs_grid <= 1.02 and worst_vs_admm <= 1.02 and elapsed < 60.0
    _report(
        4,
        ok,
        f"heuristic ADT / optimal ADT at worst {worst_vs_grid:.10f} vs the grid "
        f"oracle (100 scenarios) and {worst_vs_admm:.10f} vs the splitting solver "
        f"(10 scenarios); {elapsed:.1f}s",
    )


def test_criterion_5_maximizing_the_hit_ratio_is_not_optimal():
    reference = make_scenario()
    result = heuristic_solve(reference)
    adt_optimal = overall_adt(result.placement, reference).overall
    storage_bound = placement_from_echr(result.h_csl, reference.library, reference.cluster)
    adt_at_bound = overall_adt(storage_bound, reference).overall

    stressed = make_scenario(lam=5.5)
    stressed_result = heuristic_solve(stressed)
    stressed_optimal = overall_adt(stressed_result.placement, stressed).overall
    stressed_bound = placement_from_echr(
        stressed_result.h_csl, stressed.library, stressed.cluster
    )
    stressed_gap = (overall_adt(stressed_bound, stressed).overall - stressed_optimal) / (
        stressed_optimal
    )

    ok = (
        adt_at_bound > adt_optimal
        and abs(adt_optimal - ADT_OPT) <= 1e-12
        and abs(adt_at_bound - ADT_AT_CSL) <= 1e-12
        and stressed_gap > 0.01
    )
    _report(
        5,
        ok,
        f"ADT at the storage bound {adt_at_bound:.5f} > optimal {adt_optimal:.5f}; "
        f"stressed (lam=5.5) penalty {stressed_gap:.2%} > 1%",
    )


def test_criterion_6_monotone_response_to_rates():
    def optimal_adt(**kwargs):
        scenario = make_scenario(**kwargs)
        return overall_adt(heuristic_solve(scenario).placement, scenario).overall

    mu_b_curve = [optimal_adt(mu_b=mu_b) for mu_b in np.arange(4.5, 7.01, 0.5)]
    lam_curve = [optimal_adt(lam=lam) for lam in (1.0, 2.0, 3.0, 4.0, 5.0)]
    mu_e_curve = [
        heuristic_solve(make_scenario(mu_e=mu_e)).h_star for mu_e in np.arange(6.5, 10.01, 0.5)
    ]

    mu_b_ok = bool(np.all(np.diff(mu_b_curve) < -1e-9))
    lam_ok = bool(np.all(np.diff(lam_curve) > 1e-9))
    mu_e_ok = bool(np.all(np.diff(mu_e_curve) >= -1e-12))
    ok = mu_b_ok and lam_ok and mu_e_ok
    _report(
        6,
        ok,
        f"optimal ADT strictly decreasing in mu_b ({mu_b_curve[0]:.4f} -> "
        f"{mu_b_curve[-1]:.4f}: {mu_b_ok}), strictly increasing in lam "
        f"({lam_curve[0]:.4f} -> {lam_curve[-1]:.4f}: {lam_ok}), optimal ECHR "
        f"non-decreasing in mu_e ({mu_e_curve[0]:.4f} -> {mu_e_curve[-1]:.4f}: {mu_e_ok})",
    )


def test_criterion_7_gradient_and_convexity_properties():
    rng = np.random.default_rng(7042)
    count = rejections = 0
    worst_rel = 0.0
    curvature_ok = True
    while count < 100:
        scenario = random_scenario(rng)
        placement = random_feasible_placement(rng, scenario.library, scenario.cluster)
        h = float(echr(placement, scenario.library))
        slope = float(adt_slope(h, scenario.traffic))
        # A relative-error check needs a usable denominator: skip the rare
        # draw that lands next to the flat point or an endpoint.
        if not 1e-3 < h < 0.999 or abs(slope) < 5e-3:
            rejections += 1
            continue
        # D reaches entry j = i * F + f only through h: its partial there
        # is D'(h) * popularity[f].
        j = int(rng.integers(scenario.cluster.node_count * scenario.library.count))
        f = j % scenario.library.count
        pf = float(scenario.library.popularity[f])
        partial = slope * pf
        e = 5e-6
        fd = (
            float(adt_curve(h + e * pf, scenario.traffic))
            - float(adt_curve(h - e * pf, scenario.traffic))
        ) / (2 * e * pf)
        reference = partial / pf
        worst_rel = max(worst_rel, abs(fd - reference) / abs(reference))
        curvature_ok = curvature_ok and float(adt_curvature(h, scenario.traffic)) > 0.0
        count += 1

    rng = np.random.default_rng(7043)
    jensen_violations = 0
    for _ in range(1000):
        scenario = random_scenario(rng)
        a, b = np.sort(rng.uniform(0.0, 0.999, size=2))
        t = float(rng.uniform(0.05, 0.95))
        lhs = float(adt_curve(t * a + (1 - t) * b, scenario.traffic))
        rhs = t * float(adt_curve(a, scenario.traffic)) + (1 - t) * float(
            adt_curve(b, scenario.traffic)
        )
        if lhs > rhs + 1e-12:
            jensen_violations += 1

    ok = worst_rel < 1e-6 and curvature_ok and jensen_violations == 0
    _report(
        7,
        ok,
        f"gradient vs central differences worst rel. error {worst_rel:.2e} over "
        f"100 feasible points ({rejections} redraws); second derivative positive "
        f"everywhere sampled: {curvature_ok}; Jensen violations 0 of 1000: "
        f"{jensen_violations == 0}",
    )


def test_criterion_8_projection_matches_the_quadratic_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(8088)
    worst_match = worst_idempotence = worst_feasibility = 0.0
    for _ in range(200):
        x, library, cluster = random_projection_instance(rng)
        sizes = library.sizes
        pooled = ConstraintSystem.build(library, cluster)
        # The N x F projection on the query, and the pooled one on its first
        # row, read as the totals of a one-node placement.
        for project, x, capacities in (
            (lambda y: project_placement(y, sizes, cluster.capacities), x, cluster.capacities),
            (lambda y: project_feasible(y, pooled), x[0], [pooled.capacity]),
        ):
            z = project(x)
            oracle = qp_projection_oracle(x, sizes, capacities)
            worst_match = max(worst_match, float(np.max(np.abs(z - oracle))))
            again = project(z)
            worst_idempotence = max(worst_idempotence, float(np.max(np.abs(again - z))))
            rows = z.reshape(-1, library.count)
            violation = max(
                float(np.max(-rows, initial=0.0)),
                float(np.max(rows - 1.0, initial=0.0)),
                float(np.max(rows.sum(axis=0) - 1.0, initial=0.0)),
                float(np.max(rows @ sizes - capacities, initial=0.0)),
            )
            worst_feasibility = max(worst_feasibility, violation)
    elapsed = time.perf_counter() - start

    ok = worst_match <= 1e-6 and worst_idempotence <= 1e-8 and worst_feasibility <= 1e-8
    _report(
        8,
        ok,
        f"N x F and pooled projections vs oracle within {worst_match:.2e} "
        f"on 200 instances each; idempotent within {worst_idempotence:.2e}; "
        f"feasible within {worst_feasibility:.2e}; {elapsed:.1f}s",
    )


#: Criterion 9 replicates each of its 23 means 50 times, each replication
#: 4e4 arrivals per queue; ``_C9_T`` is the Student-t quantile of 49
#: degrees of freedom at the two-sided level 1% / 23, so by Bonferroni a
#: correct simulator fails it with probability at most 1%.
_C9_REPLICATIONS = 50
_C9_ARRIVALS = 40_000
_C9_T = 3.7736


def _replication_bound(means, analytic):
    """``|mean - analytic|`` over the Student-t half-width of ``means``, the
    independent replications of one estimate: at most 1 passes."""
    half = _C9_T * float(np.std(means, ddof=1)) / math.sqrt(len(means))
    return abs(float(np.mean(means)) - analytic) / half


def criterion_9_checks(seed_set=0):
    """The largest deviation in half-widths (see :func:`_replication_bound`)
    and the largest relative error, over the 20 random queues and over the
    3 stations of the reference scenario at the heuristic's placement.

    Replication ``r`` of queue ``i`` draws from ``default_rng([seed_set, i,
    r])`` and the stations' from ``SimConfig(seed=50 * seed_set + r)``, so
    that seed sets are disjoint.
    """
    rng = np.random.default_rng(12345)
    worst, worst_relative = 0.0, 0.0
    for i in range(20):
        mu = float(rng.uniform(2.0, 10.0))
        lam = float(rng.uniform(0.2, 0.85)) * mu
        means = [
            mm1_sojourn_times(lam, mu, _C9_ARRIVALS, np.random.default_rng([seed_set, i, r]))[0]
            for r in range(_C9_REPLICATIONS)
        ]
        analytic = 1.0 / (mu - lam)
        worst = max(worst, _replication_bound(means, analytic))
        worst_relative = max(worst_relative, abs(np.mean(means) - analytic) / analytic)

    reference = make_scenario()
    report = overall_adt(heuristic_solve(reference).placement, reference)
    runs = [
        simulate_cluster(
            report.h_e,
            reference.traffic,
            SimConfig(seed=_C9_REPLICATIONS * seed_set + r, n_arrivals=_C9_ARRIVALS),
        )
        for r in range(_C9_REPLICATIONS)
    ]
    for station, analytic in enumerate(report.per_station):
        means = [run[station].mean_adt for run in runs]
        worst = max(worst, _replication_bound(means, analytic))
        worst_relative = max(worst_relative, abs(np.mean(means) - analytic) / analytic)
    return worst, float(worst_relative)


def test_criterion_9_simulator_reproduces_the_analytic_means():
    # The 20 queues reach utilisation 0.85.  Over 400 disjoint seed sets a
    # correct kernel failed 6 (1.5%, against the design's 1%); one whose
    # services run 1% long failed all 60.
    start = time.perf_counter()
    worst, worst_relative = criterion_9_checks()
    elapsed = time.perf_counter() - start

    ok = worst <= 1.0 and elapsed < 30.0
    _report(
        9,
        ok,
        f"20 random queues and the optimal-placement stations within {worst:.2f} "
        f"of their Bonferroni t half-widths (family level 1%) of the analytic "
        f"means, and within {worst_relative:.2%} of them, over 50 replications "
        f"of 4e4 arrivals; {elapsed:.1f}s",
    )
