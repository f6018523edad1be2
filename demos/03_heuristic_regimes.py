"""The two regimes of the heuristic, and the switch between them.

At low load the best policy is simply "cache as much as fits" — the storage
bound h_csl binds.  As the arrival rate grows, the edge queue becomes the
bottleneck and the optimum retreats to the stationary point h_cpl of the
download-time curve, which keeps dropping as load rises.  The heuristic
finds the crossover arrival rate lambda_star by a sweep over the load,
and its h* = min(h_csl, h_cpl) is the exact optimum for any content sizes.
"""

import numpy as np

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    TrafficProfile,
    heuristic_solve,
    overall_adt,
    solve,
)

LIBRARY = ContentLibrary.zipf(20, 0.6)
CLUSTER = FogCluster([2.0, 3.0, 5.0])


def scenario_at(lam):
    traffic = TrafficProfile([lam] * 3, [8.0] * 3, [6.0] * 3)
    return Scenario(LIBRARY, CLUSTER, traffic)


def main():
    probe = heuristic_solve(scenario_at(2.0))
    print(f"Storage bound h_csl = {probe.h_csl:.6f} (independent of load)")
    print(f"Regime switch at lambda* = {probe.lambda_star:.6f}\n")

    print(f"  {'lambda':>7}  {'h_cpl':>8}  {'h*':>8}  {'regime':>6}  {'ADT':>9}")
    for lam in np.linspace(2.0, 5.0, 13):
        result = heuristic_solve(scenario_at(lam))
        adt = overall_adt(result.placement, scenario_at(lam)).overall
        marker = " <- switch passed" if abs(lam - probe.lambda_star) < 0.125 else ""
        print(
            f"  {lam:7.2f}  {result.h_cpl:8.5f}  {result.h_star:8.5f}"
            f"  {result.regime:>6}  {adt:9.6f}{marker}"
        )

    print("\nBelow lambda* the cache is the limit (h* = h_csl, constant);")
    print("above it congestion is (h* = h_cpl, falling with load).")

    # The heuristic is not an approximation here: the full solver, run to a
    # tight tolerance, lands on the same value in both regimes.
    tight = SolverConfig(tol=1e-10, max_iter=5000)
    for lam in (2.5, 4.0):
        scenario = scenario_at(lam)
        heuristic_adt = overall_adt(heuristic_solve(scenario).placement, scenario).overall
        solver_adt = solve(scenario, tight).adt
        print(
            f"\nlambda = {lam}: heuristic ADT {heuristic_adt:.9f}"
            f" vs solver ADT {solver_adt:.9f}"
            f" (difference {abs(heuristic_adt - solver_adt):.2e})"
        )


if __name__ == "__main__":
    main()
