"""Race the consensus splitting solver against projected gradient descent.

Both minimize the same convex download-time objective over the same feasible
set, so they must land on the same value; the interesting part is how fast.
The splitting solver's closed-form sub-steps take large, well-scaled moves;
the spectral projected gradient scales each step by the Barzilai–Borwein
rule, and here needs fewer iterations.  Both run at one config, the default
``SolverConfig``: the same stopping test, tolerance and iteration cap.  The
heuristic gives the exact optimum, and every gap below is measured against
it.

Pass ``--plot`` to also save ``convergence.png`` (needs matplotlib).
"""

import argparse

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SolverConfig,
    TrafficProfile,
    heuristic_solve,
    overall_adt,
    projected_gradient_solve,
    solve,
)


def make_scenario():
    library = ContentLibrary.zipf(20, 0.6)
    cluster = FogCluster([2.0, 3.0, 5.0])
    traffic = TrafficProfile([4.0] * 3, [8.0] * 3, [6.0] * 3)
    return Scenario(library, cluster, traffic)


def first_within(trace, exact, rel):
    """Iteration count at which the objective first comes within rel of exact."""
    for record in trace:
        if record.objective <= exact * (1.0 + rel):
            return record.k
    return None


def main():
    parser = argparse.ArgumentParser(description="race the two solvers")
    parser.add_argument("--plot", action="store_true", help="save convergence.png")
    args = parser.parse_args()

    scenario = make_scenario()

    heuristic = heuristic_solve(scenario)
    exact = overall_adt(heuristic.placement, scenario).overall
    print(f"Exact optimum:         h = {heuristic.h_star:.5f}, ADT = {exact:.9f}")

    config = SolverConfig()
    admm = solve(scenario, config)
    print(f"Splitting solver:      ADT = {admm.adt:.9f} after {admm.iterations} iterations")

    pgd = projected_gradient_solve(scenario, config)
    print(f"Projected gradient:    ADT = {pgd.adt:.9f} after {pgd.iterations} iterations")

    print("\nIterations until the objective sits within a relative gap of the optimum:")
    print(f"  {'gap':>6}  {'splitting':>9}  {'gradient':>9}")
    for rel in (1e-2, 1e-3, 1e-4, 1e-5):
        k_admm = first_within(admm.trace, exact, rel)
        k_pgd = first_within(pgd.trace, exact, rel)
        print(f"  {rel:6.0e}  {k_admm!s:>9}  {k_pgd!s:>9}")

    if args.plot:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("\nmatplotlib is not installed; skipping the plot")
            return
        fig, ax = plt.subplots(figsize=(6.0, 4.0))
        for result, label in ((admm, "splitting solver"), (pgd, "projected gradient")):
            gaps = [max(record.objective - exact, 1e-14) for record in result.trace]
            ax.semilogy([record.k for record in result.trace], gaps, label=label)
        ax.set_xlabel("iteration")
        ax.set_ylabel("objective gap to optimum")
        ax.legend()
        fig.tight_layout()
        fig.savefig("convergence.png", dpi=150)
        print("\nwrote convergence.png")


if __name__ == "__main__":
    main()
