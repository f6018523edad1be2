"""Check the analytic download-time model against a discrete-event simulator.

The objective rests on M/M/1 sojourn-time formulas; the simulator makes no
use of them — it draws exponential arrivals and services, runs the waiting
recursion, and averages what it sees.  Agreement between the two is evidence
the closed-form model describes the system it claims to.

The single queue runs through ``fogcache.queuesim.mm1_sojourn_times``, the
simulator's kernel, with a numpy ``Generator`` seeded here; the cluster runs
through ``simulate_cluster``, which seeds each station's queues itself.
"""

import numpy as np

from fogcache import (
    ContentLibrary,
    FogCluster,
    Scenario,
    SimConfig,
    TrafficProfile,
    simulate_cluster,
    solve,
)
from fogcache.queuesim import mm1_sojourn_times


def main():
    # Plain M/M/1 first: the textbook mean sojourn time is 1/(mu - lambda).
    lam, mu = 4.0, 6.0
    rng = np.random.default_rng(np.random.SeedSequence(42))
    mean, ci = mm1_sojourn_times(lam, mu, 200_000, rng)
    analytic = 1.0 / (mu - lam)
    print(f"M/M/1 with lambda={lam}, mu={mu}:")
    print(f"  simulated mean sojourn {mean:.5f} +/- {ci:.5f}")
    print(f"  analytic  mean sojourn {analytic:.5f}")
    print(f"  relative error {abs(mean - analytic) / analytic:.2%}\n")

    # Now the full cluster at the solver's optimal placement.
    library = ContentLibrary.zipf(20, 0.6)
    cluster = FogCluster([2.0, 3.0, 5.0])
    traffic = TrafficProfile([4.0] * 3, [8.0] * 3, [6.0] * 3)
    scenario = Scenario(library, cluster, traffic)

    solution = solve(scenario)
    print(f"Optimal placement: hit ratio {solution.echr:.5f}, analytic ADT {solution.adt:.6f}")

    config = SimConfig(seed=7, n_arrivals=200_000)
    print(f"\nSimulating each station ({config.n_arrivals:,} arrivals, seed {config.seed}):")
    print(f"  {'station':>7}  {'simulated':>10}  {'analytic':>9}  {'rel err':>8}")
    # The simulator sees the placement only through its hit ratio.
    for station, sim in enumerate(simulate_cluster(solution.echr, traffic, config)):
        analytic = solution.adt  # identical stations share one download time
        err = abs(sim.mean_adt - analytic) / analytic
        print(f"  {station + 1:>7}  {sim.mean_adt:10.6f}  {analytic:9.6f}  {err:8.2%}")

    # Reproducibility: the same seed replays the same random streams exactly.
    first = simulate_cluster(solution.echr, traffic, config)
    second = simulate_cluster(solution.echr, traffic, config)
    print(f"\nSame seed, same numbers, bit for bit: {first == second}")


if __name__ == "__main__":
    main()
