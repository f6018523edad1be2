"""Build a scenario by hand and evaluate a few placements.

Shows the three model pieces (content library, fog cluster, traffic), the
hit-ratio window the stability chain guarantees, and how the download-time
report reacts as the cache fills up.
"""

import numpy as np

from fogcache import (
    ContentLibrary,
    FogCluster,
    Placement,
    Scenario,
    TrafficProfile,
    echr_csl,
    overall_adt,
    placement_from_echr,
)
from fogcache.objective import stable_echr_interval


def main():
    library = ContentLibrary.zipf(20, 0.6)
    cluster = FogCluster([2.0, 3.0, 5.0])
    traffic = TrafficProfile([4.0] * 3, [8.0] * 3, [6.0] * 3)
    scenario = Scenario(library, cluster, traffic)

    print("Content library: 20 contents, Zipf exponent 0.6")
    print("  top five popularities:", np.round(library.popularity[:5], 4))
    print(f"  total storage: {cluster.total_capacity:g} units across {cluster.node_count} nodes")

    lo, hi = stable_echr_interval(traffic)
    print(f"\nBoth queues stay stable for any hit ratio in ({lo:g}, {hi:g});")
    print("the physical range [0, 1] sits strictly inside it.")

    # The storage bound caps how high the hit ratio can go at all.
    h_max = echr_csl(library, cluster)
    print(f"With 10 units of storage the hit ratio tops out at {h_max:.4f}.")

    print("\nDownload time as the cache fills (popularity-first placements):")
    print(f"  {'target h':>9}  {'realized h':>10}  {'ADT':>9}")
    for target in (0.0, 0.3, 0.5, 0.66, h_max):
        placement = placement_from_echr(min(target, h_max), library, cluster)
        report = overall_adt(placement, scenario)
        print(f"  {target:9.4f}  {report.h_e:10.4f}  {report.overall:9.6f}")

    print("\nNote the sweet spot near h = 0.66: past it the edge queue congests")
    print("and the average download time turns back up.")

    # A placement can also be given explicitly, one row per node.
    matrix = np.zeros((3, 20))
    matrix[0, :2] = 1.0   # node 1 pins the two most popular contents
    matrix[1, 2:5] = 1.0  # node 2 the next three
    report = overall_adt(Placement(matrix), scenario)
    print(f"\nHand placement caching ranks 1-5 whole: h = {report.h_e:.4f}, "
          f"ADT = {report.overall:.6f}")


if __name__ == "__main__":
    main()
