"""Measure a baseline results file from independent sets of seeded runs.

Usage (from the root of a fogcache checkout)::

    python3 bench/baseline.py --out bench/results/BENCH_baseline.json

In each of two sets, every workload runs once per seed with ``--trace 0``
(seeds 1-10, then 11-20); one ``--trace 1`` run per workload follows the
sets.  For every end-to-end metric the file records each set's values,
median, quartiles and spread (interquartile range over median), and whether
the spread stays within a third of the metric's bound and the second set's
median within the bound of the first, and whether both sets attempted and
failed the same number of operations.  Beside the reported ``setup_s`` and
``batch_s``, in reference seconds, it records the same figures in raw wall
seconds, so that the spreads with and without the probe scaling compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2
SEEDS_PER_SET = 10
RAW = ("setup_s", "batch_s")
NOTES = [
    "Timings are wall times of whole CLI processes (python -m fogcache.cli) on the machine "
    "in 'context', one operation at a time, with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, "
    "reported in reference seconds: each process's wall time scaled by 0.35 s over the wall "
    "time of the calibration probe (bench/probe.py) run just before it, which cancels the "
    "host's speed drift.  'raw' holds the same figures in wall seconds.",
    "The ladder solves at CLI defaults (ADMM rho=1.0).  The roadmap's re-anchor figures were "
    "taken in-process at rho=0.02 (ADMM 1.29 s / 82 iterations at F=20,N=3; 4.7 s / 288 at "
    "200,3; 0.08 s / 23 at 1000,10; 0.25 s / 19 at 2000,20), so they are not comparable "
    "with solve_s.* here; at rho=1.0 the roadmap gives 3.6 s / 510 iterations for F=20,N=3.",
    "The ladder's f200n3 rung reaches the 1000-iteration cap at rho=1.0 and exits 1 with a "
    "gap above 1e-4: it counts as a failed operation in every ladder round (ok_ratio 0.8).",
]


def run_once(root, workload, seed, seconds, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    results_file = root / ".benchrun" / f"results-{workload}-seed{seed}-trace{trace}.json"
    with open(results_file) as handle:
        results = json.load(handle)
    return result, results["context"], {name: results[f"raw_{name}"] for name in RAW}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets = []
    context = None
    for set_index in range(SETS):
        seeds = range(1 + set_index * SEEDS_PER_SET, 1 + (set_index + 1) * SEEDS_PER_SET)
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                result, context, raw = run_once(root, name, seed, seconds, 0)
                runs[name].append({"seed": seed, **result, "raw": raw})
                print(f"set {set_index + 1} {name} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + ", raw " + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()),
                      flush=True)
        sets.append(runs)

    workloads = {}
    verdict = True
    for name in names:
        entry = {"sets": [], "traced": None}
        for runs in sets:
            metrics = {}
            for metric in spec["end_to_end"]:
                values = [run["metrics"][metric["name"]]["value"] for run in runs[name]]
                metrics[metric["name"]] = summarize(values)
            entry["sets"].append({
                "seeds": [run["seed"] for run in runs[name]],
                "attempted": sum(run["attempted"] for run in runs[name]),
                "failed": sum(run["failed"] for run in runs[name]),
                "correct": all(run["correct"] for run in runs[name]),
                "metrics": metrics,
                "raw": {raw: summarize([run["raw"][raw] for run in runs[name]]) for raw in RAW},
            })
        checks = {}
        for metric in spec["end_to_end"]:
            first, second = (s["metrics"][metric["name"]] for s in entry["sets"])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            shift = sign * (second["median"] - first["median"]) / first["median"]
            spread = max(first["spread"], second["spread"])
            checks[metric["name"]] = {
                "bound": metric["bound"],
                "max_spread": spread,
                "median_shift": shift,
                "ok": spread <= metric["bound"] / 3 and shift <= metric["bound"],
            }
            if metric["name"] in RAW:
                checks[metric["name"]]["raw_max_spread"] = max(
                    s["raw"][metric["name"]]["spread"] for s in entry["sets"]
                )
            verdict = verdict and checks[metric["name"]]["ok"]
        counts = [(s["attempted"], s["failed"]) for s in entry["sets"]]
        checks["operations"] = {"attempted_failed": counts, "ok": len(set(counts)) == 1}
        verdict = verdict and checks["operations"]["ok"]
        entry["checks"] = checks
        traced, _, _ = run_once(root, name, 0, seconds, 1)
        entry["traced"] = {"seed": 0, **traced}
        workloads[name] = entry
        print(f"{name:9s} attempted/failed per set {counts} "
              f"{'ok' if checks['operations']['ok'] else 'DISAGREE'}", flush=True)
        for metric, check in checks.items():
            if metric == "operations":
                continue
            raw = f" (raw {check['raw_max_spread']:.4f})" if "raw_max_spread" in check else ""
            print(f"{name:9s} {metric:12s} spread {check['max_spread']:.4f}{raw} "
                  f"shift {check['median_shift']:+.4f} bound {check['bound']} "
                  f"{'ok' if check['ok'] else 'NOT STEADY'}", flush=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"context": dict(context, seed="per run, see sets"), "run_seconds": seconds,
                   "notes": NOTES, "steady": verdict, "workloads": workloads}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}; steady={verdict}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
