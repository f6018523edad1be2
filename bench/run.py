"""fogcache benchmark: run one workload of CLI operations and report metrics.

Usage (from the root of a fogcache checkout)::

    python3 bench/run.py --workload ladder|catalog|simulate --seed N \
        --seconds S --trace 0|1

One driver process runs the workload's operations one at a time (closed
loop, one client).  Each operation is a fresh ``python -m fogcache.cli``
process with ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, timed from spawn to
exit, and its outputs are checked against ``reference.py``, which does not
import fogcache.  The operations run in list order, in whole rounds; the
number of rounds is ``--seconds`` over the workload's nominal round time
(``Workload.round_s``), at least one.  It is fixed, not timed, so that every
run with the same ``--seconds`` makes the same operations and its
``attempted`` and ``failed`` counts do not depend on the host's speed.

Every reported time is in reference seconds: each process's wall time
multiplied by ``PROBE_REFERENCE_S`` over the wall time of ``probe.py``, a
fixed fogcache-independent process run just before it.  On a shared host
the machine's speed drifts by a fifth within minutes; the drift slows the
probe and the process after it alike and cancels in the ratio.  The raw wall
times are kept in the results file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice in a row, untraced and traced (under ``traced_cli.py``), the
order alternating, in half as many rounds, and reports the per-layer
metrics, computed from the spans of the traced rounds, plus the untraced
per-operation times and the tracing overhead.

Inputs, outputs, a results file with the machine and run context, and the
spans of traced runs go to ``.benchrun/`` in the checkout.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference
from layers import RoundTotals, round_metrics
from workloads import LADDER_RUNGS, WORKLOADS, rung_name

BENCH_DIR = Path(__file__).resolve().parent
#: Thread pinning for every fogcache process: one core for the operation,
#: one for this driver.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 11
#: The probe's median wall time on the machine the baseline was measured on
#: (2-vCPU Xeon VM): the speed that reference seconds refer to.
PROBE_REFERENCE_S = 0.35
#: Operations still running this long after the run started are killed (and
#: fail), and no round starts after half of it, so a run ends well within
#: three minutes even on a host far slower than the nominal round times.
RUN_DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "admm.project_feasible.calls": "count",
    "admm.project_feasible.self_s": "s",
    "admm.dykstra_cycles.mean": "count",
    "admm.dykstra_cycles.max": "count",
    "admm.p_update.self_s": "s",
    "admm.solve.self_s": "s",
    **{f"admm.iterations.{rung_name(*r)}": "count" for r in LADDER_RUNGS},
    **{f"admm.gap_rel.{rung_name(*r)}": "ratio" for r in LADDER_RUNGS},
    "admm.ConstraintSystem.build.self_s": "s",
    "admm.constraint_bytes": "B",
    "roots.increasing_root.calls": "count",
    "roots.increasing_root.self_s": "s",
    "roots.evals_per_call.mean": "count",
    "objective.adt_slope.calls": "count",
    "objective.adt_curvature.calls": "count",
    "objective.eval.self_s": "s",
    "baselines.projected_gradient_solve.iterations": "count",
    "baselines.project_calls": "count",
    "baselines.armijo_accept_ratio": "ratio",
    "baselines.self_s": "s",
    "heuristic.heuristic_solve.self_s": "s",
    "heuristic.echr_csl.self_s": "s",
    "heuristic.placement_from_echr.self_s": "s",
    "objective.overall_adt.self_s": "s",
    "model.validate_placement.self_s": "s",
    "cli.self_s": "s",
    "queuesim.mm1_sojourn_times.calls": "count",
    "queuesim.mm1_sojourn_times.self_s": "s",
    "queuesim.arrivals_per_s": "1/s",
    "queuesim.bytes_computed": "B",
    "queuesim.simulate_station.self_s": "s",
    "queuesim.rel_error.max": "ratio",
    "model.Scenario.load.self_s": "s",
    **{f"solve_s.{rung_name(*r)}": "s" for r in LADDER_RUNGS},
    f"pgd_s.{rung_name(*LADDER_RUNGS[0])}": "s",
    "failed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

SETUP_SCRIPT = """
import sys
import fogcache
from fogcache.cli import SweepSpec
for kind, path in (arg.split(":", 1) for arg in sys.argv[1:]):
    if kind == "sweep":
        path = SweepSpec.load(path).base
    fogcache.validate_scenario(fogcache.Scenario.load(path))
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def spawn(argv, cwd, env, stdout_path, timeout):
    """Run ``argv`` to completion: ``(exit_code, wall_s, cpu_s, maxrss_mb)``."""
    with open(stdout_path, "w") as out, open(f"{stdout_path}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Run:
    def __init__(self, root, workload, seed, trace):
        self.workload = workload
        self.trace = trace
        self.dir = root / ".benchrun" / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.inputs = self.dir / "inputs"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
        self.started = time.perf_counter()
        self.problems = {}
        self.first_outputs = {}
        self.op_count = 0
        self.spans = []

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        for name, document in self.workload.files.items():
            with open(self.inputs / name, "w") as handle:
                json.dump(document, handle)
        for op in self.workload.ops:
            scenario = op.inputs["scenario"]
            if scenario not in self.problems:
                self.problems[scenario] = reference.Problem.from_dict(
                    self.workload.files[scenario]
                )

    def remaining(self):
        """Seconds left until the run's deadline."""
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def probe(self, out_path, timeout):
        """Wall time of one run of the calibration probe."""
        code, wall, _, _ = spawn(
            [sys.executable, str(BENCH_DIR / "probe.py")], self.inputs, self.env, out_path, timeout
        )
        if code != 0:
            raise BenchError(f"calibration probe failed (exit {code})")
        return wall

    def setup_seconds(self):
        """Median time of a fresh process that imports fogcache and loads and
        validates every scenario file (after one warm-up run): ``(reference
        seconds, raw wall seconds)``."""
        argv = [sys.executable, "-c", SETUP_SCRIPT]
        argv += [f"scenario:{name}" for name in self.workload.scenarios]
        argv += [f"sweep:{name}" for name in self.workload.sweeps]
        scaled, raw = [], []
        for repeat in range(SETUP_REPEATS + 1):
            probe_s = self.probe(self.dir / "setup.probe", 60.0)
            code, wall, _, _ = spawn(argv, self.inputs, self.env, self.dir / "setup.out", 60.0)
            if code != 0:
                error = (self.dir / "setup.out.err").read_text()
                raise BenchError(f"set-up process failed (exit {code}):\n{error}")
            if repeat:
                scaled.append(wall * PROBE_REFERENCE_S / probe_s)
                raw.append(wall)
        return statistics.median(scaled), statistics.median(raw)

    def run_op(self, op, round_index, traced):
        out_dir = self.dir / "ops" / f"{round_index}-{op.name}-{'traced' if traced else 'plain'}"
        out_dir.mkdir(parents=True)
        argv = [arg.replace("{dir}", str(out_dir)) for arg in op.argv]
        spans_path = out_dir / "spans.json"
        if traced:
            command = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path)]
        else:
            command = [sys.executable, "-m", "fogcache.cli"]
        probe_s = self.probe(out_dir / "probe", self.remaining())
        spawned = time.perf_counter()
        code, wall, cpu, rss = spawn(
            command + argv, self.inputs, self.env, out_dir / "stdout", self.remaining()
        )
        reasons, silent, facts = self.check(op, code, out_dir)
        record = {
            "op": op.name, "round": round_index, "traced": traced, "exit": code,
            "wall_s": wall, "cpu_s": cpu, "probe_s": probe_s,
            "scaled_s": wall * PROBE_REFERENCE_S / probe_s, "rss_mb": rss,
            "reasons": reasons, "silent": silent,
            "facts": facts,
        }
        if traced:
            record["spans"] = self.load_spans(spans_path, spawned, wall, self.op_count)
        self.op_count += 1
        shutil.rmtree(out_dir)
        return record

    def load_spans(self, path, spawned, wall, op_id):
        """Read one traced process's spans and append them, under a root span
        for the whole operation, to the run's span list."""
        try:
            with open(path) as handle:
                spans = json.load(handle)["spans"]
        except (OSError, ValueError, KeyError):
            spans = []
        root = len(self.spans)
        self.spans.append([op_id, "op", spawned, spawned + wall, -1, None])
        self.spans += [
            [op_id, name, start, end, root + 1 + parent if parent >= 0 else root, counts]
            for name, start, end, parent, counts in spans
        ]
        return spans

    def check(self, op, code, out_dir):
        """``(reasons, silent, facts)`` for one operation's outputs."""
        problem = self.problems[op.inputs["scenario"]]
        facts = {}
        if op.check == "solve":
            reasons, silent = reference.check_solve(code, out_dir, problem)
            try:
                with open(out_dir / "report.json") as handle:
                    report = json.load(handle)
                with open(out_dir / "trace.csv") as handle:
                    # One row per iteration run after the header; an
                    # unconverged report's "iterations" is its best iterate.
                    iterations = sum(1 for _ in handle) - 1
                adt_star = problem.optimum()[3]
                facts = {
                    "iterations": iterations,
                    "gap_rel": (float(report["adt"]) - adt_star) / adt_star,
                }
            except (OSError, ValueError, KeyError, TypeError):
                pass
        elif op.check == "heuristic":
            stdout = (out_dir / "stdout").read_text()
            reasons, silent = reference.check_heuristic(code, stdout, out_dir, problem)
        elif op.check == "sweep":
            reasons, silent = reference.check_sweep(
                code, out_dir / "sweep.csv", self.workload.files[op.inputs["scenario"]],
                op.inputs["values"],
            )
        else:
            with open(self.inputs / op.inputs["placement"]) as handle:
                matrix = np.asarray(json.load(handle)["matrix"], dtype=float)
            csv_path = out_dir / "sim.csv"
            reasons, silent, worst = reference.check_simulate(code, csv_path, problem, matrix)
            facts = {"rel_error_max": worst}
            # A fixed seed must give bit-identical output on every run.
            text = csv_path.read_bytes() if csv_path.exists() else b""
            first = self.first_outputs.setdefault(op.name, text)
            if text != first:
                reasons = reasons + ["output differs from the first run with the same seed"]
                silent = silent or code == 0
        return reasons, silent, facts

    def rounds(self, seconds):
        """The fixed number of whole rounds a run of ``seconds`` makes."""
        passes = 2 if self.trace else 1
        return max(1, round(seconds / (passes * self.workload.round_s)))

    def measure(self, rounds):
        """Records of ``rounds`` whole rounds of the operations, in list
        order (fewer only if half the deadline has passed).  With tracing,
        each operation runs untraced and traced back to back, the order
        alternating."""
        records = []
        for round_index in range(rounds):
            if round_index and time.perf_counter() - self.started > RUN_DEADLINE_S / 2:
                break
            for index, op in enumerate(self.workload.ops):
                if not self.trace:
                    order = (False,)
                elif (round_index + index) % 2:
                    order = (True, False)
                else:
                    order = (False, True)
                records += [self.run_op(op, round_index, traced) for traced in order]
        return records


def by_op(records, key):
    """Each operation's values of ``key`` over ``records``."""
    values = {}
    for record in records:
        values.setdefault(record["op"], []).append(record[key])
    return values


def batch_seconds(records, key="scaled_s"):
    """Time of one round: the sum of each operation's median, which a
    transient slowdown of one operation does not move."""
    return sum(statistics.median(times) for times in by_op(records, key).values())


def failed_ratio(records):
    """Mean over operations of the share of their runs that failed, so that
    the operations of a round cut short do not weigh more."""
    return statistics.fmean(
        statistics.fmean(bool(reasons) for reasons in runs)
        for runs in by_op(records, "reasons").values()
    )


def end_to_end(setup_s, records):
    return {
        "setup_s": setup_s,
        "batch_s": batch_seconds(records),
        "peak_rss_mb": max(record["rss_mb"] for record in records),
        "ok_ratio": 1.0 - failed_ratio(records),
    }


def per_layer(records):
    untraced = [record for record in records if not record["traced"]]
    traced = [record for record in records if record["traced"]]
    rounds = {}
    for record in traced:
        rounds.setdefault(record["round"], []).append(record)
    per_round = []
    for round_records in rounds.values():
        totals = RoundTotals()
        for record in round_records:
            totals.add(record["spans"], PROBE_REFERENCE_S / record["probe_s"])
        per_round.append(round_metrics(totals, {r["op"]: r["facts"] for r in round_records}))
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}

    times = {op: statistics.median(values) for op, values in by_op(untraced, "scaled_s").items()}
    for rung in LADDER_RUNGS:
        metrics[f"solve_s.{rung_name(*rung)}"] = times.get(f"solve.{rung_name(*rung)}", 0.0)
    first = rung_name(*LADDER_RUNGS[0])
    metrics[f"pgd_s.{first}"] = times.get(f"pgd.{first}", 0.0)
    metrics["failed_ratio"] = failed_ratio(records)
    metrics["trace.overhead_ratio"] = batch_seconds(traced) / batch_seconds(untraced)
    return metrics


def context(root, seed):
    """Machine and run context recorded with every results file."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
            )
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    lines = {}
    for path in sorted((root / "src" / "fogcache").glob("*.py")):
        with open(path) as handle:
            lines[path.name] = sum(1 for _ in handle)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "seed": seed,
        "thread_env": dict(PINNED_ENV),
        "src_lines": {"files": lines, "total": sum(lines.values())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "fogcache" / "cli.py").is_file():
        print("error: run from the root of a fogcache checkout (src/fogcache missing)",
              file=sys.stderr)
        return 2
    run = Run(root, WORKLOADS[args.workload](args.seed), args.seed, bool(args.trace))
    try:
        run.prepare()
        setup_s, raw_setup_s = run.setup_seconds()
        records = run.measure(run.rounds(args.seconds))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values, units = per_layer(records), PER_LAYER
    else:
        values, units = end_to_end(setup_s, records), END_TO_END
    failures = {}
    for record in records:
        if record["reasons"]:
            failures.setdefault(record["op"], record["reasons"])
    result = {
        "correct": not any(record["silent"] for record in records),
        "attempted": len(records),
        "failed": sum(1 for record in records if record["reasons"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    results_file = run.dir.parent / f"results-{run.dir.name}.json"
    with open(results_file, "w") as handle:
        json.dump(
            {
                "context": context(root, args.seed),
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "raw_setup_s": raw_setup_s,
                "raw_batch_s": batch_seconds(
                    [record for record in records if not record["traced"]], "wall_s"
                ),
                "result": result,
                "ops": [{k: v for k, v in r.items() if k != "spans"} for r in records],
            },
            handle,
            indent=1,
        )
    if args.trace:
        with open(run.dir / "spans.json", "w") as handle:
            json.dump({"fields": ["op", "name", "start", "end", "parent", "counts"],
                       "spans": run.spans}, handle)

    rounds = 1 + max(record["round"] for record in records)
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for op, reasons in failures.items():
        print(f"  FAILED {op}: {'; '.join(reasons)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"results: {results_file.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
