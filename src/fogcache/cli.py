"""Command-line front end: solve, heuristic, sweep, and simulate.

Everything the commands emit is machine-readable (JSON or CSV) with fixed,
documented schemas; plotting is left to external tooling.  Exit codes:
0 success, 1 numerical non-convergence, 2 invalid input or usage.

``solve`` and ``sweep`` share the flags of both iterative solvers, the
fields of :class:`~fogcache.admm.SolverConfig`: ``--tol`` bounds the
relative Frank–Wolfe gap at which either stops, and ``--max-iter`` caps its
iterations.  A flag left out takes the config's default, the same for both
solvers.  A sweep that lists neither ``admm`` nor ``pgd`` rejects them as a
usage error.  ADMM's penalty is worked out from the scenario, so no flag
sets it.
Each subcommand runs one ``cmd_*`` function on the parsed arguments, which
imports the solver modules it calls; a run compiles no module it does not
use.

:func:`main` is the in-process API: it takes an argument list and returns
the exit code.  The ``fogcache`` script and ``python -m fogcache.cli`` call
:func:`run` instead, which ends the process as soon as the command's output
files are closed and its standard streams flushed, skipping the
interpreter's teardown.  The exit codes are the same either way.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .model import Placement, Scenario, _as_array, _check_count

__all__ = ["SweepSpec", "main", "run"]

SWEEP_HEADER = ("value", "solver", "echr", "adt", "iterations", "wall_time", "status")
SIMULATE_HEADER = (
    "station",
    "echr",
    "mean_sojourn_e",
    "mean_sojourn_b",
    "mean_adt",
    "ci_halfwidth",
    "analytic_adt",
    "relative_error",
)

SWEEP_PARAMETERS = ("lambda", "mu_b", "mu_e", "F")
SWEEP_SOLVERS = ("admm", "pgd", "heuristic", "csl-only")


def _fmt(value):
    """Fixed numeric formatting so identical runs give identical bytes."""
    if value is None:
        return ""
    return format(float(value), ".12g")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment axis: vary ``parameter`` over ``values`` on top of the
    base scenario file.

    ``lambda``/``mu_b``/``mu_e`` replace the corresponding traffic rate at
    every station of the base scenario, which must itself be valid; ``F``
    regenerates a Zipf library of that many contents (the base library must
    carry an exponent and uniform sizes).
    """

    parameter: str
    values: tuple
    base: str

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; expected one of {SWEEP_PARAMETERS}"
            )
        if self.parameter == "F" and not all(
            float(v).is_integer() and v >= 1 for v in self.values
        ):
            raise ValueError("an F sweep takes integer values of at least 1")

    @classmethod
    def load(cls, path):
        """Read a sweep file; ``base`` is resolved relative to it."""
        path = Path(path)
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        try:
            parameter, values, base = data["parameter"], data["values"], data["base"]
        except KeyError as exc:
            raise ValueError(f"{path}: missing sweep key {exc}") from None
        if not isinstance(values, list):
            raise ValueError(f"{path}: sweep 'values' must be a list of numbers")
        values = _as_array(values, f"{path}: {parameter} sweep 'values'", 1).tolist()
        if not isinstance(base, str):
            raise ValueError(f"{path}: sweep 'base' must be a file name, got {base!r}")
        base_path = Path(base)
        if not base_path.is_absolute():
            base_path = path.parent / base_path
        return cls(parameter=parameter, values=tuple(values), base=str(base_path))


def _scenario_at(spec, base_data, value, stations):
    """Build the scenario for one sweep point from the base file's dict; a
    swept rate becomes a list of ``stations`` values, the base's count."""
    data = json.loads(json.dumps(base_data))
    if spec.parameter == "F":
        library = data.get("library")
        if not isinstance(library, dict) or "alpha" not in library:
            raise ValueError(
                "an F sweep needs a base library specified by 'alpha' so the "
                "popularity profile can be regenerated per point"
            )
        sizes = library.get("sizes")
        if sizes is not None:
            if not isinstance(sizes, list) or any(size != sizes[0] for size in sizes):
                raise ValueError("an F sweep needs uniform content 'sizes' in the base library")
            library["sizes"] = sizes[:1] * int(value)
        library["F"] = int(value)
    else:
        data["traffic"][spec.parameter] = [value] * stations
    return Scenario.from_dict(data)


def _load_placement(path):
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'matrix' key")
    return Placement(data["matrix"])


_ENTRY_SEP = ",\n      "


def _dump_placement(placement, path):
    """Write the bytes of ``json.dump({"matrix": ...}, indent=2)`` plus a newline.

    Each row is written as alternating runs.  A run of ``+0.0`` entries is a
    slice of one ``"0.0,\\n      "`` string repeated once per column, and a
    run of stored entries (nonzero or ``-0.0``) one join of their ``repr``.
    A first-fit row therefore costs its stored entries and its bytes, not
    one Python string per column; a dense row is one run and costs what a
    join of every entry does.
    """
    matrix = placement.matrix
    sep = _ENTRY_SEP.encode()
    zero = b"0.0" + sep
    zeros = memoryview(zero * matrix.shape[1])
    with open(path, "wb") as handle:
        handle.write(b'{\n  "matrix": [')
        for i, row in enumerate(matrix):
            handle.write(b",\n    [\n      " if i else b"\n    [\n      ")
            stored = (row != 0.0) | np.signbit(row)
            # Columns where a run starts; runs alternate, a zero run first.
            edges = np.flatnonzero(np.diff(stored, prepend=False, append=False)).tolist()
            bounds = [0, *edges, row.size]
            lead = b""
            for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
                if a == b:  # a row that starts or ends with a stored entry
                    continue
                handle.write(lead)
                if k % 2:
                    handle.write(_ENTRY_SEP.join(map(repr, row[a:b].tolist())).encode())
                else:
                    handle.write(zeros[: (b - a) * len(zero) - len(sep)])
                lead = sep
            handle.write(b"\n    ]")
        handle.write(b"\n  ]\n}\n")


def _dump_json(data, path):
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _report_dict(report):
    return {
        "h_e": report.h_e,
        "h_b": report.h_b,
        "t_e": report.t_e.tolist(),
        "t_b": report.t_b.tolist(),
        "per_station": report.per_station.tolist(),
        "overall": report.overall,
    }


def _write_rows(rows, out_path):
    """Write CSV-style rows to a file or stdout, one comma-joined line each."""
    text = "".join(",".join(row) + "\n" for row in rows)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as handle:
            handle.write(text)


def _solver(name, args):
    """``scenario -> result`` for ``admm`` or ``pgd``, configured by the shared
    solver flags; a bad flag raises ``ValueError`` here, before any solve."""
    from .admm import SolverConfig

    if name == "admm":
        from .admm import solve
    else:
        from .baselines import projected_gradient_solve as solve
    # A flag left out keeps the config's default.
    flags = {"tol": args.tol, "max_iter": args.max_iter}
    config = SolverConfig(**{key: value for key, value in flags.items() if value is not None})
    return lambda scenario: solve(scenario, config)


def cmd_solve(args):
    """Solve one scenario; write placement.json, report.json, trace.csv."""
    from .admm import IterationRecord
    from .objective import overall_adt

    scenario = Scenario.load(args.scenario)
    start = time.perf_counter()
    result = _solver(args.solver, args)(scenario)
    wall_time = time.perf_counter() - start

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _dump_placement(result.placement, out / "placement.json")
    _dump_json(
        {
            "solver": args.solver,
            "echr": result.echr,
            "adt": result.adt,
            "iterations": result.iterations,
            "converged": result.converged,
            "wall_time": wall_time,
            "adt_report": _report_dict(overall_adt(result.placement, scenario)),
        },
        out / "report.json",
    )
    rows = [IterationRecord._fields]
    rows += [(str(k), *map(_fmt, values)) for k, *values in result.trace]
    _write_rows(rows, out / "trace.csv")
    print(
        f"solver={args.solver} echr={result.echr:.6f} adt={result.adt:.6f} "
        f"iterations={result.iterations} converged={result.converged} out={out}"
    )
    return 0 if result.converged else 1


def cmd_heuristic(args):
    """Run the two-regime heuristic; print its summary as JSON."""
    from .heuristic import heuristic_solve
    from .objective import overall_adt

    scenario = Scenario.load(args.scenario)
    result = heuristic_solve(scenario)
    report = overall_adt(result.placement, scenario)
    summary = {
        "h_csl": result.h_csl,
        "h_cpl": result.h_cpl,
        "h_star": result.h_star,
        "lambda_star": result.lambda_star,
        "regime": result.regime,
        "echr": report.h_e,
        "adt": report.overall,
    }
    print(json.dumps(summary, indent=2))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _dump_placement(result.placement, out / "placement.json")
        _dump_json(dict(summary, adt_report=_report_dict(report)), out / "report.json")
    return 0


def _sweep_point(name, scenario, solvers):
    """Run one solver on one scenario; return the row's last five fields.

    ``solvers`` maps the listed ones of ``admm`` and ``pgd`` to their
    :func:`_solver` runs.
    """
    from .heuristic import echr_cpl, echr_csl
    from .objective import adt_curve

    start = time.perf_counter()
    status = "ok"
    if name in solvers:
        result = solvers[name](scenario)
        echr_value, adt, iterations = result.echr, result.adt, result.iterations
        if not result.converged:
            status = "unconverged"
    else:  # heuristic or csl-only, evaluated at the hit ratio alone
        echr_value, iterations = echr_csl(scenario.library, scenario.cluster), 0
        if name == "heuristic":
            echr_value = min(echr_value, echr_cpl(scenario.traffic))
        adt = adt_curve(echr_value, scenario.traffic)
    wall = time.perf_counter() - start
    return _fmt(echr_value), _fmt(adt), str(iterations), _fmt(wall), status


def cmd_sweep(args):
    """Run every (value, solver) pair of a sweep and emit one CSV row each.

    ``--solver`` is repeatable and comma-separated; it defaults to
    ``admm,heuristic,csl-only``.  A point whose scenario fails validation
    produces rows with empty metric fields and status ``invalid``; the sweep
    continues.  A solver hitting its iteration cap is marked ``unconverged``,
    a numerical failure ``error``.
    """
    spec = SweepSpec.load(args.scenario)
    if args.solver is None:
        names = ["admm", "heuristic", "csl-only"]
    else:
        names = [name for chunk in args.solver for name in chunk.split(",") if name]
    if not names:
        raise ValueError(f"empty solver list; expected a subset of {SWEEP_SOLVERS}")
    for name in names:
        if name not in SWEEP_SOLVERS:
            raise ValueError(f"unknown solver {name!r}; expected a subset of {SWEEP_SOLVERS}")
    if {"admm", "pgd"}.isdisjoint(names):
        for flag, value in (("--tol", args.tol), ("--max-iter", args.max_iter)):
            if value is not None:
                raise ValueError(f"solver flag {flag} is not read by {', '.join(names)}")
    with open(spec.base) as handle:
        base_data = json.load(handle)
    if not isinstance(base_data, dict):
        raise ValueError(f"{spec.base}: expected a JSON object")
    # A failure here is the base file's, a usage error for every point: fail
    # upfront rather than emitting a sheet of invalid rows.  An F sweep
    # builds its first point, since every value is a valid content count; a
    # rate sweep builds the base, one rate of which each point replaces.
    stations = None
    if spec.parameter == "F":
        _scenario_at(spec, base_data, spec.values[0], stations)
    else:
        stations = Scenario.from_dict(base_data).traffic.station_count
    solvers = {name: _solver(name, args) for name in ("admm", "pgd") if name in names}

    rows = [SWEEP_HEADER]
    for value in spec.values:
        try:
            scenario = _scenario_at(spec, base_data, value, stations)
        except ValueError:
            rows += [(_fmt(value), name, "", "", "", "", "invalid") for name in names]
            continue
        for name in names:
            try:
                fields = _sweep_point(name, scenario, solvers)
            except NumericalError:
                fields = ("", "", "", "", "error")
            rows.append((_fmt(value), name, *fields))
    _write_rows(rows, args.out)
    return 0


def cmd_simulate(args):
    """Simulate every station under a placement; emit measured vs analytic CSV.

    Station numbering in the output is 1-based, matching the ``BS i`` naming
    used in validation messages.  With a fixed seed the CSV is bit-identical
    across runs.
    """
    from .objective import overall_adt
    from .queuesim import SimConfig, simulate_cluster

    scenario = Scenario.load(args.scenario)
    placement = _load_placement(args.placement)
    analytic = overall_adt(placement, scenario)
    # SimConfig's checks, in its order, naming the flags: it says n_arrivals.
    _check_count("seed", args.seed, 0)
    _check_count("arrivals", args.arrivals, 1)
    config = SimConfig(seed=args.seed, n_arrivals=args.arrivals)
    results = simulate_cluster(analytic.h_e, scenario.traffic, config)

    rows = [SIMULATE_HEADER]
    for station, sim in enumerate(results):
        reference = float(analytic.per_station[station])
        rows.append(
            (
                str(station + 1),
                _fmt(analytic.h_e),
                _fmt(sim.mean_sojourn_e),
                _fmt(sim.mean_sojourn_b),
                _fmt(sim.mean_adt),
                _fmt(sim.ci_halfwidth),
                _fmt(reference),
                _fmt(abs(sim.mean_adt - reference) / reference),
            )
        )
    _write_rows(rows, args.out)
    return 0


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="fogcache",
        description="Download-time-optimal cache placement for fog clusters.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument(
        "--tol",
        type=float,
        help="bound on the relative Frank-Wolfe gap, which bounds the relative gap to "
        "the optimal download time, at which either solver stops (default 1e-06)",
    )
    solver_flags.add_argument(
        "--max-iter",
        type=int,
        help="iteration cap of either solver (default 1000); a run that reaches it "
        "returns the best feasible iterate it saw, unconverged",
    )

    solve_parser = commands.add_parser(
        "solve", parents=[solver_flags], help="solve one scenario to a placement"
    )
    solve_parser.add_argument("--scenario", required=True, help="scenario JSON file")
    solve_parser.add_argument("--solver", default="admm", choices=("admm", "pgd"))
    solve_parser.add_argument("--out", default=".", help="output directory")
    solve_parser.set_defaults(run=cmd_solve)

    heuristic_parser = commands.add_parser("heuristic", help="run the two-regime heuristic")
    heuristic_parser.add_argument("--scenario", required=True, help="scenario JSON file")
    heuristic_parser.add_argument("--out", default=None, help="optional output directory")
    heuristic_parser.set_defaults(run=cmd_heuristic)

    sweep_parser = commands.add_parser(
        "sweep", parents=[solver_flags], help="run a parameter sweep to CSV"
    )
    sweep_parser.add_argument("--scenario", required=True, help="sweep JSON file")
    sweep_parser.add_argument(
        "--solver",
        action="append",
        default=None,
        help="solver name (repeatable or comma-separated); default admm,heuristic,csl-only",
    )
    sweep_parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sweep_parser.set_defaults(run=cmd_sweep)

    simulate_parser = commands.add_parser("simulate", help="validate a placement by simulation")
    simulate_parser.add_argument("--scenario", required=True, help="scenario JSON file")
    simulate_parser.add_argument("--placement", required=True, help="placement JSON file")
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.add_argument("--arrivals", type=int, default=1_000_000)
    simulate_parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    simulate_parser.set_defaults(run=cmd_simulate)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """Run :func:`main` on ``sys.argv`` and end the process with its code.

    Ending with ``os._exit`` skips the interpreter's teardown of numpy and
    every live object, which would otherwise run after the last output is
    written.  That is safe here: every output file is written inside a
    ``with open(...)`` block and so is closed before :func:`main` returns,
    leaving only the two standard streams with buffered bytes, which are
    flushed below; fogcache registers no ``atexit`` handler; and
    ``simulate_cluster`` joins its workers by shutting its pool down, so
    the skipped exit hook of ``concurrent.futures`` has none to join.  A failed
    flush, an exception escaping :func:`main`, and argparse's
    ``SystemExit`` all end the process the usual way instead.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
