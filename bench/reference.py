"""Reference answers and output checks, written without importing fogcache.

Every input the benchmark generates has unit content sizes, so the download
time depends on a placement only through its hit ratio ``h`` and the exact
optimum is ``h* = min(h_csl, h_cpl)``:

* ``h_csl``: the largest hit ratio the pooled capacity can realise, by a
  fractional knapsack over contents in popularity order;
* ``h_cpl``: the minimiser on [0, 1] of the convex download time
  ``D(h) = sum_i w_i (h / (mu_e_i - lam_i h) + (1 - h) / (mu_b_i - lam_i (1 - h)))``
  with ``w_i = lam_i / sum(lam)``, found by bisection on ``D'``.

The ``check_*`` functions return ``(reasons, silent)``: the reasons an
operation failed (empty when it passed), and whether any of them is a wrong
output the program did not flag itself by a nonzero exit or a row status.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Slack allowed on every linear constraint of a placement.
FEASIBILITY_TOL = 1e-9
#: Largest relative excess of a solver's download time over the exact optimum
#: (the solver's default ``eps_rel``).
ADT_REL_TOL = 1e-4
#: Agreement required between a value the program prints and the same value
#: recomputed here (printed CSV fields carry 12 significant digits).
MATCH_REL_TOL = 1e-9

SIMULATE_HEADER = [
    "station",
    "echr",
    "mean_sojourn_e",
    "mean_sojourn_b",
    "mean_adt",
    "ci_halfwidth",
    "analytic_adt",
    "relative_error",
]
SWEEP_HEADER = ["value", "solver", "echr", "adt", "iterations", "wall_time", "status"]


def zipf(count, alpha):
    """Zipf popularity over ranks ``1..count``, summing to 1."""
    weights = np.arange(1, count + 1, dtype=float) ** -alpha
    return weights / weights.sum()


@dataclass(frozen=True)
class Problem:
    """A scenario file's content, with traffic broadcast to every node."""

    popularity: np.ndarray
    capacities: np.ndarray
    lam: np.ndarray
    mu_e: np.ndarray
    mu_b: np.ndarray

    @classmethod
    def from_dict(cls, data):
        library = data["library"]
        capacities = np.asarray(data["cluster"]["capacities"], dtype=float)
        n = capacities.size

        def rates(key):
            return np.broadcast_to(np.asarray(data["traffic"][key], dtype=float), (n,)).copy()

        return cls(
            zipf(int(library["F"]), float(library["alpha"])),
            capacities,
            rates("lambda"),
            rates("mu_e"),
            rates("mu_b"),
        )

    @property
    def shape(self):
        return self.capacities.size, self.popularity.size

    def per_station_adt(self, h):
        return h / (self.mu_e - self.lam * h) + (1.0 - h) / (self.mu_b - self.lam * (1.0 - h))

    def adt(self, h):
        """Traffic-weighted download time ``D(h)``."""
        return float(self.lam @ self.per_station_adt(h) / self.lam.sum())

    def adt_slope(self, h):
        per_station = self.mu_e / (self.mu_e - self.lam * h) ** 2 - self.mu_b / (
            self.mu_b - self.lam * (1.0 - h)
        ) ** 2
        return float(self.lam @ per_station / self.lam.sum())

    def h_csl(self):
        """Fractional knapsack: whole contents by popularity, then a fraction."""
        capacity = float(self.capacities.sum())
        whole = min(int(math.floor(capacity)), self.popularity.size)
        h = float(self.popularity[:whole].sum())
        if whole < self.popularity.size:
            h += (capacity - whole) * float(self.popularity[whole])
        return min(h, 1.0)

    def h_cpl(self):
        """Minimiser of ``D`` on [0, 1]; ``D'`` is increasing there."""
        if self.adt_slope(0.0) >= 0.0:
            return 0.0
        if self.adt_slope(1.0) <= 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if self.adt_slope(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def optimum(self):
        """``(h_csl, h_cpl, h_star, D(h_star))``."""
        h_csl, h_cpl = self.h_csl(), self.h_cpl()
        h_star = min(h_csl, h_cpl)
        return h_csl, h_cpl, h_star, self.adt(h_star)

    def hit_ratio(self, matrix):
        return float(self.popularity @ matrix.sum(axis=0))

    def placement(self, h_target):
        """A feasible placement with hit ratio ``h_target`` (at most ``h_csl``).

        Caches contents in popularity order until the target is met, then
        assigns each content's portion to nodes first-fit.
        """
        n, f = self.shape
        fractions = np.zeros(f)
        capacity, remaining = float(self.capacities.sum()), float(h_target)
        for index in range(f):
            if capacity <= 0.0 or remaining <= 0.0:
                break
            take = min(1.0, capacity, remaining / self.popularity[index])
            fractions[index] = take
            capacity -= take
            remaining -= take * self.popularity[index]
        matrix = np.zeros((n, f))
        spare = self.capacities.copy()
        for index in np.flatnonzero(fractions):
            demand = fractions[index]
            for node in range(n):
                amount = min(spare[node], demand)
                if amount > 0.0:
                    matrix[node, index] = amount
                    spare[node] -= amount
                    demand -= amount
                if demand <= 0.0:
                    break
        return matrix


def feasibility_violations(matrix, problem, tol=FEASIBILITY_TOL):
    """Reasons ``matrix`` is not a feasible placement for ``problem``."""
    if matrix.shape != problem.shape:
        return [f"placement shape {matrix.shape} != {problem.shape}"]
    reasons = []
    if not np.all(np.isfinite(matrix)):
        return ["placement has non-finite entries"]
    box = max(-float(matrix.min()), float(matrix.max()) - 1.0)
    if box > tol:
        reasons.append(f"box violated by {box:.3g}")
    column = float(np.max(matrix.sum(axis=0))) - 1.0
    if column > tol:
        reasons.append(f"per-content sum exceeds 1 by {column:.3g}")
    node = float(np.max(matrix.sum(axis=1) - problem.capacities))
    if node > tol:
        reasons.append(f"node load exceeds capacity by {node:.3g}")
    return reasons


def _close(a, b, rel=MATCH_REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _placement_reasons(matrix, problem, reported_h, reported_adt, adt_star):
    """Feasibility, the printed ``echr``/``adt`` against the placement, and the
    download time against the optimum."""
    reasons = feasibility_violations(matrix, problem)
    if reasons:
        return reasons
    h = min(max(problem.hit_ratio(matrix), 0.0), 1.0)
    adt = problem.adt(h)
    if abs(reported_h - h) > 1e-9:
        reasons.append(f"printed echr {reported_h!r} != placement's {h!r}")
    if not _close(reported_adt, adt):
        reasons.append(f"printed adt {reported_adt!r} != D(h) = {adt!r}")
    gap = (adt - adt_star) / adt_star
    if gap > ADT_REL_TOL:
        reasons.append(f"adt {gap:.3g} relative above the optimum")
    return reasons


def _with_exit(exit_code, reasons):
    """Prefix a nonzero exit; a failure behind exit 0 is a silent one."""
    if exit_code != 0:
        return [f"exit code {exit_code}"] + reasons, False
    return reasons, bool(reasons)


def check_solve(exit_code, out_dir, problem):
    """``fogcache solve``: placement.json, report.json and trace.csv."""
    out_dir = Path(out_dir)
    try:
        matrix = np.asarray(_read_json(out_dir / "placement.json")["matrix"], dtype=float)
        report = _read_json(out_dir / "report.json")
        trace = _read_csv(out_dir / "trace.csv")
        h, adt, iterations = float(report["echr"]), float(report["adt"]), int(report["iterations"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _with_exit(exit_code, [f"malformed output: {exc!r}"])
    reasons = _placement_reasons(matrix, problem, h, adt, problem.optimum()[3])
    if len(trace) < 2 or len(trace) - 1 < iterations:
        reasons.append(f"trace.csv has {len(trace) - 1} rows for {iterations} iterations")
    if bool(report.get("converged")) != (exit_code == 0):
        reasons.append("report's converged flag disagrees with the exit code")
    return _with_exit(exit_code, reasons)


def check_heuristic(exit_code, stdout, out_dir, problem):
    """``fogcache heuristic --out``: the printed summary and placement.json."""
    try:
        summary = json.loads(stdout)
        matrix = np.asarray(
            _read_json(Path(out_dir) / "placement.json")["matrix"], dtype=float
        )
        printed = [float(summary[key]) for key in ("h_csl", "h_cpl", "h_star", "echr", "adt")]
        regime = summary["regime"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _with_exit(exit_code, [f"malformed output: {exc!r}"])
    h_csl, h_cpl, h_star, adt_star = problem.optimum()
    reasons = []
    for name, value, expected in zip(
        ("h_csl", "h_cpl", "h_star"), printed, (h_csl, h_cpl, h_star)
    ):
        if abs(value - expected) > 1e-9:
            reasons.append(f"{name} {value!r} != reference {expected!r}")
    if regime != ("CPL" if h_cpl <= h_csl else "CSL"):
        reasons.append(f"regime {regime!r} is wrong")
    reasons += _placement_reasons(matrix, problem, printed[3], printed[4], adt_star)
    return _with_exit(exit_code, reasons)


def check_sweep(exit_code, csv_path, base, values):
    """``fogcache sweep --parameter F --solver heuristic,csl-only``.

    ``base`` is the base scenario dict; each row is checked against the
    reference at its ``F``: the heuristic row at the optimum, the csl-only row
    at ``h_csl``.
    """
    try:
        rows = _read_csv(csv_path)
    except OSError as exc:
        return _with_exit(exit_code, [f"missing output: {exc!r}"])
    if not rows or rows[0] != SWEEP_HEADER:
        return _with_exit(exit_code, ["malformed sweep header"])
    expected = [(value, solver) for value in values for solver in ("heuristic", "csl-only")]
    if len(rows) - 1 != len(expected):
        return _with_exit(exit_code, [f"{len(rows) - 1} sweep rows, expected {len(expected)}"])
    flagged, silent = [], []
    for row, (value, solver) in zip(rows[1:], expected):
        label = f"F={value} {solver}"
        if len(row) != len(SWEEP_HEADER) or row[1] != solver or float(row[0]) != value:
            silent.append(f"{label}: malformed row {row}")
            continue
        if row[6] != "ok":
            flagged.append(f"{label}: status {row[6]}")
            continue
        problem = Problem.from_dict(dict(base, library=dict(base["library"], F=value)))
        h_csl, _, h_star, adt_star = problem.optimum()
        h_ref = h_star if solver == "heuristic" else h_csl
        row_reasons = []
        if abs(float(row[2]) - h_ref) > 1e-9:
            row_reasons.append(f"echr {row[2]} != reference {h_ref!r}")
        if not _close(float(row[3]), problem.adt(h_ref)):
            row_reasons.append(f"adt {row[3]} != D(h) = {problem.adt(h_ref)!r}")
        if solver == "heuristic" and (float(row[3]) - adt_star) / adt_star > ADT_REL_TOL:
            row_reasons.append("adt above the optimum")
        silent += [f"{label}: {reason}" for reason in row_reasons]
    reasons, _ = _with_exit(exit_code, flagged + silent)
    return reasons, exit_code == 0 and bool(silent)


def check_simulate(exit_code, csv_path, problem, matrix):
    """``fogcache simulate``: one row per station; ``analytic_adt`` and
    ``relative_error`` must match this module's formula.  Returns the largest
    relative error of the simulated means as a third value (reported, never
    gated: the simulator's accuracy is not part of the pass criterion)."""
    try:
        rows = _read_csv(csv_path)
    except OSError as exc:
        return _with_exit(exit_code, [f"missing output: {exc!r}"]) + (0.0,)
    if not rows or rows[0] != SIMULATE_HEADER:
        return _with_exit(exit_code, ["malformed simulate header"]) + (0.0,)
    n = problem.capacities.size
    if len(rows) - 1 != n:
        return _with_exit(exit_code, [f"{len(rows) - 1} rows for {n} stations"]) + (0.0,)
    h = min(max(problem.hit_ratio(matrix), 0.0), 1.0)
    expected_adt = problem.per_station_adt(h)
    reasons, worst = [], 0.0
    for station, row in enumerate(rows[1:]):
        label = f"station {station + 1}"
        try:
            number = int(row[0])
            echr, mean_adt, ci, analytic, rel = (float(row[i]) for i in (1, 4, 5, 6, 7))
        except (ValueError, IndexError):
            reasons.append(f"{label}: malformed row {row}")
            continue
        if number != station + 1:
            reasons.append(f"{label}: numbered {number}")
        if abs(echr - h) > 1e-9:
            reasons.append(f"{label}: echr {echr!r} != {h!r}")
        if not _close(analytic, float(expected_adt[station])):
            reasons.append(f"{label}: analytic_adt {analytic!r} != {expected_adt[station]!r}")
        own_rel = abs(mean_adt - expected_adt[station]) / expected_adt[station]
        if not (math.isfinite(mean_adt) and mean_adt > 0.0 and ci >= 0.0):
            reasons.append(f"{label}: mean_adt {mean_adt!r} or ci {ci!r} out of range")
        elif abs(rel - own_rel) > 1e-9:
            reasons.append(f"{label}: relative_error {rel!r} != {own_rel!r}")
        if (row[2] == "") != (h == 0.0) or (row[3] == "") != (h == 1.0):
            reasons.append(f"{label}: queue columns do not match h={h!r}")
        worst = max(worst, own_rel)
    return _with_exit(exit_code, reasons) + (worst,)
