"""Per-layer metrics from the spans of one traced round.

A span's self time is its duration minus the durations of its child spans
(children run one after another in a single thread, so they never overlap).
Layers a workload does not exercise read 0.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import LADDER_RUNGS, rung_name

#: Bytes a call of ``mm1_sojourn_times`` reads and writes per arrival, as
#: computed from its array passes over float64 arrays of length n: each
#: exponential draw is 1 write (random) + 4 read/write passes (negate, log1p,
#: negate, divide), twice; the two cumsums 2 passes each; the four
#: elementwise differences and sums 3 each; the running maximum 2.
MM1_BYTES_PER_ARRIVAL = 8 * (2 * (1 + 4 * 2) + 2 * 2 + 4 * 3 + 2)

OBJECTIVE_EVALS = ("objective.adt_curve", "objective.adt_slope", "objective.adt_curvature")
SELF_TIMES = (
    "admm.project_feasible",
    "admm.p_update",
    "admm.solve",
    "admm.ConstraintSystem.build",
    "_roots.increasing_root",
    "heuristic.heuristic_solve",
    "heuristic.echr_csl",
    "heuristic.placement_from_echr",
    "objective.overall_adt",
    "model.validate_placement",
    "queuesim.mm1_sojourn_times",
    "queuesim.simulate_station",
    "model.Scenario.load",
)


def self_seconds(spans):
    """Self time of each span of one process, in span order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class RoundTotals:
    """Sums over every span of one round (all its operations)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.duration_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(list)

    def add(self, spans, scale):
        """Add one process's spans; ``scale`` converts its wall seconds to
        reference seconds."""
        for index, ((name, start, end, _, counts), own) in enumerate(
            zip(spans, self_seconds(spans))
        ):
            # PGD drives the same projection; its calls are PGD's figures,
            # not ADMM's.
            if name == "admm.project_feasible" and _has_ancestor(
                spans, index, "baselines.projected_gradient_solve"
            ):
                name = "baselines.project_feasible"
            self.self_s[name] += own * scale
            self.duration_s[name] += (end - start) * scale
            self.calls[name] += 1
            for key, value in (counts or {}).items():
                self.counts[f"{name}.{key}"].append(value)


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def round_metrics(totals, outputs):
    """Per-layer metrics of one traced round.

    ``outputs`` maps operation name -> facts read from its checked outputs:
    ``iterations`` and ``gap_rel`` for solves, ``rel_error_max`` for
    simulations.
    """
    # Metric names start with a letter, so the private module drops its "_".
    m = {f"{name.lstrip('_')}.self_s": totals.self_s[name] for name in SELF_TIMES}
    cycles = totals.counts["admm.project_feasible.cycles"]
    evals = totals.counts["_roots.increasing_root.evals"]
    pgd_iterations = sum(totals.counts["baselines.projected_gradient_solve.iterations"])
    pgd_projections = totals.calls["baselines.project_feasible"]
    arrivals = sum(totals.counts["queuesim.mm1_sojourn_times.arrivals"])
    simulate_s = totals.duration_s["queuesim.simulate_station"]
    m.update(
        {
            "admm.project_feasible.calls": totals.calls["admm.project_feasible"],
            "admm.dykstra_cycles.mean": _mean(cycles),
            "admm.dykstra_cycles.max": max(cycles, default=0),
            "admm.constraint_bytes": max(totals.counts["admm.ConstraintSystem.build.bytes"],
                                         default=0),
            "roots.increasing_root.calls": totals.calls["_roots.increasing_root"],
            "roots.evals_per_call.mean": _mean(evals),
            "objective.adt_slope.calls": totals.calls["objective.adt_slope"],
            "objective.adt_curvature.calls": totals.calls["objective.adt_curvature"],
            "objective.eval.self_s": sum(totals.self_s[name] for name in OBJECTIVE_EVALS),
            "baselines.projected_gradient_solve.iterations": pgd_iterations,
            "baselines.project_calls": pgd_projections,
            "baselines.armijo_accept_ratio": (
                pgd_iterations / pgd_projections if pgd_projections else 0.0
            ),
            "baselines.self_s": totals.self_s["baselines.projected_gradient_solve"],
            "cli.self_s": totals.self_s["cli.main"],
            "queuesim.mm1_sojourn_times.calls": totals.calls["queuesim.mm1_sojourn_times"],
            "queuesim.arrivals_per_s": arrivals / simulate_s if simulate_s else 0.0,
            "queuesim.bytes_computed": arrivals * MM1_BYTES_PER_ARRIVAL,
            "queuesim.rel_error.max": max(
                (facts.get("rel_error_max", 0.0) for facts in outputs.values()), default=0.0
            ),
        }
    )
    for rung in LADDER_RUNGS:
        facts = outputs.get(f"solve.{rung_name(*rung)}", {})
        m[f"admm.iterations.{rung_name(*rung)}"] = facts.get("iterations", 0)
        m[f"admm.gap_rel.{rung_name(*rung)}"] = facts.get("gap_rel", 0.0)
    return m
